"""Property-based suites for the algebraic identities the analysis
relies on: linearity and the product rule for the difference operator,
substitution being a ring homomorphism, and additivity of arc
valuations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.doubling import double_of
from liptriv.rings import Polynomial, UnivariatePoly
from tests.oracles import substitute

XY = RingContext(("x", "y"))
DXY = XY.doubled_extension()
UV = RingContext(("u", "v"))

PLAIN = {name: DXY.variable(name) for name in XY.variables}
PRIMED = {name: DXY.variable(name + "'") for name in XY.variables}


def poly_strategy(ring, max_exp=3, max_terms=4, max_coeff=5):
    term = st.tuples(
        st.tuples(*(st.integers(0, max_exp) for _ in range(ring.arity))),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial(ring, [(e, Fraction(c)) for e, c in ts])
    )


def univariate_strategy(max_deg=6, max_coeff=5):
    return st.lists(
        st.integers(-max_coeff, max_coeff), max_size=max_deg + 1
    ).map(UnivariatePoly)


scalars = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


class TestDifferenceOperator:
    @settings(max_examples=500, deadline=None)
    @given(poly_strategy(XY), poly_strategy(XY), scalars)
    def test_linearity(self, p, q, c):
        assert double_of(p + q) == double_of(p) + double_of(q)
        assert double_of(p * c) == double_of(p) * c

    @settings(max_examples=500, deadline=None)
    @given(poly_strategy(XY), poly_strategy(XY))
    def test_product_rule(self, p, q):
        # (pq) at z minus (pq) at z' splits as p(z)*(q(z)-q(z'))
        # plus q(z')*(p(z)-p(z'))
        p_plain = substitute(p, PLAIN, DXY)
        q_primed = substitute(q, PRIMED)
        lhs = double_of(p * q)
        rhs = p_plain * double_of(q) + q_primed * double_of(p)
        assert lhs == rhs

    @settings(max_examples=500, deadline=None)
    @given(poly_strategy(XY))
    def test_vanishes_on_diagonal(self, p):
        unprimed = {name: XY.variable(name) for name in XY.variables}
        folded = substitute(
            double_of(p),
            {**unprimed, **{name + "'": unprimed[name] for name in XY.variables}},
        )
        assert folded.is_zero


class TestSubstitutionHomomorphism:
    @settings(max_examples=500, deadline=None)
    @given(
        poly_strategy(XY),
        poly_strategy(XY),
        poly_strategy(UV, max_exp=2, max_terms=3),
        poly_strategy(UV, max_exp=2, max_terms=3),
    )
    def test_respects_sum_and_product(self, p, q, fx, fy):
        images = {"x": fx, "y": fy}
        assert substitute(p + q, images, UV) == substitute(
            p, images, UV
        ) + substitute(q, images, UV)
        assert substitute(p * q, images, UV) == substitute(
            p, images, UV
        ) * substitute(q, images, UV)

    @settings(max_examples=200, deadline=None)
    @given(poly_strategy(XY), scalars, scalars)
    def test_scalar_evaluation_matches_termwise(self, p, a, b):
        value = substitute(p, {"x": a, "y": b})
        expected = Fraction(0)
        for (ex, ey), coeff in p.terms:
            expected += coeff * a**ex * b**ey
        assert value == XY.constant(expected)


class TestValuationAdditivity:
    @settings(max_examples=500, deadline=None)
    @given(univariate_strategy(), univariate_strategy())
    def test_product_orders_add(self, a, b):
        order = (a * b).order_of_vanishing()
        assert order == a.order_of_vanishing() + b.order_of_vanishing()

    @settings(max_examples=200, deadline=None)
    @given(univariate_strategy(), univariate_strategy())
    def test_sum_order_at_least_min(self, a, b):
        total = a + b
        bound = min(a.order_of_vanishing(), b.order_of_vanishing())
        assert total.order_of_vanishing() >= bound
