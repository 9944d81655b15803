"""Builders that skip the validating ``Polynomial`` constructor, and the
objects shared per ring.

Each trusted builder must produce exactly the terms the validating
constructor makes from the same term stream.  Shared rings and diagonal
ideals must be one object per ring, and a budget failure on the shared
diagonal ideal must leave it computable later.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.doubling import (
    MatrixGerm,
    build_unfolding,
    diagonal_ideal,
    double_of,
)
from liptriv.groebner import BudgetExceeded, GroebnerBudget, membership_certificate
from liptriv.rings import (
    ExponentOverflow,
    Polynomial,
    inject_into,
    partial_derivative,
)

XY = RingContext(("x", "y"))
DXY = XY.doubled_extension()
EXTENDED = RingContext(("t", "x", "y"))  # parameter first, as in an unfolding
PERMUTED = RingContext(("y", "z", "x"))
XYZ = RingContext(("x", "y", "z"))

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def term_lists(arity, max_exp=4, max_terms=6):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(arity)))
    return st.lists(st.tuples(exps, coefficients), max_size=max_terms)


def polys(ring, **kw):
    return term_lists(ring.arity, **kw).map(lambda ts: Polynomial(ring, ts))


@st.composite
def injection_targets(draw):
    """Rings holding ``x, y, z`` and two more variables, in any order or
    with ``x, y, z`` kept in order, so both paths of ``inject_into`` run."""
    names = draw(st.permutations(("t", "u", "x", "y", "z")))
    if draw(st.booleans()):
        source = iter(XYZ.variables)
        names = [next(source) if name in XYZ.variables else name for name in names]
    return RingContext(tuple(names))


def assert_canonical(p, expected_terms):
    assert p.terms == Polynomial(p.ring, expected_terms).terms
    assert all(type(c) is Fraction and c for _, c in p.terms)


class TestTrustedBuilders:
    @settings(max_examples=300, deadline=None)
    @given(polys(XY), st.sampled_from(XY.variables))
    def test_partial_derivative(self, p, name):
        i = XY.index(name)
        expected = [
            (e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in p.terms if e[i]
        ]
        assert_canonical(partial_derivative(p, name), expected)

    @pytest.mark.parametrize("ring", [XY, DXY], ids=["grevlex", "doubled"])
    def test_variable(self, ring):
        for i, name in enumerate(ring.variables):
            exps = tuple(int(j == i) for j in range(ring.arity))
            assert_canonical(ring.variable(name), [(exps, 1)])

    @settings(max_examples=300, deadline=None)
    @given(polys(XY), coefficients)
    def test_double_of_with_constant_terms(self, p, constant):
        p = p + constant
        zeros = (0,) * XY.arity
        expected = [(e + zeros, c) for e, c in p.terms]
        expected += [(zeros + e, -c) for e, c in p.terms]
        double = double_of(p)
        assert double.ring is DXY
        assert_canonical(double, expected)
        assert all(any(e) for e, _ in double.terms)

    def test_double_of_constant_is_zero(self):
        assert double_of(XY.constant(Fraction(7, 2))).is_zero

    @settings(max_examples=300, deadline=None)
    @given(polys(XY))
    def test_inject_into_parameter_first_ring(self, p):
        expected = [((0,) + e, c) for e, c in p.terms]
        assert_canonical(inject_into(p, EXTENDED), expected)

    @settings(max_examples=300, deadline=None)
    @given(polys(XY))
    def test_inject_into_permuted_ring(self, p):
        expected = [((e[1], 0, e[0]), c) for e, c in p.terms]
        assert_canonical(inject_into(p, PERMUTED), expected)

    @settings(max_examples=300, deadline=None)
    @given(polys(XYZ, max_exp=3), injection_targets())
    def test_inject_into_terms_are_sorted(self, p, target):
        # An order-keeping injection skips the sort; its terms must still
        # be the ones the validating constructor sorts.
        index = [target.index(name) for name in XYZ.variables]
        expected = []
        for e, c in p.terms:
            new = [0] * target.arity
            for i, k in enumerate(index):
                new[k] = e[i]
            expected.append((tuple(new), c))
        assert_canonical(inject_into(p, target), expected)

    def test_inject_into_smaller_cap_overflows(self):
        small = RingContext(("x", "y"), exponent_cap=3)
        p = Polynomial(XY, [((4, 0), 1), ((0, 1), 2)])
        with pytest.raises(ExponentOverflow):
            inject_into(p, small)
        q = Polynomial(XY, [((3, 0), 1)])
        assert inject_into(q, small).terms == q.terms


class TestSharedPerRing:
    def test_doubled_extension_is_shared(self):
        assert XY.doubled_extension() is XY.doubled_extension()
        assert RingContext(("u", "v")).doubled_extension() is RingContext(("u", "v")).doubled_extension()

    def test_half_is_shared(self):
        doubled = RingContext(("u", "w")).doubled_extension()
        assert doubled.half() is doubled.half()
        assert doubled.half() == RingContext(("u", "w"))

    def test_unfolding_ring_is_shared(self):
        germ = MatrixGerm((1, 2), (XY.variable("x"), XY.variable("y")))
        first = build_unfolding(germ, germ).extended_ring
        again = build_unfolding(germ, germ.scale(2)).extended_ring
        assert first is again
        assert first == EXTENDED
        copy = MatrixGerm((1, 1), (RingContext(("x", "y")).variable("x"),))
        assert build_unfolding(copy, copy).extended_ring is first

    def test_equal_distinct_rings_compare_and_hash_equal(self):
        a = RingContext(("u", "v"), exponent_cap=99)
        b = RingContext(("u", "v"), exponent_cap=99)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        for other in (
            RingContext(("u", "w"), exponent_cap=99),
            RingContext(("u", "v")),
            a.doubled_extension(),
        ):
            assert a != other and not a == other
        assert a != ("u", "v")

    def test_diagonal_ideal_is_shared(self):
        assert diagonal_ideal(DXY) is diagonal_ideal(DXY)
        assert diagonal_ideal(DXY) is diagonal_ideal(XY.doubled_extension())

    def test_budget_failure_leaves_the_shared_basis_unset(self):
        # A ring no other test doubles, so the shared ideal starts fresh.
        ring = RingContext(("p", "q", "r")).doubled_extension()
        ideal = diagonal_ideal(ring)
        difference = ring.variable("q") - ring.variable("q'")
        with pytest.raises(BudgetExceeded):
            membership_certificate(difference, ideal, GroebnerBudget(max_pairs=1))
        assert ideal._basis is None
        pairs = membership_certificate(difference, diagonal_ideal(ring), GroebnerBudget())
        assert pairs is not None
        assert diagonal_ideal(ring)._basis is not None
