"""Arithmetic builds canonical terms without the validating constructor.

``+`` and ``-`` merge two sorted term tuples, a product with a single
term shifts exponents, and a general product sorts once.  Each must give
exactly the ``terms`` tuple the validating constructor gives for the
same data, in grevlex and lex rings alike; and the exponent cap must
still be enforced on every product, since ``buchberger`` turns an
overflow into ``BudgetExceeded``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.groebner import BudgetExceeded, buchberger
from liptriv.rings import ExponentOverflow, Polynomial, parse_polynomial

RINGS = [
    RingContext(("x", "y", "z")),
    RingContext(("x", "y", "z"), order="lex"),
    RingContext(("x", "y"), order="lex").doubled_extension(),
]

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(ring, max_terms=6, max_exp=3):
    term = st.tuples(
        st.tuples(*(st.integers(0, max_exp) for _ in range(ring.arity))),
        coefficients,
    )
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


def single_terms(ring):
    return polys(ring, max_terms=1).filter(lambda p: not p.is_zero)


def ring_and(strategy_of_ring, count):
    return st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(*(strategy_of_ring(ring) for _ in range(count)))
    )


def reference_product(a: Polynomial, b: Polynomial) -> Polynomial:
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            exps = tuple(x + y for x, y in zip(e1, e2))
            acc[exps] = acc.get(exps, 0) + c1 * c2
    return Polynomial(a.ring, acc.items())


def negated(p: Polynomial) -> tuple:
    return tuple((e, -c) for e, c in p.terms)


@settings(max_examples=300, deadline=None)
@given(ring_and(polys, 2))
def test_merge_sum_matches_constructor(pair):
    a, b = pair
    assert (a + b).terms == Polynomial(a.ring, a.terms + b.terms).terms
    assert (a - b).terms == Polynomial(a.ring, a.terms + negated(b)).terms


@settings(max_examples=200, deadline=None)
@given(ring_and(polys, 2))
def test_merge_with_shared_monomials(pair):
    # b reuses a's monomials, so the merge meets equal keys and cancellations.
    a, b = pair
    c = Polynomial(a.ring, [(e, k * 2) for e, k in a.terms] + list(b.terms))
    assert (a - c).terms == Polynomial(a.ring, a.terms + negated(c)).terms
    assert (c + a).terms == Polynomial(a.ring, c.terms + a.terms).terms


@settings(max_examples=200, deadline=None)
@given(ring_and(polys, 1))
def test_full_cancellation_is_zero(single):
    (a,) = single
    assert (a - a).terms == ()
    assert (a + (-a)).terms == ()
    assert (-a + a).is_zero


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.order}-{r.arity}")
def test_x_minus_x(ring):
    x = ring.variable("x")
    assert (x - x).terms == ()
    assert (x - x) == ring.zero()
    assert (x + 1 - x).terms == ring.one().terms


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(polys(r), single_terms(r))))
def test_single_term_shift_matches_constructor(pair):
    a, m = pair
    expected = reference_product(a, m).terms
    assert (a * m).terms == expected
    assert (m * a).terms == expected


@settings(max_examples=300, deadline=None)
@given(ring_and(polys, 2))
def test_general_product_matches_constructor(pair):
    a, b = pair
    assert (a * b).terms == reference_product(a, b).terms
    assert (b * a).terms == reference_product(a, b).terms


CAPPED = RingContext(("x", "y"), exponent_cap=4)


def capped(text):
    return parse_polynomial(text, CAPPED)


@pytest.mark.parametrize(
    "left, right",
    [
        ("x^3", "x^2"),  # single term times single term
        ("x^3 + y", "x^2"),  # shift
        ("y^2", "x + y^3"),  # shift, single term on the left
        ("x^3 + y", "x^2 + y"),  # general product
    ],
)
def test_product_past_cap_overflows(left, right):
    with pytest.raises(ExponentOverflow):
        capped(left) * capped(right)


def test_product_at_cap_is_fine():
    assert (capped("x^2 + y") * capped("x^2 - y")).terms == capped("x^4 - y^2").terms


def test_buchberger_overflow_is_budget_exceeded():
    gens = [capped("x^3*y - y^2"), capped("x*y^3 - x^2")]
    with pytest.raises(BudgetExceeded) as info:
        buchberger(gens)
    assert isinstance(info.value.__cause__, ExponentOverflow)


def test_constructor_still_validates():
    ring = RINGS[0]
    with pytest.raises(ExponentOverflow):
        Polynomial(ring, [((65, 0, 0), 1)])
    with pytest.raises(ValueError):
        Polynomial(ring, [((1, -1, 0), 1)])
    with pytest.raises(ValueError):
        Polynomial(ring, [((1, 0), 1)])
    assert Polynomial(ring, [((1, 0, 0), Fraction(1)), ((1, 0, 0), -1)]).is_zero
