"""Arithmetic on packed integer forms agrees with plain dict arithmetic.

``+`` and ``-`` combine two forms on their common denominator, a product
with a single term shifts packed monomials, and a general product sorts
once.  Each result must hold exactly the terms that the ``Fraction``
arithmetic of ``tests/oracles.py`` (on plain ``{exponents: Fraction}``
dicts, sharing no code with ``Polynomial``) gives for the same data, in
canonical order, and be equal, with an equal hash, to what the
validating constructor builds from those terms, in plain and doubled
rings alike.  The exponent cap must still be enforced on every product,
since ``buchberger`` turns an overflow into ``BudgetExceeded``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.groebner import BudgetExceeded, buchberger
from liptriv.rings import ExponentOverflow, Polynomial, parse_polynomial
from tests.oracles import reference_product, reference_scale, reference_sum, reference_terms

RINGS = [
    RingContext(("x", "y", "z")),
    RingContext(("x", "y")).doubled_extension(),
]

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(ring, max_terms=6, exponents=st.integers(0, 3)):
    """A polynomial with the reference dict of the terms it was built from."""
    term = st.tuples(st.tuples(*(exponents for _ in range(ring.arity))), coefficients)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: (Polynomial(ring, ts), reference_terms(ts))
    )


def single_terms(ring):
    return polys(ring, max_terms=1).filter(lambda pair: not pair[0].is_zero)


def ring_and(strategy_of_ring, count):
    return st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(*(strategy_of_ring(ring) for _ in range(count)))
    )


def assert_agrees(p: Polynomial, reference: dict) -> None:
    """``p`` holds the terms of ``reference`` in canonical order and equals,
    hash included, the constructor's polynomial of them."""
    keys = [p.ring.sort_key(e) for e, _ in p.terms]
    assert keys == sorted(set(keys), reverse=True)
    assert all(type(c) is Fraction and c for _, c in p.terms)
    assert dict(p.terms) == reference
    expected = Polynomial(p.ring, reference.items())
    assert p == expected
    assert hash(p) == hash(expected)


def negated(reference: dict) -> dict:
    return reference_scale(reference, -1)


@settings(max_examples=300, deadline=None)
@given(ring_and(polys, 2))
def test_merge_sum_matches_constructor(pair):
    (a, ra), (b, rb) = pair
    assert_agrees(a + b, reference_sum(ra, rb))
    assert_agrees(a - b, reference_sum(ra, negated(rb)))


@settings(max_examples=200, deadline=None)
@given(ring_and(polys, 2))
def test_merge_with_shared_monomials(pair):
    # c reuses a's monomials, so the merge meets equal keys and cancellations.
    (a, ra), (b, rb) = pair
    rc = reference_sum(reference_scale(ra, 2), rb)
    c = Polynomial(a.ring, rc.items())
    assert_agrees(a - c, reference_sum(ra, negated(rc)))
    assert_agrees(c + a, reference_sum(rc, ra))


@settings(max_examples=200, deadline=None)
@given(ring_and(polys, 1))
def test_full_cancellation_is_zero(single):
    ((a, _),) = single
    assert (a - a).terms == ()
    assert (a + (-a)).terms == ()
    assert (-a + a).is_zero


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"grevlex-{r.arity}")
def test_x_minus_x(ring):
    x = ring.variable("x")
    assert (x - x).terms == ()
    assert (x - x) == ring.zero()
    assert (x + 1 - x).terms == ring.one().terms


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(polys(r), single_terms(r))))
def test_single_term_shift_matches_constructor(pair):
    (a, ra), (m, rm) = pair
    assert_agrees(a * m, reference_product(ra, rm))
    assert_agrees(m * a, reference_product(ra, rm))


@settings(max_examples=300, deadline=None)
@given(ring_and(polys, 2))
def test_general_product_matches_constructor(pair):
    (a, ra), (b, rb) = pair
    assert_agrees(a * b, reference_product(ra, rb))
    assert_agrees(b * a, reference_product(ra, rb))


@settings(max_examples=200, deadline=None)
@given(ring_and(polys, 1), st.one_of(coefficients, st.integers(-4, 4)))
def test_scalar_product_matches_reference(single, scalar):
    ((a, ra),) = single
    assert_agrees(a * scalar, reference_scale(ra, scalar))
    assert_agrees(scalar * a, reference_scale(ra, scalar))


#: Plain and doubled rings at a small cap and at the default one.
CAP_RINGS = [
    RingContext(("x", "y", "z"), exponent_cap=4),
    RingContext(("x", "y"), exponent_cap=4).doubled_extension(),
    RingContext(("x", "y")),
    RingContext(("t", "x")).doubled_extension(),
]


def at_the_cap(ring):
    cap = ring.exponent_cap
    return polys(ring, max_terms=4, exponents=st.sampled_from((0, 1, cap // 2, cap - 1, cap)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CAP_RINGS).flatmap(lambda r: st.tuples(at_the_cap(r), at_the_cap(r))))
def test_product_at_the_cap_matches_reference(pair):
    # Exponents at the cap and just below it: the product either agrees
    # with the reference or, when a surviving exponent passes the cap,
    # overflows.
    (a, ra), (b, rb) = pair
    expected = reference_product(ra, rb)
    cap = a.ring.exponent_cap
    for left, right in ((a, b), (b, a)):
        if any(max(exps) > cap for exps in expected):
            with pytest.raises(ExponentOverflow):
                left * right
        else:
            assert_agrees(left * right, expected)


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
