"""``curves.pullback_dense`` and ``curves.pullback`` against the
``Fraction`` replay they replaced.

``pullback_dense`` lifts integral coefficients to ints and multiplies
powers from a per-call table; ``pullback``'s monomial fast path sums
int values by degree.  ``tests.oracles.reference_pullback_dense``
multiplies every arc in one at a time with a schoolbook ``Fraction``
product.  On random rational polynomials of a doubled ring, along arcs
that are rational, monomial, non-monomial or zero, all three must give
the same pullback, and both library paths must return ``Fraction``
coefficients.  ``UnivariatePoly`` products, which now accumulate in the
operands' own exact type through a trusted constructor, must equal the
schoolbook product.
"""

import ast
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv import curves as curves_module
from liptriv.curves import TestCurve as Curve
from liptriv.curves import pullback, pullback_dense
from liptriv.rings import (
    ExponentOverflow,
    Polynomial,
    UnivariatePoly,
    format_polynomial,
    format_univariate,
    parse_univariate,
)
from tests.oracles import reference_pullback_dense, reference_univariate_mul

RING = RingContext(("t", "x", "y")).doubled_extension()

# Integers and proper fractions, so both the int and the Fraction
# branches of the lift are drawn.
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(ring, max_exp=3, max_terms=5):
    term = st.tuples(
        st.tuples(*(st.integers(0, max_exp) for _ in range(ring.arity))),
        coefficients,
    )
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


# Arcs vanishing at the origin: zero, a rational monomial, or a general
# rational polynomial (non-monomial most of the time).
zero_arc = st.just(UnivariatePoly.zero())
monomial_arc = st.builds(
    UnivariatePoly.monomial, coefficients.filter(bool), st.integers(1, 3)
)
general_arc = st.lists(coefficients, min_size=1, max_size=4).map(
    lambda cs: UnivariatePoly([0, *cs])
)
any_arc = st.one_of(zero_arc, monomial_arc, general_arc)


def curves(ring, arc):
    return st.tuples(*(arc for _ in range(ring.arity))).map(
        lambda comps: Curve(ring, comps)
    )


univariates = st.lists(coefficients, max_size=6).map(UnivariatePoly)


def all_fractions(u):
    return all(type(c) is Fraction for c in u.coeffs)


@settings(max_examples=300, deadline=None)
@given(polys(RING), curves(RING, any_arc))
def test_dense_and_pullback_match_reference(p, curve):
    expected = reference_pullback_dense(p, curve)
    for got in (pullback_dense(p, curve), pullback(p, curve)):
        assert got == expected
        assert all_fractions(got)


@settings(max_examples=300, deadline=None)
@given(polys(RING), curves(RING, st.one_of(zero_arc, monomial_arc)))
def test_monomial_fast_path_matches_reference(p, curve):
    got = pullback(p, curve)
    assert got == reference_pullback_dense(p, curve)
    assert all_fractions(got)


@settings(max_examples=300, deadline=None)
@given(univariates, univariates)
def test_product_matches_schoolbook(a, b):
    product = a * b
    assert product == reference_univariate_mul(a, b)
    assert product.coeffs == () or product.coeffs[-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficients, max_size=70).map(UnivariatePoly))
def test_arc_text_matches_validating_polynomial(u):
    # the parent's rendering: a fresh ring with room for every degree
    ring = RingContext(("s",), exponent_cap=max(64, len(u.coeffs)))
    text = format_polynomial(Polynomial(ring, [((i,), c) for i, c in enumerate(u.coeffs)]))
    assert format_univariate(u) == text
    if u.degree() <= 64:
        assert parse_univariate(text) == u


def test_arc_past_the_cap_prints_but_does_not_parse():
    arc = UnivariatePoly.monomial(2, 65)
    assert format_univariate(arc) == "2*s^65"
    with pytest.raises(ExponentOverflow):
        parse_univariate("2*s^65")


def test_dense_replay_names_none_of_the_code_it_replays():
    tree = ast.parse(inspect.getsource(pullback_dense))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    replayed = {"pullback", "pullback_ideal", "_OrderKernel", "_integer_terms"}
    assert all(hasattr(curves_module, name) for name in replayed)
    assert not names & replayed
