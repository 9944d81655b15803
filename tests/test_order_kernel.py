"""Differential tests of the curve search's integer order kernel.

The kernel reads orders of vanishing along monomial arcs without
building pullbacks.  Here it is checked against the replay route,
``pullback_dense``, on random polynomials, and ``closure_test`` is
checked against a reference search built from ``enumerate_test_curves``
and ``pullback_dense`` alone.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext, normal_form, unfolding_double_ideal
from liptriv.curves import (
    CurveSearchConfig,
    SearchReport,
    Witness,
    closure_test,
    enumerate_test_curves,
    format_curve,
    pullback_dense,
)
from liptriv.curves import _monomial_curve, _OrderKernel
from liptriv.doubling import build_unfolding, direction_double_ideal
from liptriv.rings import Polynomial, parse_polynomial

DXY = RingContext(("x", "y")).doubled_extension()
ARC_COEFFICIENTS = (-2, -1, 0, Fraction(1, 2), Fraction(-3, 2), 1, 2)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def poly_strategy(ring, max_exp=3, max_terms=5):
    term = st.tuples(
        st.tuples(*(st.integers(0, max_exp) for _ in range(ring.arity))),
        fractions,
    )
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


@st.composite
def profiles(draw, ring=DXY, max_exp=3):
    """Arc exponents and coefficients, sometimes mirrored across the
    doubled copies so that differences pull back with cancellation."""
    exps = draw(st.tuples(*(st.integers(1, max_exp) for _ in range(ring.arity))))
    coeffs = draw(
        st.tuples(*(st.sampled_from(ARC_COEFFICIENTS) for _ in range(ring.arity)))
    )
    if draw(st.booleans()):
        half = ring.arity // 2
        exps = exps[:half] * 2
        coeffs = coeffs[:half] * 2
    return exps, coeffs


def dense_order(p, exps, coeffs):
    return pullback_dense(p, _monomial_curve(p.ring, exps, coeffs)).order_of_vanishing()


@settings(max_examples=300, deadline=None)
@given(poly_strategy(DXY), profiles(), st.integers(0, 12))
def test_kernel_order_matches_dense_pullback(p, profile, limit):
    exps, coeffs = profile
    kernel = _OrderKernel(p)
    expected = dense_order(p, exps, coeffs)
    assert kernel.order(exps, coeffs) == expected
    assert kernel.order(exps, coeffs, limit) == min(expected, limit)


@settings(max_examples=200, deadline=None)
@given(poly_strategy(RingContext(("x", "y"))), profiles())
def test_kernel_sees_cancellation_of_differences(q, profile):
    # q(x, y) - q(x', y') vanishes identically along a mirrored profile.
    p = Polynomial(
        DXY,
        [(e + (0,) * 2, c) for e, c in q.terms]
        + [((0,) * 2 + e, -c) for e, c in q.terms],
    )
    exps, coeffs = profile
    assert _OrderKernel(p).order(exps, coeffs) == dense_order(p, exps, coeffs)
    assert _OrderKernel(p).order(exps[:2] * 2, coeffs[:2] * 2) is math.inf


def reference_search(element, ideal, budget, config):
    """The search as a plain loop over whole curves and dense pullbacks."""
    tried = 0
    best_gap = None
    exhausted = False
    for curve in enumerate_test_curves(ideal.ring, config):
        if tried >= budget:
            exhausted = True
            break
        tried += 1
        ideal_order = min(
            (pullback_dense(g, curve).order_of_vanishing() for g in ideal.generators),
            default=math.inf,
        )
        element_order = pullback_dense(element, curve).order_of_vanishing()
        if element_order < ideal_order:
            return ("witness", format_curve(curve), element_order, ideal_order)
        if element_order is not math.inf and ideal_order is not math.inf:
            gap = element_order - ideal_order
            if best_gap is None or gap < best_gap:
                best_gap = gap
    return ("report", tried, exhausted, best_gap)


def as_tuple(result):
    if isinstance(result, Witness):
        return (
            "witness",
            format_curve(result.curve),
            result.element_order,
            result.ideal_order,
        )
    assert isinstance(result, SearchReport)
    return ("report", result.curves_tried, result.budget_exhausted, result.best_gap)


FAMILY_CELLS = [
    # (family, k, l, direction, max_exponent, coefficients)
    (3, 2, None, {"b1": 1}, 4, (1, 2)),
    (1, 4, 2, {"a3": 1}, 3, (1, 2)),
    (1, 4, 2, {"a3": 1}, 2, (1, -1)),
    (2, 3, None, {"d1": 1}, 3, (1, Fraction(1, 2), 0)),
]


@pytest.mark.parametrize("family,k,l,direction,max_exponent,coefficients", FAMILY_CELLS)
def test_closure_test_matches_reference_search(
    family, k, l, direction, max_exponent, coefficients
):
    nf = normal_form(family, k=k, l=l)
    u = build_unfolding(nf.matrix, nf.theta(direction))
    ideal = unfolding_double_ideal(u)
    config = CurveSearchConfig(
        max_exponent=max_exponent, coefficients=coefficients, parameter="t"
    )
    elements = list(direction_double_ideal(u).generators) + [
        parse_polynomial(text, ideal.ring)
        for text in ("x - x'", "x*y - x'*y'", "y^2 - y'^2")
    ]
    # Budgets grow from call to call, so later calls both reuse the
    # ideal's cached orders and extend them.
    for budget, element in zip((40, 150, 300, 300), elements):
        got = closure_test(element, ideal, budget=budget, config=config)
        assert as_tuple(got) == reference_search(element, ideal, budget, config)
