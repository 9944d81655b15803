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
from liptriv.curves import _block_leads, _monomial_curve, _OrderKernel, _profiles
from liptriv.doubling import build_unfolding, direction_double_ideal
from liptriv.groebner import Ideal
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


def kernel_order(p, exps, coeffs, limit=math.inf):
    """The kernel's order along one curve: a one-pattern block."""
    kernel = _OrderKernel(p)
    kernel.enter(exps)
    return kernel.order_at(0, coeffs, limit)


@settings(max_examples=300, deadline=None)
@given(poly_strategy(DXY), profiles(), st.integers(0, 12))
def test_kernel_order_matches_dense_pullback(p, profile, limit):
    exps, coeffs = profile
    expected = dense_order(p, exps, coeffs)
    assert kernel_order(p, exps, coeffs) == expected
    assert kernel_order(p, exps, coeffs, limit) == min(expected, limit)


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
    assert kernel_order(p, exps, coeffs) == dense_order(p, exps, coeffs)
    assert kernel_order(p, exps[:2] * 2, coeffs[:2] * 2) is math.inf


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
    # One ideal, several elements and growing budgets: each search
    # starts afresh and leaves the ideal as it found it.
    for budget, element in zip((40, 150, 300, 300), elements):
        got = closure_test(element, ideal, budget=budget, config=config)
        assert as_tuple(got) == reference_search(element, ideal, budget, config)


# The search walks the stream one block (exponent tuple) at a time and
# may skip generators where a single-term lead fixes the ideal's order.
# The tests below compare it with ``reference_search`` on random ideals,
# over budgets that stop mid-block, at a block's end and at the stream's
# end, and over repeated calls against one ideal.

ideal_generators = st.lists(poly_strategy(DXY, max_exp=2, max_terms=4), max_size=3)
configs = st.builds(
    CurveSearchConfig,
    max_exponent=st.integers(1, 2),
    coefficients=st.lists(
        st.sampled_from(ARC_COEFFICIENTS), min_size=1, max_size=3, unique=True
    ),
    parameter=st.sampled_from([None, "x"]),
)


@settings(max_examples=150, deadline=None)
@given(
    ideal_generators,
    # A zero element is answered before any curve is tried.
    st.lists(
        poly_strategy(DXY, max_exp=2, max_terms=4).filter(lambda p: not p.is_zero),
        min_size=1,
        max_size=3,
    ),
    configs,
    st.lists(st.integers(1, 70), min_size=1, max_size=3),
)
def test_closure_test_matches_reference_on_random_ideals(gens, elements, config, budgets):
    ideal = Ideal(DXY, gens or [DXY.zero()])
    for element, budget in zip(elements, budgets):
        got = closure_test(element, ideal, budget=budget, config=config)
        assert as_tuple(got) == reference_search(element, ideal, budget, config)


@pytest.mark.parametrize("parameter", [None, "x"])
@pytest.mark.parametrize("coefficients", [(1,), (1, -1), (0, Fraction(1, 2))])
def test_budget_at_the_end_of_the_stream(parameter, coefficients):
    config = CurveSearchConfig(
        max_exponent=2, coefficients=coefficients, parameter=parameter
    )
    ideal = Ideal(DXY, [parse_polynomial(t, DXY) for t in ("x - x'", "y^2 - y'^2")])
    # The element lies in the ideal, so no curve is a witness.
    element = parse_polynomial("x*y - x'*y + x*y^2 - x*y'^2", DXY)
    blocks = list(_profiles(DXY, config))
    stream = sum(len(patterns) for _, patterns in blocks)
    block = len(blocks[0][1])
    for budget in (block - 1 or 1, block, block + 1, stream - 1, stream, stream + 1):
        got = closure_test(element, ideal, budget=budget, config=config)
        assert as_tuple(got) == reference_search(element, ideal, budget, config)
        assert got.curves_tried == min(budget, stream)
        assert got.budget_exhausted == (budget < stream)


def test_zero_arc_coefficient_voids_the_lead():
    # Along the arcs (s, s, s, s) the generator x is the only term of the
    # lowest degree, so it leads the block; a zero x-coefficient kills
    # it, and the ideal's order comes from y^2 - x'^2 instead.
    ideal = Ideal(DXY, [parse_polynomial(t, DXY) for t in ("x", "y^2 - x'^2")])
    family = [_OrderKernel(g) for g in ideal.generators]
    d_min, leads, _ = _block_leads(family, (1, 1, 1, 1))
    assert d_min == 1 and [k for k, _ in leads] == family[:1]
    config = CurveSearchConfig(max_exponent=2, coefficients=(0, 1, 2))
    budget = 2000
    for text in ("x*y + y^2 - x'^2", "y'", "y"):
        element = parse_polynomial(text, DXY)
        got = closure_test(element, ideal, budget=budget, config=config)
        assert as_tuple(got) == reference_search(element, ideal, budget, config)
    # y first drops below the ideal where the lead is voided: order 1
    # against the ideal's 2, which reading the lead as d_min would hide.
    assert format_curve(got.curve) == "0, s, 0, 0"
    assert (got.element_order, got.generator_orders) == (1, (math.inf, 2))


def test_enumeration_flattens_the_blocks():
    for parameter in (None, "x"):
        config = CurveSearchConfig(
            max_exponent=3, coefficients=(1, 0, -1), parameter=parameter
        )
        blocks = list(_profiles(DXY, config))
        assert all(patterns is blocks[0][1] for _, patterns in blocks)
        assert len({exps for exps, _ in blocks}) == len(blocks)
        flat = [
            format_curve(_monomial_curve(DXY, exps, coeffs))
            for exps, patterns in blocks
            for coeffs in patterns
        ]
        assert flat == [format_curve(c) for c in enumerate_test_curves(DXY, config)]
