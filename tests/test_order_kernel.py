"""Differential tests of the curve search's integer order kernel.

The kernel reads orders of vanishing along monomial arcs without
building pullbacks.  Here it is checked against the replay route,
``pullback_dense``, on random polynomials, and ``closure_test`` is
checked against a reference search built from a brute-force
enumeration of the searched curves and ``pullback_dense`` alone.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext, normal_form, unfolding_double_ideal
from liptriv.curves import (
    ARC_COEFFICIENTS,
    SearchReport,
    Witness,
    closure_test,
    format_curve,
    pullback_dense,
)
from liptriv.curves import _block_leads, _monomial_curve, _OrderKernel, _profiles
from liptriv.doubling import PARAMETER, build_unfolding, direction_double_ideal
from liptriv.groebner import Ideal
from liptriv.rings import Polynomial, parse_polynomial

DXY = RingContext(("x", "y")).doubled_extension()
# t, x, x': the parameter is tied across the pair, both points share it
DTX = RingContext(("t", "x")).doubled_extension()
# The kernel is exact for any rational arc, not only the searched ones.
KERNEL_COEFFICIENTS = (-2, -1, 0, Fraction(1, 2), Fraction(-3, 2), 1, 2)

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
        st.tuples(*(st.sampled_from(KERNEL_COEFFICIENTS) for _ in range(ring.arity)))
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


def reference_curves(ring, max_exponent):
    """The searched stream from its definition, by brute force.

    Every exponent tuple in ``1..max_exponent``, sorted by (weighted
    degree, exponents), each with every pattern of ``ARC_COEFFICIENTS``
    in product order.  On a doubled ring the parameter, which both
    points of a pair share, weighs 2.
    """
    weights = [2 if ring.doubled and v == PARAMETER else 1 for v in ring.variables]
    exponents = sorted(
        itertools.product(range(1, max_exponent + 1), repeat=ring.arity),
        key=lambda exps: (sum(w * e for w, e in zip(weights, exps)), exps),
    )
    for exps in exponents:
        for coeffs in itertools.product(ARC_COEFFICIENTS, repeat=ring.arity):
            yield _monomial_curve(ring, exps, coeffs)


def reference_search(element, ideal, budget, max_exponent):
    """The search as a plain loop over whole curves and dense pullbacks."""
    tried = 0
    best_gap = None
    exhausted = False
    for curve in reference_curves(ideal.ring, max_exponent):
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
    # (family, k, l, direction, max_exponent)
    (3, 2, None, {"b1": 1}, 4),
    (1, 4, 2, {"a3": 1}, 3),
    (1, 4, 2, {"a3": 1}, 2),
    (2, 3, None, {"d1": 1}, 3),
]


@pytest.mark.parametrize("family,k,l,direction,max_exponent", FAMILY_CELLS)
def test_closure_test_matches_reference_search(family, k, l, direction, max_exponent):
    nf = normal_form(family, k=k, l=l)
    u = build_unfolding(nf.matrix, nf.theta(direction))
    ideal = unfolding_double_ideal(u)
    elements = list(direction_double_ideal(u).generators) + [
        parse_polynomial(text, ideal.ring)
        for text in ("x - x'", "x*y - x'*y'", "y^2 - y'^2")
    ]
    # One ideal, several elements and growing budgets: each search
    # starts afresh and leaves the ideal as it found it.
    for budget, element in zip((40, 150, 300, 300), elements):
        got = closure_test(element, ideal, budget, max_exponent)
        assert as_tuple(got) == reference_search(element, ideal, budget, max_exponent)


# The search walks the stream one block (exponent tuple) at a time and
# takes the ideal's order from a single-term lead without evaluating
# any generator.  The tests below compare it with ``reference_search``
# on random ideals in a ring without and with the shared parameter, over
# budgets that stop mid-block, at a block's end and at the stream's
# end, and over repeated calls against one ideal.


@st.composite
def search_cases(draw):
    ring = draw(st.sampled_from([DXY, DTX]))
    polys = poly_strategy(ring, max_exp=2, max_terms=4)
    gens = draw(st.lists(polys, max_size=3))
    # A zero element is answered before any curve is tried.
    elements = draw(
        st.lists(polys.filter(lambda p: not p.is_zero), min_size=1, max_size=3)
    )
    max_exponent = draw(st.integers(1, 2))
    budgets = draw(st.lists(st.integers(1, 70), min_size=1, max_size=3))
    return Ideal(ring, gens or [ring.zero()]), elements, max_exponent, budgets


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_closure_test_matches_reference_on_random_ideals(case):
    ideal, elements, max_exponent, budgets = case
    for element, budget in zip(elements, budgets):
        got = closure_test(element, ideal, budget, max_exponent)
        assert as_tuple(got) == reference_search(element, ideal, budget, max_exponent)


@pytest.mark.parametrize("max_exponent", [1, 2, 3])
@pytest.mark.parametrize("ring", [DXY, DTX], ids=["untied", "tied"])
def test_budget_at_the_end_of_the_stream(ring, max_exponent):
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("x - x'", "x^2 + x'^2")])
    # The element lies in the ideal, so no curve is a witness.
    element = parse_polynomial("x*x' - x'^2 + x^3 + x*x'^2", ring)
    blocks = list(_profiles(ring, max_exponent))
    stream = sum(len(patterns) for _, patterns in blocks)
    block = len(blocks[0][1])
    for budget in (block - 1, block, block + 1, stream - 1, stream, stream + 1):
        got = closure_test(element, ideal, budget, max_exponent)
        assert as_tuple(got) == reference_search(element, ideal, budget, max_exponent)
        assert got.curves_tried == min(budget, stream)
        assert got.budget_exhausted == (budget < stream)


def test_single_term_lead_fixes_the_block():
    # Along the arcs (s, s, s, s) the generator x is the only term of the
    # lowest degree, so it leads the block.  x - x' has two terms there,
    # which cancel along the mirrored patterns, so it leads nothing, and
    # neither does the single term x^2 above it.
    def leads(texts, exps):
        family = [_OrderKernel(parse_polynomial(t, DXY)) for t in texts]
        return _block_leads(family, exps)[:2]

    assert leads(("x", "y^2 - x'^2"), (1, 1, 1, 1)) == (1, True)
    assert leads(("x", "y^2 - x'^2"), (2, 1, 1, 1)) == (2, True)
    assert leads(("x - x'", "y^3"), (1, 1, 1, 1)) == (1, False)
    assert leads(("x^2", "x - x'"), (1, 1, 1, 1)) == (1, False)
    ideal = Ideal(DXY, [parse_polynomial(t, DXY) for t in ("x - x'", "y^3")])
    for text in ("y", "y^2", "x^2 - x*x'"):
        element = parse_polynomial(text, DXY)
        got = closure_test(element, ideal, 500, 2)
        assert as_tuple(got) == reference_search(element, ideal, 500, 2)


def test_enumeration_flattens_the_blocks():
    for ring in (DXY, DTX):
        blocks = list(_profiles(ring, 3))
        assert all(patterns is blocks[0][1] for _, patterns in blocks)
        assert len({exps for exps, _ in blocks}) == len(blocks)
        flat = [
            format_curve(_monomial_curve(ring, exps, coeffs))
            for exps, patterns in blocks
            for coeffs in patterns
        ]
        assert flat == [format_curve(c) for c in reference_curves(ring, 3)]


# A block is settled whole when the ideal has a single-term lead at
# d_min and the element's lowest group is a single term at e0: both
# orders are then the same for every pattern.  Past the first gap the
# element's order is read only below ideal order + best gap.


def traced_search(monkeypatch, element, ideal, budget, max_exponent):
    """``closure_test``'s result, with the element-order reads it made:
    ``(limit, order)`` per curve whose element order was read."""
    reads = []
    built = []
    init, order_at = _OrderKernel.__init__, _OrderKernel.order_at

    def record(kernel, p):
        init(kernel, p)
        built.append(kernel)

    def spy(kernel, index, arc_coeffs, limit=math.inf):
        order = order_at(kernel, index, arc_coeffs, limit)
        # closure_test builds the element's kernel first.
        if kernel is built[0]:
            reads.append((limit, order))
        return order

    monkeypatch.setattr(_OrderKernel, "__init__", record)
    monkeypatch.setattr(_OrderKernel, "order_at", spy)
    result = closure_test(element, ideal, budget, max_exponent)
    monkeypatch.undo()
    assert built[0].terms == _OrderKernel(element).terms
    assert as_tuple(result) == reference_search(element, ideal, budget, max_exponent)
    return result, reads


@pytest.mark.parametrize(
    "ring,generators,element,witness",
    [
        # x and y^3 are single terms; y^2 drops below x once e_x > 2 e_y.
        (DXY, ("x", "y^3"), "y^2", "s^3, s, s, s"),
        # t^3 and x^2 are single terms: every block has a lead.
        (DTX, ("t^3", "x^2"), "t*x'", "s, s^2, s"),
    ],
    ids=["untied", "tied"],
)
def test_settled_block_yields_its_first_pattern(monkeypatch, ring, generators, element, witness):
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in generators])
    element = parse_polynomial(element, ring)
    got, reads = traced_search(monkeypatch, element, ideal, 4000, 3)
    assert isinstance(got, Witness)
    assert format_curve(got.curve) == witness
    # Every block up to the witness was settled: no element order was
    # read, and the witness is its block's first pattern.
    assert reads == []
    first = next(_profiles(ring, 3))[1][0]
    assert [c.coeffs[-1] for c in got.curve.components] == list(first)


def test_exhausted_search_gap_from_settled_and_limited_blocks(monkeypatch):
    # Along e_x != e_y the element's lowest group is one term and the
    # block is settled (gap min(e_x, e_y)); along e_x == e_y it is
    # x^3 + y^3, which never cancels for positive arc coefficients, so
    # its order is read, below the limit once best_gap is known.
    ideal = Ideal(DXY, [parse_polynomial(t, DXY) for t in ("x^2", "y^2")])
    element = parse_polynomial("x^3 + y^3", DXY)
    got, reads = traced_search(monkeypatch, element, ideal, 200, 2)
    assert isinstance(got, SearchReport)
    assert got.budget_exhausted and got.curves_tried == 200 and got.best_gap == 1
    assert 0 < len(reads) < got.curves_tried
    assert any(order == limit < math.inf for limit, order in reads)


def test_proven_catalog_cell_matches_reference(monkeypatch):
    # Family 1, k=1, l=4, b2=1 is proven Lipschitz; the audited table
    # sweeps its whole curve budget.  Here a budget of 600 is compared.
    nf = normal_form(1, k=1, l=4)
    u = build_unfolding(nf.matrix, nf.theta({"b2": 1}))
    ideal = unfolding_double_ideal(u)
    for element in direction_double_ideal(u).generators:
        got, reads = traced_search(monkeypatch, element, ideal, 600, nf.max_exponent)
        assert isinstance(got, SearchReport) and got.curves_tried == 600
        # Both kinds of block occur: settled ones read no element order,
        # and most of the others stop at the limit.
        assert 0 < len(reads) < got.curves_tried
        assert any(order == limit < math.inf for limit, order in reads)
