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
from liptriv.curves import _levels, _monomial_curve, _OrderKernel, _profiles
from liptriv.doubling import PARAMETER, build_unfolding, direction_double_ideal
from liptriv.groebner import Ideal
from liptriv.rings import Polynomial, parse_polynomial
from tests.oracles import half_ring

DXY = RingContext(("x", "y")).doubled_extension()
# t, x, x': the parameter is tied across the pair, both points share it
DTX = RingContext(("t", "x")).doubled_extension()
# A ring that is not doubled has no mirrors: every exponent tuple is searched.
XY = RingContext(("x", "y"))
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


def plain_mask(patterns):
    """The patterns without a zero coefficient, along which no single
    term vanishes."""
    return sum(1 << i for i, coeffs in enumerate(patterns) if all(coeffs))


def kernel_orders(p, exps, patterns, asks, drop=None):
    """The kernel's order along each pattern, read from the level sets
    of one block over the given masks in turn (later masks reuse what
    earlier ones evaluated).  With ``drop``, degrees from ``drop`` on
    are not read, and a pattern whose order is not read gets ``drop``."""
    kernel = _OrderKernel(p, patterns, plain_mask(patterns))
    groups = [(d, kernel, m) for d, m in kernel.enter(exps)]
    orders = {}
    for ask in asks:
        drops = [] if drop is None else [(drop, ask)]
        levels, rest = _levels(groups, ask, drops)
        for i in range(len(patterns)):
            if ask >> i & 1:
                reached = [d for d, mask in levels if mask >> i & 1]
                assert len(reached) <= 1 and not (reached and rest >> i & 1)
                if reached:
                    orders[i] = reached[0]
                else:
                    orders[i] = math.inf if rest >> i & 1 else drop
    return [orders[i] for i in range(len(patterns))]


patterns_strategy = st.lists(
    st.tuples(*(st.sampled_from(KERNEL_COEFFICIENTS) for _ in range(DXY.arity))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(poly_strategy(DXY), profiles(), patterns_strategy, st.integers(0, 12), st.data())
def test_kernel_order_matches_dense_pullback(p, profile, patterns, drop, data):
    # Per-pattern orders read from the level sets, on arcs with zero,
    # negative and fractional coefficients, over one mask or two.
    exps, coeffs = profile
    patterns = [coeffs] + patterns
    full = (1 << len(patterns)) - 1
    part = data.draw(st.integers(0, full))
    expected = [dense_order(p, exps, c) for c in patterns]
    assert kernel_orders(p, exps, patterns, [full]) == expected
    assert kernel_orders(p, exps, patterns, [part, full]) == expected
    # An order the drop cuts off is not read: it reads as the drop, or
    # as infinite when no group reaches it.
    dropped = kernel_orders(p, exps, patterns, [full], drop)
    for got, order in zip(dropped, expected):
        assert got == order if order < drop else got in (drop, math.inf)


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
    assert kernel_orders(p, exps, [coeffs], [1]) == [dense_order(p, exps, coeffs)]
    assert kernel_orders(p, exps[:2] * 2, [coeffs[:2] * 2], [1]) == [math.inf]


def reference_exponents(ring, max_exponent):
    """The searched exponent tuples from their definition, by brute force.

    Every tuple in ``1..max_exponent`` over the half variables, sorted
    by (sum, exponents) and copied onto the mirrors by name; on a ring
    that is not doubled, every tuple over all variables.
    """
    names = half_ring(ring).variables if ring.doubled else ring.variables
    for half in sorted(
        itertools.product(range(1, max_exponent + 1), repeat=len(names)),
        key=lambda exps: (sum(exps), exps),
    ):
        by_name = dict(zip(names, half))
        by_name.update((v + "'", e) for v, e in zip(names, half) if v != PARAMETER)
        yield tuple(by_name[v] for v in ring.variables)


def unpaired_exponents(ring, max_exponent):
    """Every exponent tuple over all variables, sorted by (weighted
    degree, exponents), where on a doubled ring the parameter, which
    both points of a pair share, weighs 2: the stream before arcs were
    paired."""
    weights = [2 if ring.doubled and v == PARAMETER else 1 for v in ring.variables]
    return sorted(
        itertools.product(range(1, max_exponent + 1), repeat=ring.arity),
        key=lambda exps: (sum(w * e for w, e in zip(weights, exps)), exps),
    )


def reference_curves(ring, max_exponent):
    """The searched stream: each reference exponent tuple with every
    pattern of ``ARC_COEFFICIENTS`` in product order."""
    for exps in reference_exponents(ring, max_exponent):
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
def test_budget_at_the_end_of_the_stream(monkeypatch, ring, max_exponent):
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in ("x - x'", "x^2 + x'^2")])
    # The element lies in the ideal, so no curve is a witness.
    element = parse_polynomial("x*x' - x'^2 + x^3 + x*x'^2", ring)
    blocks = list(_profiles(ring, max_exponent))
    stream = sum(len(patterns) for _, patterns in blocks)
    block = len(blocks[0][1])
    built, entered = [], []
    init, enter = _OrderKernel.__init__, _OrderKernel.enter

    def spy_init(kernel, *args):
        built.append(kernel)
        init(kernel, *args)

    def spy_enter(kernel, exps):
        entered.append(exps)
        return enter(kernel, exps)

    monkeypatch.setattr(_OrderKernel, "__init__", spy_init)
    monkeypatch.setattr(_OrderKernel, "enter", spy_enter)
    for budget in (0, block - 1, block, block + 1, stream - 1, stream, stream + 1):
        built.clear()
        entered.clear()
        got = closure_test(element, ideal, budget, max_exponent)
        assert as_tuple(got) == reference_search(element, ideal, budget, max_exponent)
        assert got.curves_tried == min(budget, stream)
        assert got.budget_exhausted == (budget < stream)
        # Kernels (the element's and two generators') are built only
        # when a curve is tried, and each enters only the blocks that
        # hold a tried curve: a budget that ends on a block boundary
        # groups nothing of the next block.
        assert len(built) == (3 if budget else 0)
        assert len(entered) == 3 * -(-min(budget, stream) // block)


def test_ideal_sweep_covers_the_block_from_the_lowest_degree():
    # Along the arcs (s, s, s, s) the single term x covers every pattern
    # at degree 1 before any value is read; x - x' covers only the
    # patterns where the arcs of x and x' differ, and y^3 the rest.
    exps, patterns = next(_profiles(DXY, 2))
    full = (1 << len(patterns)) - 1
    # The search takes every pattern as plain: ARC_COEFFICIENTS are nonzero.
    assert plain_mask(patterns) == full

    def sweep(texts):
        family = [_OrderKernel(parse_polynomial(t, DXY), patterns, full) for t in texts]
        groups = sorted(
            ((d, kernel, m) for kernel in family for d, m in kernel.enter(exps)),
            key=lambda group: group[0],
        )
        return _levels(groups, full), family

    (levels, rest), family = sweep(("x", "y^2 - x'^2"))
    assert levels == [(1, full)] and rest == 0
    assert all(values is None for kernel in family for values in kernel._values)
    (levels, rest), _ = sweep(("x - x'", "y^3"))
    differ = sum(1 << i for i, coeffs in enumerate(patterns) if coeffs[0] != coeffs[2])
    assert levels == [(1, differ), (3, full ^ differ)] and rest == 0


def test_enumeration_flattens_the_blocks():
    for ring in (DXY, DTX, XY):
        blocks = list(_profiles(ring, 3))
        assert all(patterns is blocks[0][1] for _, patterns in blocks)
        assert len({exps for exps, _ in blocks}) == len(blocks)
        flat = [
            format_curve(_monomial_curve(ring, exps, coeffs))
            for exps, patterns in blocks
            for coeffs in patterns
        ]
        assert flat == [format_curve(c) for c in reference_curves(ring, 3)]


@pytest.mark.parametrize("max_exponent", [1, 2, 3, 4])
def test_doubled_blocks_pair_each_variable_with_its_mirror(max_exponent):
    for ring in (DXY, DTX, RingContext(("t", "x", "y")).doubled_extension()):
        mirrors = ring.mirror_indices()
        blocks = [exps for exps, _ in _profiles(ring, max_exponent)]
        assert len(blocks) == max_exponent ** len(mirrors)
        assert all(exps[m] == exps[i] for exps in blocks for i, m in enumerate(mirrors))


@pytest.mark.parametrize("max_exponent", [1, 2, 3])
def test_paired_blocks_keep_the_unpaired_order(max_exponent):
    # The paired tuples come in the order the unpaired stream gave them,
    # so a witness that stream found first on a paired arc is still the
    # first witness.  A ring that is not doubled keeps that stream whole.
    for ring in (DXY, DTX, XY):
        paired = set(reference_exponents(ring, max_exponent))
        kept = [e for e in unpaired_exponents(ring, max_exponent) if e in paired]
        assert kept == [exps for exps, _ in _profiles(ring, max_exponent)]


# Whether a group of terms cancels depends on the pattern alone, so a
# kernel evaluates each of its groups at most once per pattern, over
# the whole search; a single term needs no value along the searched
# arcs, whose coefficients are nonzero.  The first block is decided in
# windows of 1, 1, 2, 4, ... patterns, so a witness early in the
# stream values no pattern after it.


def traced_search(monkeypatch, element, ideal, budget, max_exponent):
    """``closure_test``'s result, checked against ``reference_search``,
    with the valuations it made: ``(kernel, members, pattern index)``
    for each group evaluated at a pattern."""
    valued = []
    asking = []
    live, values_at = _OrderKernel.live, _OrderKernel.values_at

    def spy_live(kernel, members, ask):
        asking.append(members)
        try:
            return live(kernel, members, ask)
        finally:
            asking.pop()

    def spy_values(kernel, index):
        valued.append((kernel, asking[-1], index))
        return values_at(kernel, index)

    monkeypatch.setattr(_OrderKernel, "live", spy_live)
    monkeypatch.setattr(_OrderKernel, "values_at", spy_values)
    result = closure_test(element, ideal, budget, max_exponent)
    monkeypatch.undo()
    assert as_tuple(result) == reference_search(element, ideal, budget, max_exponent)
    return result, valued


def assert_valued_once(valued):
    keys = [(id(kernel), members, index) for kernel, members, index in valued]
    assert len(keys) == len(set(keys))
    assert all(len(members) > 1 for _, members, _ in valued)


@settings(max_examples=60, deadline=None)
@given(search_cases())
def test_each_group_is_valued_once_per_pattern(case):
    ideal, elements, max_exponent, budgets = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        for element, budget in zip(elements, budgets):
            _, valued = traced_search(monkeypatch, element, ideal, budget, max_exponent)
            assert_valued_once(valued)


@pytest.mark.parametrize(
    "ring,generators,element,witness",
    [
        # x^2 - x'^2 cancels along both patterns; y - y' along the first.
        (DXY, ("x^2 - x'^2", "y^3"), "y - y'", "s, s, s, 2*s"),
        # t is its own mirror; x - x' cancels along the first pattern.
        (DTX, ("t^2", "x^2 - x'^2"), "x - x'", "s, s, 2*s"),
    ],
    ids=["untied", "tied"],
)
def test_witness_at_second_pattern_values_two_patterns(
    monkeypatch, ring, generators, element, witness
):
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in generators])
    element = parse_polynomial(element, ring)
    got, valued = traced_search(monkeypatch, element, ideal, 4000, 3)
    assert isinstance(got, Witness)
    assert format_curve(got.curve) == witness
    exps, patterns = next(_profiles(ring, 3))
    assert got.curve == _monomial_curve(ring, exps, patterns[1])
    indices = {}
    for kernel, _, index in valued:
        indices.setdefault(id(kernel), set()).add(index)
    assert indices and all(seen <= {0, 1} for seen in indices.values())


def test_proven_catalog_cell_matches_reference(monkeypatch):
    # Family 1, k=1, l=4, b2=1 is proven Lipschitz; the audited table
    # sweeps its whole curve budget.  Here a budget of 600 is compared.
    nf = normal_form(1, k=1, l=4)
    u = build_unfolding(nf.matrix, nf.theta({"b2": 1}))
    ideal = unfolding_double_ideal(u)
    for element in direction_double_ideal(u).generators:
        got, valued = traced_search(monkeypatch, element, ideal, 600, nf.max_exponent)
        assert isinstance(got, SearchReport) and got.curves_tried == 600
        # Some groups cancel along some patterns, so values are read,
        # but each group at each pattern once.
        assert valued
        assert_valued_once(valued)
