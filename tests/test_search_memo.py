"""The curve search's two memos give the answers of a fresh computation.

Every search of one (mirror map, ``max_exponent``) stream reads one shared
list of exponent tuples, grown lazily as far as some search has read;
and each order kernel keeps its degree groupings, from its second block
on, under the block's exponents on the variables its terms use.  The
tests below check both memos against fresh computations, cold and warm,
and check that the shared streams stay bounded.
"""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext, curves, normal_form, unfolding_double_ideal
from liptriv.curves import SearchReport, _OrderKernel, _profiles, closure_test
from liptriv.doubling import build_unfolding, direction_double_ideal
from liptriv.groebner import Ideal
from liptriv.rings import Polynomial, parse_polynomial
from tests.test_order_kernel import (
    DTX,
    DXY,
    as_tuple,
    poly_strategy,
    reference_exponents,
    reference_search,
)

# Four pairs of mirrored variables: 5^4 paired exponent tuples at cap 5.
DWXYZ = RingContext(("w", "x", "y", "z")).doubled_extension()


@pytest.fixture
def cold(monkeypatch):
    """No shared stream at the start; the module's streams come back after."""
    streams = {}
    monkeypatch.setattr(curves, "_STREAMS", streams)
    return streams


def ideal_of(ring, texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


def catalog_case():
    # Family 1, k=1, l=4, b2=1 is proven Lipschitz: no curve is a witness.
    nf = normal_form(1, k=1, l=4)
    u = build_unfolding(nf.matrix, nf.theta({"b2": 1}))
    return unfolding_double_ideal(u), list(direction_double_ideal(u).generators)


def test_interleaved_searches_match_the_reference(cold):
    # Searches on three rings and two exponent caps, with growing
    # budgets, so that each search reads a stream that others have
    # grown, and most read past where the last one on it stopped.
    catalog, directions = catalog_case()
    cases = {
        "dxy": (ideal_of(DXY, ("x - x'", "y^2 - y'^2")), ("x^2 - x'^2", "y - y'")),
        "dtx": (ideal_of(DTX, ("t^2", "x^2 - x'^2")), ("t*x - t*x'", "x - x'")),
    }
    cases = {
        name: (ideal, [parse_polynomial(t, ideal.ring) for t in texts])
        for name, (ideal, texts) in cases.items()
    }
    cases["catalog"] = (catalog, directions)
    schedule = [
        ("dxy", 2, 10), ("catalog", 3, 25), ("dtx", 3, 7), ("dxy", 3, 40),
        ("catalog", 3, 33), ("dtx", 2, 30), ("dxy", 2, 70), ("catalog", 3, 200),
        ("dtx", 3, 100), ("dxy", 3, 300), ("catalog", 2, 64), ("dtx", 3, 5),
    ]
    for step, (name, max_exponent, budget) in enumerate(schedule):
        ideal, elements = cases[name]
        element = elements[step % len(elements)]
        got = closure_test(element, ideal, budget, max_exponent)
        assert as_tuple(got) == reference_search(element, ideal, budget, max_exponent)
    # Three rings' mirror maps times two caps, every stream that was searched.
    assert len(cold) == 6


# -- the grouping memo ------------------------------------------------------


@st.composite
def restricted_polys(draw, ring=DXY):
    """Random polynomials on a random subset of the ring's variables."""
    used = draw(st.tuples(*(st.booleans() for _ in range(ring.arity))))
    p = draw(poly_strategy(ring))
    return Polynomial(
        ring, [(tuple(e * u for e, u in zip(exps, used)), c) for exps, c in p.terms]
    )


# Blocks drawn from a small pool repeat their exponents on every subset
# of the variables, so memo hits are common.
block_sequences = st.lists(
    st.tuples(*(st.integers(1, 3) for _ in range(DXY.arity))), min_size=1, max_size=5
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))

FIXED_KERNELS = [
    "x*y*x'*y' + 2*x^2 - y'",  # uses every variable: keeps no groupings
    "3",  # a constant: its key is empty
    "y'^2 - 2*y'",  # one variable: its key has one entry
]


@settings(max_examples=200, deadline=None)
@given(st.lists(restricted_polys(), max_size=3), block_sequences)
def test_grouping_memo_equals_a_fresh_grouping(polys, blocks):
    patterns = list(itertools.product((1, 2), repeat=DXY.arity))
    plain = (1 << len(patterns)) - 1
    polys = polys + [parse_polynomial(t, DXY) for t in FIXED_KERNELS]
    for p in polys:
        kernel = _OrderKernel(p, patterns, plain)
        for exps in blocks:
            # A fresh kernel's first block is grouped without the memo.
            fresh = _OrderKernel(p, patterns, plain).enter(exps)
            assert kernel.enter(exps) == fresh
        used = [any(e[i] for e, _ in p.terms) for i in range(DXY.arity)]
        if all(used) or len(blocks) == 1:
            assert kernel._grouped is None
        else:
            # One grouping per distinct key, from the second block on.
            keys = {tuple(e for e, u in zip(exps, used) if u) for exps in blocks[1:]}
            assert len(kernel._grouped) == len(keys)


# -- bounds -------------------------------------------------------------------


def test_streams_are_bounded(cold):
    # DXY and DTX mirror their variables differently, so each cap gives
    # two streams: more than the bound, which keeps the latest.
    searched = []
    for max_exponent in range(1, 7):
        for ring in (DXY, DTX):
            ideal = ideal_of(ring, ("x - x'",))
            report = closure_test(parse_polynomial("x^2 - x'^2", ring), ideal, 40, max_exponent)
            assert isinstance(report, SearchReport)
            assert len(cold) <= curves._STREAM_LIMIT
            searched.append(max_exponent)
    assert len(cold) == curves._STREAM_LIMIT == 8
    assert sorted(key[1] for key in cold) == searched[-curves._STREAM_LIMIT :]
    # The streams hold exponent tuples and patterns: nothing of the
    # polynomials or rings searched.
    for stream in cold.values():
        assert all(type(e) is int for exps in stream.blocks for e in exps)
        assert all(type(c) is int for p in stream.patterns for c in p)


@pytest.mark.parametrize(
    "budget,stored",
    [
        (25, 1),  # the analyzer's prefix search
        (32, 2),  # one block, and the next to tell that the budget ran out
        (33, 2),
        (64, 3),
    ],
)
def test_a_stream_grows_only_as_far_as_read(cold, budget, stored):
    catalog, directions = catalog_case()
    report = closure_test(directions[0], catalog, budget, 4)
    assert report.curves_tried == budget and report.budget_exhausted
    (stream,) = cold.values()
    assert len(stream.patterns) == 32
    assert len(stream.blocks) == stored


def test_threads_share_a_stream(cold):
    # More threads than cores start together on one cold stream and
    # switch as often as the interpreter allows: a block generated
    # twice, lost or stored out of order would change some thread's
    # walk, and two threads generating at once would raise.
    expected = [exps for exps, _ in _profiles(DWXYZ, 5)]
    assert expected == list(reference_exponents(DWXYZ, 5))
    assert len(expected) == 5**4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            cold.clear()
            start = threading.Barrier(6)
            walks = []

            def walk():
                start.wait(timeout=60)
                walks.append([exps for exps, _ in _profiles(DWXYZ, 5)])

            threads = [threading.Thread(target=walk) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert walks == [expected] * len(threads)
    finally:
        sys.setswitchinterval(interval)
