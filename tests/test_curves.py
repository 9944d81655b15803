"""Arc pullbacks, vanishing orders, witness search, closure testing."""

import itertools
import math

import pytest

from liptriv import RingContext, normal_form
from liptriv.curves import (
    ARC_COEFFICIENTS,
    Witness,
    closure_test,
    format_curve,
    parse_curve,
    pullback,
    pullback_dense,
    pullback_ideal,
)
from liptriv.curves import _monomial_curve, _profiles
from liptriv.groebner import Ideal
from liptriv.rings import RingError, parse_polynomial

DXY = RingContext(("x", "y")).doubled_extension()
DTX = RingContext(("t", "x")).doubled_extension()


def poly(text, ring=DXY):
    return parse_polynomial(text, ring)


class TestParseAndPullback:
    def test_roundtrip(self):
        curve = parse_curve("s,2s^2,2s,s^2,s", RingContext(("t", "x", "y")).doubled_extension())
        assert format_curve(curve) == "s, 2*s^2, 2*s, s^2, s"

    def test_component_count_must_match_ring(self):
        with pytest.raises(Exception):
            parse_curve("s,s", DXY)

    def test_pullback_substitutes_arcs(self):
        curve = parse_curve("s^2,2s,s^2,s", DXY)
        image = pullback(poly("x*y - x'*y'"), curve)
        # (s^2)(2s) - (s^2)(s) = s^3
        assert image.order_of_vanishing() == 3

    def test_pullback_dense_agrees_with_fast_path(self):
        curve = parse_curve("s^2,2s,s^2,s", DXY)
        for text in ("x - x'", "x*y^2 - x'*y'^2", "y^3 - y'^3 + x - x'"):
            p = poly(text)
            assert pullback(p, curve).coeffs == pullback_dense(p, curve).coeffs

    def test_zero_pulls_back_to_zero(self):
        curve = parse_curve("s,s,s,s", DXY)
        image = pullback(DXY.zero(), curve)
        assert image.order_of_vanishing() is math.inf

    def test_double_pulls_to_zero_on_equal_arcs(self):
        # equal source and mirror arcs land on the diagonal
        curve = parse_curve("s^2,s^3,s^2,s^3", DXY)
        assert pullback(poly("x*y - x'*y'"), curve).order_of_vanishing() is math.inf


class TestPullbackIdeal:
    def test_ideal_order_is_min_generator_order(self):
        ideal = Ideal(DXY, [poly("x - x'"), poly("y^2 - y'^2")])
        curve = parse_curve("s^3,2s,s^3,s", DXY)
        summary = pullback_ideal(curve, ideal)
        assert summary.generator_orders == (math.inf, 2)
        assert summary.ideal_order == 2

    def test_all_infinite_orders(self):
        ideal = Ideal(DXY, [poly("x - x'")])
        curve = parse_curve("s,s,s,s", DXY)
        assert pullback_ideal(curve, ideal).ideal_order is math.inf


class TestWitness:
    def test_obstruction_found(self):
        # y - y' drops to order 1 while the family ideal sits at order 2
        ideal = Ideal(DXY, [poly("x - x'"), poly("y^2 - y'^2")])
        curve = parse_curve("s,2s,s,s", DXY)
        element = poly("y - y'")
        witness = Witness(
            curve,
            pullback_ideal(curve, ideal).generator_orders,
            element,
            pullback(element, curve).order_of_vanishing(),
        )
        assert witness.element_order == 1
        assert witness.generator_orders == (math.inf, 2)
        assert witness.ideal_order == 2

    def test_no_obstruction_when_orders_respect_ideal(self):
        ideal = Ideal(DXY, [poly("y - y'")])
        curve = parse_curve("s,2s,s,s", DXY)
        element_order = pullback(poly("y - y'"), curve).order_of_vanishing()
        assert not element_order < pullback_ideal(curve, ideal).ideal_order

    def test_witness_requires_strict_drop(self):
        curve = parse_curve("s,s,s,s", DXY)
        for element_order in (2, 3, math.inf):
            with pytest.raises(RingError, match="not a witness"):
                Witness(curve, (2, math.inf), poly("x - x'"), element_order)


def searched_curves(ring, max_exponent):
    return [
        _monomial_curve(ring, exps, coeffs)
        for exps, patterns in _profiles(ring, max_exponent)
        for coeffs in patterns
    ]


class TestEnumeration:
    def test_deterministic_stream(self):
        first = [format_curve(c) for c in searched_curves(DXY, 3)][:40]
        second = [format_curve(c) for c in searched_curves(DXY, 3)][:40]
        assert first == second

    def test_cheapest_curves_come_first(self):
        # The shared parameter's arc counts once for each point.
        for ring in (DXY, DTX):
            weights = [2 if v == "t" else 1 for v in ring.variables]
            degrees = [
                sum(w * a.degree() for w, a in zip(weights, curve.components))
                for curve in searched_curves(ring, 2)
            ]
            assert degrees == sorted(degrees)

    def test_tied_parameter_shares_one_arc(self):
        # Both points of a pair share t, so t has one arc; the search
        # runs along paired arcs, so x' takes the exponent of x.
        assert DTX.variables == ("t", "x", "x'")
        blocks = list(_profiles(DTX, 2))
        # t and x: 2^2 exponent tuples, 2^3 patterns each
        assert (len(blocks), len(blocks[0][1])) == (4, 8)
        assert [exps for exps, _ in blocks] == [
            (1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2)
        ]

    def test_untied_ring_pairs_each_mirror(self):
        blocks = list(_profiles(DXY, 2))
        assert [exps for exps, _ in blocks] == [
            (1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2)
        ]
        assert sorted(blocks[0][1]) == sorted(
            itertools.product(ARC_COEFFICIENTS, repeat=4)
        )

    def test_max_exponent_validated(self):
        ideal = Ideal(DXY, [poly("x - x'")])
        for bad in (0, 2.0, True):
            with pytest.raises(ValueError, match="max_exponent"):
                closure_test(poly("y - y'"), ideal, 10, bad)
            with pytest.raises(ValueError, match="max_exponent"):
                closure_test(ideal.ring.zero(), ideal, 10, bad)

    def test_budget_validated(self):
        # a float, a string or a bool budget is refused like a negative one
        ideal = Ideal(DXY, [poly("x - x'")])
        for bad in (-1, 2.5, "3", True):
            with pytest.raises(ValueError, match="budget"):
                closure_test(poly("y - y'"), ideal, bad, 3)
        assert closure_test(poly("y - y'"), ideal, 0, 3).curves_tried == 0

    def test_closure_test_finds_catalog_witness(self):
        from liptriv import unfolding_double_ideal
        from liptriv.doubling import build_unfolding

        nf = normal_form(3, k=2)
        u = build_unfolding(nf.matrix, nf.theta({"b1": 1}))
        ideal = unfolding_double_ideal(u)
        theta_gen = parse_polynomial("y - y'", ideal.ring)
        result = closure_test(theta_gen, ideal, 1000, 4)
        assert isinstance(result, Witness)
        assert result.element_order < result.ideal_order

    def test_closure_test_zero_element_trivial(self):
        from liptriv.curves import SearchReport

        ideal = Ideal(DXY, [poly("x - x'")])
        report = closure_test(ideal.ring.zero(), ideal, 1000, 4)
        assert isinstance(report, SearchReport)
        assert report.curves_tried == 0
        assert not report.budget_exhausted

    def test_budget_exhaustion_reported(self):
        from liptriv import unfolding_double_ideal
        from liptriv.curves import SearchReport
        from liptriv.doubling import build_unfolding

        nf = normal_form(1, k=4, l=2)
        u = build_unfolding(nf.matrix, nf.theta({"a3": 1}))
        ideal = unfolding_double_ideal(u)
        element = parse_polynomial("y^3 - y'^3", ideal.ring)
        report = closure_test(element, ideal, budget=5, max_exponent=2)
        assert isinstance(report, SearchReport)
        assert report.budget_exhausted
        assert report.curves_tried == 5

    def test_negative_budget_rejected(self):
        ideal = Ideal(DXY, [poly("x - x'"), poly("y^3 - y'^3")])
        element = poly("y^2 - y'^2")
        # the second curve is a witness, so a negative budget sliced from
        # the end of the block would still find it
        assert isinstance(closure_test(element, ideal, 2, 3), Witness)
        with pytest.raises(ValueError, match="budget"):
            closure_test(element, ideal, -1, 3)
        report = closure_test(element, ideal, 0, 3)
        assert (report.curves_tried, report.budget_exhausted) == (0, True)


EXPECTED_PROBE_ORDERS = [
    # family, parameters, expected containment exponent
    (1, {"k": 2, "l": 2}, 2),
    (1, {"k": 2, "l": 3}, 2),
    (1, {"k": 3, "l": 2}, 2),
    (1, {"k": 3, "l": 4}, 3),
    (1, {"k": 4, "l": 4}, 4),
    (2, {"k": 2}, 2),
    (2, {"k": 3}, 2),
    (2, {"k": 4}, 2),
    (3, {"k": 2}, 2),
    (3, {"k": 3}, 3),
    (3, {"k": 4}, 4),
    (4, {"k": 2}, 2),
    (4, {"k": 3}, 3),
    (4, {"k": 4}, 4),
    (5, {}, 3),
    (6, {}, 3),
]


class TestCatalogProbeCurves:
    """Each family ships the curve its argument uses; pulling the
    family ideal back along it must hit the stated order exactly."""

    @pytest.mark.parametrize("index,params,expected", EXPECTED_PROBE_ORDERS)
    def test_probe_curve_ideal_order(self, index, params, expected):
        from liptriv import unfolding_double_ideal
        from liptriv.doubling import build_unfolding

        nf = normal_form(index, **params)
        ones = {name: 1 for name in nf.coefficient_names()}
        u = build_unfolding(nf.matrix, nf.theta(ones))
        ideal = unfolding_double_ideal(u)
        summary = pullback_ideal(nf.probe_curve(), ideal)
        assert summary.ideal_order == expected
        assert nf.curve_order == expected
