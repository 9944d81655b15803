"""Arc pullbacks, vanishing orders, witness search, closure testing."""

import math

import pytest

from liptriv import RingContext, normal_form
from liptriv.curves import (
    CurveSearchConfig,
    Witness,
    closure_test,
    enumerate_test_curves,
    format_curve,
    parse_curve,
    pullback,
    pullback_dense,
    pullback_ideal,
)
from liptriv.doubling import double_ideal
from liptriv.rings import parse_polynomial

DXY = RingContext(("x", "y")).doubled_extension()


def poly(text, ring=DXY):
    return parse_polynomial(text, ring)


class TestParseAndPullback:
    def test_roundtrip(self):
        curve = parse_curve("s,2s^2,2s,s,s^2,s", RingContext(("t", "x", "y")).doubled_extension())
        assert format_curve(curve) == "s, 2*s^2, 2*s, s, s^2, s"

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
        gens = [poly("x - x'"), poly("y^2 - y'^2")]
        ideal = double_ideal(
            [parse_polynomial("x", RingContext(("x", "y"))),
             parse_polynomial("y^2", RingContext(("x", "y")))],
        )
        curve = parse_curve("s^3,2s,s^3,s", DXY)
        summary = pullback_ideal(curve, ideal)
        assert summary.generator_orders == (math.inf, 2)
        assert summary.ideal_order == 2

    def test_all_infinite_orders(self):
        ideal = double_ideal(
            [parse_polynomial("x", RingContext(("x", "y")))]
        )
        curve = parse_curve("s,s,s,s", DXY)
        assert pullback_ideal(curve, ideal).ideal_order is math.inf


class TestWitness:
    def test_obstruction_found(self):
        # y - y' drops to order 1 while the family ideal sits at order 2
        ideal = double_ideal(
            [parse_polynomial(t, RingContext(("x", "y")))
             for t in ("x", "y^2")]
        )
        curve = parse_curve("s,2s,s,s", DXY)
        element = poly("y - y'")
        witness = Witness(
            curve,
            element,
            pullback(element, curve).order_of_vanishing(),
            pullback_ideal(curve, ideal).ideal_order,
        )
        assert witness.element_order == 1
        assert witness.ideal_order == 2
        assert witness.margin == 1

    def test_no_obstruction_when_orders_respect_ideal(self):
        ideal = double_ideal(
            [parse_polynomial("y", RingContext(("x", "y")))]
        )
        curve = parse_curve("s,2s,s,s", DXY)
        element_order = pullback(poly("y - y'"), curve).order_of_vanishing()
        assert not element_order < pullback_ideal(curve, ideal).ideal_order

    def test_witness_requires_strict_drop(self):
        with pytest.raises(Exception):
            Witness(
                parse_curve("s,s,s,s", DXY), poly("x - x'"), 2, 2
            )


class TestEnumeration:
    def test_deterministic_stream(self):
        config = CurveSearchConfig(max_exponent=3, coefficients=(1, 2))
        first = [
            format_curve(c) for c in enumerate_test_curves(DXY, config)
        ][:40]
        second = [
            format_curve(c) for c in enumerate_test_curves(DXY, config)
        ][:40]
        assert first == second

    def test_cheapest_curves_come_first(self):
        config = CurveSearchConfig(max_exponent=2, coefficients=(1, 2))
        degrees = []
        for curve in enumerate_test_curves(DXY, config):
            degrees.append(sum(a.degree() for a in curve.components))
        assert degrees == sorted(degrees)

    def test_tied_parameter_shares_one_arc(self):
        ring = RingContext(("t", "x")).doubled_extension()
        config = CurveSearchConfig(
            max_exponent=2, coefficients=(1, 2), parameter="t"
        )
        for curve in enumerate_test_curves(ring, config):
            t_arc = curve.components[ring.index("t")]
            t_mirror = curve.components[ring.index("t'")]
            assert t_arc.coeffs == t_mirror.coeffs

    def test_closure_test_finds_catalog_witness(self):
        from liptriv import unfolding_double_ideal
        from liptriv.doubling import build_unfolding

        nf = normal_form(3, k=2)
        u = build_unfolding(nf.matrix, nf.theta({"b1": 1}))
        ideal = unfolding_double_ideal(u)
        theta_gen = parse_polynomial("y - y'", ideal.ring)
        result = closure_test(theta_gen, ideal)
        assert isinstance(result, Witness)
        assert result.element_order < result.ideal_order

    def test_closure_test_zero_element_trivial(self):
        from liptriv.curves import SearchReport

        ideal = double_ideal(
            [parse_polynomial("x", RingContext(("x", "y")))]
        )
        report = closure_test(ideal.ring.zero(), ideal)
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
        report = closure_test(
            element,
            ideal,
            budget=5,
            config=CurveSearchConfig(max_exponent=2),
        )
        assert isinstance(report, SearchReport)
        assert report.budget_exhausted
        assert report.curves_tried == 5


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
