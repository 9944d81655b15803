"""Verdict pipeline: route selection, certificates, replay, audit."""

import copy
from dataclasses import replace
from fractions import Fraction

import pytest

from liptriv import (
    INCONCLUSIVE,
    LIPSCHITZ,
    NOT_LIPSCHITZ,
    AnalyzeOptions,
    RingContext,
    analyze,
    normal_form,
    parse_matrix_germ,
    reproduce_catalog_table,
    unfolding_double_ideal,
    verify_inclusion_certificate,
    verify_witness_dense,
)
from liptriv.groebner import GroebnerBudget


def run(index, coeffs, options=None, **params):
    nf = normal_form(index, **params)
    opts = options or AnalyzeOptions(max_exponent=nf.max_exponent)
    return analyze(nf.matrix, nf.theta(coeffs), opts, coefficient_labels=coeffs)


class TestRoutes:
    def test_constant_direction_short_circuits(self):
        verdict = run(2, {"a": 1, "b": 2}, k=3)
        assert verdict.outcome == LIPSCHITZ
        assert verdict.route == "constant"
        assert verdict.certificate["type"] == "inclusion"
        assert verify_inclusion_certificate(verdict)

    def test_zero_direction_short_circuits(self):
        verdict = run(5, {})
        assert verdict.outcome == LIPSCHITZ
        assert verdict.route == "constant"

    def test_diagonal_route_on_linear_entries(self):
        # family 1, k=1: entries y, x, y^l generate the maximal ideal,
        # so every nonconstant direction rides the diagonal chain
        verdict = run(1, {"b1": 1}, k=1, l=3)
        assert verdict.outcome == LIPSCHITZ
        assert verdict.route == "diagonal"
        data = verdict.certificate["data"]
        assert data["direction_into_diagonal"]
        assert data["diagonal_into_family"]
        assert verify_inclusion_certificate(verdict)

    def test_inclusion_route_with_cofactors(self):
        # family 2 with only d-coefficients: the direction ideal divides
        # into <x - x'> inside the family ideal
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)
        assert verdict.outcome == LIPSCHITZ
        assert verdict.route == "inclusion"
        memberships = verdict.certificate["data"]["memberships"]
        assert memberships
        assert verify_inclusion_certificate(verdict)

    def test_witness_route(self):
        verdict = run(3, {"b1": 1}, k=2)
        assert verdict.outcome == NOT_LIPSCHITZ
        assert verdict.route == "witness"
        assert verdict.witness is not None
        ideal = unfolding_double_ideal(verdict.unfolding)
        assert verify_witness_dense(verdict.witness, ideal)

    def test_search_route_is_inconclusive(self):
        verdict = run(1, {"a3": 1}, k=4, l=2)
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.route == "search"
        data = verdict.certificate["data"]
        assert data["generators"]
        assert all(g["curves_tried"] > 0 for g in data["generators"])


class TestMalformedCertificates:
    """Certificate text that does not parse fails replay, never raises."""

    @staticmethod
    def tampered(verdict, edit):
        certificate = copy.deepcopy(verdict.certificate)
        edit(certificate["data"])
        return replace(verdict, certificate=certificate)

    def test_missing_block(self):
        verdict = run(1, {"b1": 1}, k=1, l=3)
        forged = self.tampered(
            verdict, lambda data: data.pop("direction_into_diagonal")
        )
        assert not verify_inclusion_certificate(forged)

    @pytest.mark.parametrize("text", ["x +* y", "q"])
    def test_unparsable_cofactor(self, text):
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)

        def edit(data):
            data["memberships"][0]["cofactors"][0]["cofactor"] = text

        assert not verify_inclusion_certificate(self.tampered(verdict, edit))


class TestSpecializationCoherence:
    @pytest.mark.parametrize(
        "index,params",
        [
            (1, {"k": 1, "l": 2}),
            (1, {"k": 3, "l": 3}),
            (2, {"k": 2}),
            (3, {"k": 4}),
            (4, {"k": 2}),
            (5, {}),
            (6, {}),
        ],
    )
    def test_zero_direction_always_trivial(self, index, params):
        verdict = run(index, {}, **params)
        assert verdict.outcome == LIPSCHITZ


class TestMonotoneCoefficients:
    def test_row1_verdict_does_not_depend_on_coefficient_scale(self):
        for value in (1, 2, Fraction(1, 2), -3):
            verdict = run(1, {"a1": value}, k=2, l=2)
            assert verdict.outcome == NOT_LIPSCHITZ


class TestOptions:
    def test_field_validated(self):
        with pytest.raises(ValueError):
            AnalyzeOptions(field="padic")

    @pytest.mark.parametrize("bad", [{"max_exponent": 0}, {"curve_budget": 0}])
    def test_limits_validated(self, bad):
        with pytest.raises(ValueError):
            AnalyzeOptions(**bad)

    def test_complex_field_accepted_and_reported(self):
        verdict = run(3, {"b1": 1}, k=2, options=AnalyzeOptions(field="complex"))
        assert verdict.field == "complex"
        assert verdict.to_report()["field"] == "complex"

    def test_tiny_groebner_budget_degrades_to_search(self):
        # the pipeline may never crash on budget exhaustion
        options = AnalyzeOptions(
            groebner_budget=GroebnerBudget(max_pairs=1, max_degree=48),
            curve_budget=50,
            max_exponent=2,
        )
        verdict = run(2, {"d1": 1}, k=4, options=options)
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.route == "search"
        assert verdict.certificate["data"]["inclusion_budget_exhausted"]

    def test_timings_recorded(self):
        verdict = run(5, {"a3": 1})
        assert set(verdict.timings) >= {"total"}
        assert verdict.timings["total"] >= 0


class TestAudit:
    def test_audit_runs_search_after_inclusion(self):
        options = AnalyzeOptions(audit=True, max_exponent=4)
        verdict = run(2, {"d1": 1}, k=3, options=options)
        assert verdict.outcome == LIPSCHITZ
        assert verdict.audit is not None
        assert verdict.audit["witness_found"] is False

    def test_audit_off_by_default(self):
        verdict = run(2, {"d1": 1}, k=3)
        assert verdict.audit is None


class TestReportShape:
    def test_report_has_stable_keys(self):
        verdict = run(6, {"a4": 1})
        report = verdict.to_report()
        assert set(report) >= {
            "germ",
            "parameters",
            "theta_coefficients",
            "outcome",
            "route",
            "certificate",
            "assumed_preconditions",
            "field",
            "timings",
        }
        assert report["assumed_preconditions"] == [
            "unfolding is homeomorphism onto image"
        ]
        assert report["parameters"]["deformation_parameter"] == "t"

    def test_coefficients_serialized_as_strings(self):
        verdict = run(5, {"a3": Fraction(2, 3)})
        assert verdict.to_report()["theta_coefficients"] == {"a3": "2/3"}


class TestTableReproduction:
    def test_small_table_passes(self):
        report = reproduce_catalog_table(2, 2)
        assert report.all_passed
        assert report.counts["failed"] == 0
        assert len(report.cells) == 45

    def test_cells_in_deterministic_order(self):
        first = reproduce_catalog_table(2, 2)
        second = reproduce_catalog_table(2, 2)
        assert [c.to_report() for c in first.cells] == [
            c.to_report() for c in second.cells
        ]

    def test_open_cells_marked_unchecked(self):
        report = reproduce_catalog_table(4, 2)
        open_cells = [c for c in report.cells if c.passed is None]
        assert open_cells
        for cell in open_cells:
            assert cell.expected is None


class TestArbitraryGerms:
    def test_non_catalog_symmetric_germ(self):
        ring = RingContext(("x", "y"))
        base = parse_matrix_germ("sym: y^2, x ; x, y^2", ring)
        direction = parse_matrix_germ("sym: y, 0 ; 0, 0", ring)
        verdict = analyze(base, direction)
        assert verdict.outcome == NOT_LIPSCHITZ

    def test_three_by_three_diagonal_route(self):
        ring = RingContext(("x", "y", "z"))
        base = parse_matrix_germ(
            "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", ring
        )
        direction = parse_matrix_germ(
            "sym: 0, 0, 0 ; 0, 0, 0 ; 0, 0, x*y", ring
        )
        verdict = analyze(base, direction)
        assert verdict.outcome == LIPSCHITZ
        assert verdict.route == "diagonal"
        assert verify_inclusion_certificate(verdict)
