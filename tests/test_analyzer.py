"""Verdict pipeline: route selection, certificates, replay, audit."""

import copy
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from liptriv import (
    INCONCLUSIVE,
    LIPSCHITZ,
    NOT_LIPSCHITZ,
    AnalyzeOptions,
    AuditError,
    RingContext,
    analyze,
    analyzer,
    curves,
    normal_form,
    normal_space_basis,
    parse_matrix_germ,
    reproduce_catalog_table,
    unfolding_double_ideal,
    verify_inclusion_certificate,
    verify_witness_dense,
)
from liptriv.catalog import CatalogError, random_direction
from liptriv.curves import Witness
from liptriv.doubling import direction_double_ideal
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

    def test_diagonal_route_falls_through_when_a_difference_is_not_a_member(self):
        # x, y cut the origin reduced, but with theta = F the family ideal
        # is <(1 + t)(x - x'), (1 + t)(y - y')>, which misses x - x'.
        ring = RingContext(("x", "y"))
        F = parse_matrix_germ("gen: x, y", ring)
        verdict = analyze(F, F, AnalyzeOptions(curve_budget=50))
        assert verdict.route != "diagonal"
        assert verdict.outcome != NOT_LIPSCHITZ

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

    def test_witness_with_altered_generator_order_fails_replay(self):
        verdict = run(3, {"b1": 1}, k=2)
        witness = verdict.witness
        ideal = unfolding_double_ideal(verdict.unfolding)
        orders = list(witness.generator_orders)
        # alter an order above the minimum, so the record stays a witness
        # with the same ideal order
        index = orders.index(max(orders))
        assert orders[index] > witness.ideal_order
        orders[index] = witness.ideal_order + 1 if orders[index] is math.inf else math.inf
        tampered = replace(witness, generator_orders=tuple(orders))
        assert tampered.ideal_order == witness.ideal_order
        assert not verify_witness_dense(tampered, ideal)

    def test_witness_orders_derived_once_for_the_certificate(self, monkeypatch):
        calls = []
        dense = analyzer.pullback_dense

        def counting(p, curve):
            calls.append(p)
            return dense(p, curve)

        monkeypatch.setattr(analyzer, "pullback_dense", counting)
        verdict = run(3, {"b1": 1}, k=2)
        assert verdict.route == "witness"
        generators = unfolding_double_ideal(verdict.unfolding).generators
        # one dense replay per generator plus one for the element
        assert len(calls) == len(generators) + 1
        recorded = verdict.certificate["data"]["generator_orders"]
        assert recorded == {
            str(g): "infinity" if o is math.inf else o
            for g, o in zip(generators, verdict.witness.generator_orders)
        }

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

    @pytest.mark.parametrize("junk", [None, [], "x", 3])
    def test_certificate_not_a_mapping(self, junk):
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)
        assert not verify_inclusion_certificate(replace(verdict, certificate=junk))

    @pytest.mark.parametrize("junk", [None, [], "x", 3])
    def test_data_not_a_mapping(self, junk):
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)
        certificate = {"type": "inclusion", "data": junk}
        assert not verify_inclusion_certificate(replace(verdict, certificate=certificate))

    @pytest.mark.parametrize("text", ["x +* y", "q", 5, None, 1.5])
    def test_unparsable_cofactor(self, text):
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)

        def edit(data):
            data["memberships"][0]["cofactors"][0]["cofactor"] = text

        assert not verify_inclusion_certificate(self.tampered(verdict, edit))

    def test_overlong_digit_run_in_cofactor(self):
        # Past Python's int-conversion limit this is a parse failure, and
        # on a Python without the limit a wrong cofactor.
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)

        def edit(data):
            data["memberships"][0]["cofactors"][0]["cofactor"] = "1" * 5000

        assert not verify_inclusion_certificate(self.tampered(verdict, edit))

    @pytest.mark.parametrize("junk", [5, None, 1.5])
    @pytest.mark.parametrize("field", ["generator", "basis"])
    def test_non_text_generator_or_basis(self, field, junk):
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)

        def edit(data):
            membership = data["memberships"][0]
            if field == "generator":
                membership["generator"] = junk
            else:
                membership["cofactors"][0]["basis"] = junk

        assert not verify_inclusion_certificate(self.tampered(verdict, edit))


class TestCertificateCoverage:
    """A certificate must cover every generator the route needs; well-formed
    sums over the wrong generators fail replay."""

    tampered = staticmethod(TestMalformedCertificates.tampered)
    # x - x' lies in both target ideals, so this membership multiplies
    # out correctly while proving nothing about the direction.
    UNRELATED = {
        "generator": "x - x'",
        "cofactors": [{"cofactor": "1", "basis": "x - x'"}],
    }

    @staticmethod
    def proven(germ, direction, route):
        ring = RingContext(("x", "y"))
        verdict = analyze(
            parse_matrix_germ(germ, ring), parse_matrix_germ(direction, ring)
        )
        assert verdict.route == route
        assert verify_inclusion_certificate(verdict)
        return verdict

    @pytest.fixture(scope="class")
    def inclusion(self):
        # Three direction generators, each a multiple of x - x'.
        return self.proven(
            "sym: x, 0 ; 0, x^4 + y^2", "sym: x^2, x ; x, x^3", "inclusion"
        )

    @pytest.fixture(scope="class")
    def diagonal(self):
        return self.proven("sym: y, x ; x, y^3", "sym: 0, y^2 ; y^2, x*y", "diagonal")

    def test_emptied_memberships(self, inclusion):
        forged = self.tampered(inclusion, lambda data: data["memberships"].clear())
        assert not verify_inclusion_certificate(forged)

    def test_emptied_memberships_of_catalog_cell(self):
        verdict = run(2, {"d1": 1, "d2": 2}, k=4)
        assert verify_inclusion_certificate(verdict)
        forged = self.tampered(verdict, lambda data: data["memberships"].clear())
        assert not verify_inclusion_certificate(forged)

    def test_dropped_membership(self, inclusion):
        assert len(inclusion.certificate["data"]["memberships"]) > 1
        forged = self.tampered(inclusion, lambda data: data["memberships"].pop())
        assert not verify_inclusion_certificate(forged)

    def test_swapped_generator(self, inclusion):
        def edit(data):
            data["memberships"][0] = copy.deepcopy(self.UNRELATED)

        assert not verify_inclusion_certificate(self.tampered(inclusion, edit))

    def test_extra_membership(self, inclusion):
        def edit(data):
            data["memberships"].append(copy.deepcopy(self.UNRELATED))

        assert not verify_inclusion_certificate(self.tampered(inclusion, edit))

    @pytest.mark.parametrize(
        "block", ["direction_into_diagonal", "diagonal_into_family"]
    )
    def test_diagonal_block_emptied_or_dropped(self, diagonal, block):
        assert len(diagonal.certificate["data"][block]) > 1
        for edit in (lambda data: data[block].clear(), lambda data: data[block].pop()):
            assert not verify_inclusion_certificate(self.tampered(diagonal, edit))

    @pytest.mark.parametrize(
        "block", ["direction_into_diagonal", "diagonal_into_family"]
    )
    def test_diagonal_block_swapped_generator(self, diagonal, block):
        def edit(data):
            data[block][-1] = copy.deepcopy(self.UNRELATED)

        assert not verify_inclusion_certificate(self.tampered(diagonal, edit))

    def test_inclusion_block_on_diagonal_route(self, inclusion, diagonal):
        # A proof of another direction does not cover this one.
        forged = replace(diagonal, certificate=copy.deepcopy(inclusion.certificate))
        assert not verify_inclusion_certificate(forged)


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
    @pytest.mark.parametrize(
        "bad",
        [
            {"max_exponent": 0},
            {"curve_budget": 0},
            # rejected up front, not as a TypeError deep in the search
            {"max_exponent": 2.0},
            {"max_exponent": True},
            {"max_exponent": "3"},
            {"curve_budget": 2.5},
            {"curve_budget": True},
            {"curve_budget": "3"},
            {"groebner_budget": 5},
            {"groebner_budget": None},
            {"groebner_budget": (20_000, 48)},
        ],
    )
    def test_limits_validated(self, bad):
        with pytest.raises(ValueError):
            AnalyzeOptions(**bad)

    @pytest.mark.parametrize(
        "route,index,coeffs,params",
        [
            ("witness", 3, {"b1": 1}, {"k": 2}),
            ("inclusion", 5, {"a4": 1}, {}),
            ("constant", 3, {"a": 1}, {"k": 2}),
        ],
        ids=["witness", "inclusion", "constant"],
    )
    def test_every_report_states_both_fields(self, route, index, coeffs, params):
        # every route's evidence holds over the reals and the complexes
        verdict = run(index, coeffs, **params)
        assert verdict.route == route
        report = verdict.to_report()
        assert report["fields"] == ["real", "complex"]
        assert "field" not in report

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
        # groebner is on every nonconstant verdict; search once any curve
        # search ran, the prefix before the membership included
        refuted = run(3, {"b1": 1}, k=2)
        assert refuted.route == "witness"
        assert set(refuted.timings) == {"groebner", "search", "total"}
        included = run(2, {"d1": 1, "d2": 2}, k=4)
        assert included.route == "inclusion"
        assert set(included.timings) == {"groebner", "search", "total"}
        options = AnalyzeOptions(curve_budget=1, max_exponent=4)
        open_ = run(3, {"b1": 1}, k=2, options=options)
        assert open_.outcome == INCONCLUSIVE
        assert set(open_.timings) == {"groebner", "search", "total"}
        assert set(run(1, {"b1": 1}, k=1, l=3).timings) == {"groebner", "total"}
        assert set(run(5, {}).timings) == {"total"}
        for verdict in (refuted, included, open_):
            assert all(seconds >= 0 for seconds in verdict.timings.values())


class TestAudit:
    def test_audit_runs_search_after_inclusion(self):
        options = AnalyzeOptions(audit=True, max_exponent=4)
        verdict = run(2, {"d1": 1}, k=3, options=options)
        assert verdict.outcome == LIPSCHITZ
        assert verdict.audit is not None
        assert verdict.audit["witness_found"] is False

    def test_audit_records_exhausted_budget_as_unknown(self):
        options = AnalyzeOptions(
            groebner_budget=GroebnerBudget(max_pairs=1, max_degree=48),
            curve_budget=50,
            max_exponent=2,
            audit=True,
        )
        verdict = run(2, {"d1": 1}, k=4, options=options)
        assert verdict.route == "search"
        assert verdict.audit["inclusion_shown"] is None
        assert verdict.certificate["data"]["inclusion_budget_exhausted"] is True

    def test_exponent_cap_in_a_membership_degrades_to_search(self):
        # The inclusion route's division enters y^3 past the cap 2: a
        # budget failure, so the search decides the family, and audit
        # records the inclusion as unknown.
        ring = RingContext(("x", "y"), exponent_cap=2)
        base = parse_matrix_germ("gen: 0, 0 ; x - y, 0", ring)
        direction = parse_matrix_germ("gen: -2*x^2*y, y ; 2*x^2*y + x, -x*y", ring)
        verdict = analyze(base, direction)
        assert (verdict.outcome, verdict.route) == (NOT_LIPSCHITZ, "witness")
        audited = analyze(base, direction, AnalyzeOptions(audit=True))
        assert (audited.outcome, audited.route) == (NOT_LIPSCHITZ, "witness")
        assert audited.audit == {"inclusion_shown": None, "witness_found": True}

    def test_audit_records_failed_inclusion_as_false(self):
        # a witness at the head of the stream, which the plain pipeline
        # returns before any membership; audit still runs Groebner
        verdict = run(2, {"c": 1}, k=3, options=AnalyzeOptions(audit=True))
        assert verdict.outcome == NOT_LIPSCHITZ
        assert verdict.audit == {"inclusion_shown": False, "witness_found": True}

    def test_audit_of_a_constant_direction(self):
        verdict = run(2, {"a": 1, "b": 2}, k=3, options=AnalyzeOptions(audit=True))
        assert verdict.audit == {"inclusion_shown": True, "witness_found": False}
        assert verdict.certificate["data"] == {
            "route": "constant",
            "reason": "constant direction has zero difference ideal",
        }
        assert (verdict.witness, verdict.searches) == (None, ())

    def test_audit_off_by_default(self):
        verdict = run(2, {"d1": 1}, k=3)
        assert verdict.audit is None

    def test_corrupted_kernel_order_raises(self, monkeypatch):
        # every kernel reads each degree one too high: the search still
        # stops at the true witness curve, with both orders off by one,
        # so re-deriving them through pullback must catch it
        enter = curves._OrderKernel.enter

        def shifted(self, arc_exps):
            self._groups = [(d + 1, m) for d, m in enter(self, arc_exps)]
            return self._groups

        monkeypatch.setattr(curves._OrderKernel, "enter", shifted)
        with pytest.raises(AuditError, match="order kernel and pullback disagree"):
            run(3, {"b1": 1}, k=2)

    def test_tampered_witness_fails_dense_replay(self, monkeypatch):
        # a generator order altered after the witness was confirmed; the
        # dense replay inside the search route must refuse it
        search = analyzer.closure_test

        def tampering(element, ideal, budget, max_exponent):
            found = search(element, ideal, budget, max_exponent)
            if isinstance(found, Witness):
                orders = list(found.generator_orders)
                index = orders.index(max(orders))
                orders[index] = math.inf if orders[index] is not math.inf else 10**6
                found = replace(found, generator_orders=tuple(orders))
            return found

        monkeypatch.setattr(analyzer, "closure_test", tampering)
        with pytest.raises(AuditError, match="independent replay"):
            run(3, {"b1": 1}, k=2)


class Recorder:
    """Wrap ``liptriv.analyzer.<name>`` and keep every result it returns."""

    def __init__(self, monkeypatch, name):
        self.results = []
        inner = getattr(analyzer, name)

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.results.append(result)
            return result

        monkeypatch.setattr(analyzer, name, recording)


def table_verdicts(max_k, max_l, **options):
    """Every verdict of ``reproduce_catalog_table`` with these options."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        verdicts = Recorder(monkeypatch, "analyze")
        reproduce_catalog_table(max_k, max_l, AnalyzeOptions(**options))
    return verdicts.results


def report_without_timings(verdict):
    report = verdict.to_report()
    del report["timings"]
    return report


class TestRefuteBeforeProving:
    """The prefix search of the first direction generator, run before the
    general membership, changes no verdict and no certificate."""

    @pytest.mark.parametrize(
        "max_k,max_l,curve_budget", [(6, 6, 4000), (4, 4, 1), (4, 4, 2)]
    )
    def test_plain_reports_equal_audited_reports(self, max_k, max_l, curve_budget):
        # Audit runs no prefix, so it is the reference for the plain run.
        plain = table_verdicts(max_k, max_l, curve_budget=curve_budget)
        audited = table_verdicts(max_k, max_l, curve_budget=curve_budget, audit=True)
        assert len(plain) == len(audited)
        differing = [
            cell
            for cell, (p, a) in enumerate(zip(plain, audited))
            if report_without_timings(p) != report_without_timings(a)
        ]
        assert differing == []

    def test_witness_element_is_a_direction_generator(self):
        witnesses = [v for v in table_verdicts(4, 4) if v.route == "witness"]
        assert witnesses
        for verdict in witnesses:
            theta = direction_double_ideal(verdict.unfolding)
            assert verdict.witness.element in theta.generators

    def test_prefix_witness_settles_before_any_membership(self, monkeypatch):
        searches = Recorder(monkeypatch, "closure_test")
        memberships = Recorder(monkeypatch, "membership_certificate")
        verdict = run(3, {"b1": 1}, k=2)
        assert verdict.route == "witness"
        assert len(searches.results) == 1
        assert memberships.results == []

    @pytest.mark.parametrize("audit", [False, True])
    def test_witness_on_a_later_generator_reports_no_search(self, monkeypatch, audit):
        # E6 at its seeded direction: generator 0 sweeps the whole curve
        # budget, then generator 1 gives the witness
        nf = normal_form(5)
        options = AnalyzeOptions(audit=audit, max_exponent=nf.max_exponent)
        searches = Recorder(monkeypatch, "closure_test")
        verdict = run(5, random_direction(nf), options=options)
        theta = direction_double_ideal(verdict.unfolding).generators
        assert (verdict.outcome, verdict.route) == (NOT_LIPSCHITZ, "witness")
        assert verdict.witness.element == theta[1]
        *_, swept, found = searches.results
        assert (swept.curves_tried, swept.budget_exhausted) == (4000, True)
        assert found is verdict.witness
        assert verdict.searches == ()

    def test_no_search_for_constant_or_diagonal_directions(self, monkeypatch):
        searches = Recorder(monkeypatch, "closure_test")
        assert run(2, {"a": 1, "b": 2}, k=3).route == "constant"
        ring = RingContext(("x", "y", "z"))
        germ = parse_matrix_germ("sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", ring)
        routes = {analyze(germ, d).route for d in normal_space_basis(germ).basis}
        assert "diagonal" in routes
        assert routes <= {"diagonal", "constant"}
        assert searches.results == []


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
            "fields",
            "timings",
        }
        assert report["assumed_preconditions"] == [
            "unfolding is homeomorphism onto image"
        ]
        assert report["parameters"]["deformation_parameter"] == "t"

    def test_coefficients_serialized_as_strings(self):
        for value in (Fraction(2, 3), "4/6"):
            verdict = run(5, {"a3": value})
            assert verdict.to_report()["theta_coefficients"] == {"a3": "2/3"}

    @pytest.mark.parametrize("raw", ["1/0", 0.1, True, "abc", None])
    def test_label_values_refused_like_theta_values(self, raw):
        nf = normal_form(5)
        with pytest.raises(CatalogError, match="a3"):
            analyze(nf.matrix, nf.theta({}), coefficient_labels={"a3": raw})


class TestTableReproduction:
    def test_small_table_passes(self):
        report = reproduce_catalog_table(2, 2)
        assert report.all_passed
        assert report.counts["failed"] == 0
        assert len(report.cells) == 45

    def test_six_by_six_grid_grades_without_failures(self):
        # Past 4x4 the deepest witnesses lie beyond the unpaired stream's
        # 4,000 curves; along paired arcs every decided cell is found.
        report = reproduce_catalog_table(6, 6)
        assert report.counts == {"passed": 373, "failed": 0, "unchecked": 44}

    @pytest.mark.parametrize("max_k,max_l", [(-2, 1), (1, 4), (4, 1)])
    def test_limits_that_drop_a_family_rejected(self, max_k, max_l):
        with pytest.raises(CatalogError):
            reproduce_catalog_table(max_k, max_l)

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
