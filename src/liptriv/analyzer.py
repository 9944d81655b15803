"""Verdict pipeline for one-parameter deformations of matrix germs.

Given a germ ``F`` and a deformation direction ``theta``, the family
``F + t*theta`` is Lipschitz trivial along ``t`` exactly when every
generator of the difference ideal of ``theta`` lies in the integral
closure of the difference ideal of the family.  That closure condition
is semidecidable from both sides, and the pipeline works through the
cheap certificates first:

0. ``theta`` constant: trivial for free (its difference ideal is zero).
1. The entries of ``F`` generate the maximal ideal: membership in the
   plain difference ideal follows from the two-step chain through the
   diagonal ideal, both steps replayed as exact memberships.
2. Direct inclusion of difference ideals, certified by division
   cofactors against a Groebner basis.
3. A curve search for a witness against closure membership; any hit is
   re-verified through an independent substitution path.
4. Otherwise the honest answer is Inconclusive, with the search report.

An inclusion proves triviality, a witness refutes it, and a fruitless
search proves nothing.  The two positive routes and the refutation
route can also be run together (``audit=True``); a germ certified both
ways at once would be a logic error and raises :class:`AuditError`.

The verdict for the whole family rests on the unfolding being a
homeomorphism onto its image.  That hypothesis is never checked here
and is recorded in every report as an assumed precondition.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction

from .catalog import LIPSCHITZ, NOT_LIPSCHITZ, normal_form, random_direction
from .curves import (
    AuditError,
    CurveSearchConfig,
    SearchReport,
    Witness,
    closure_test,
    format_curve,
    pullback_dense,
)
from .doubling import (
    PARAMETER,
    DoubledIdeal,
    MatrixGerm,
    Unfolding,
    build_unfolding,
    diagonal_ideal,
    direction_double_ideal,
    format_matrix_germ,
    unfolding_double_ideal,
)
from .groebner import BudgetExceeded, GroebnerBudget, Ideal, membership_certificate
from .rings import Polynomial, RingError, parse_polynomial, primed
from .tangent import entries_cut_reduced_origin

__all__ = [
    "ASSUMED_PRECONDITIONS",
    "AnalyzeOptions",
    "AuditError",
    "INCONCLUSIVE",
    "TableCell",
    "TableReport",
    "Verdict",
    "analyze",
    "reproduce_catalog_table",
    "verify_inclusion_certificate",
    "verify_witness_dense",
]

INCONCLUSIVE = "Inconclusive"

ASSUMED_PRECONDITIONS = ("unfolding is homeomorphism onto image",)


@dataclass(frozen=True)
class AnalyzeOptions:
    """Dials for the pipeline; the defaults fit the bundled catalog.

    Two budgets (Groebner, curves per generator), the search depth
    ``max_exponent`` (``None``: entry degree + 2, at least 4), ``audit``
    and the ``field`` label.  The parameter is ``doubling.PARAMETER``
    and the arc coefficients are the :class:`CurveSearchConfig` default.
    """

    groebner_budget: GroebnerBudget = GroebnerBudget(
        max_pairs=20_000, max_degree=48
    )
    # Witnesses against degree-k entries can need arcs of exponent
    # about k on two variables at once, which sits deep in the
    # enumeration; 4000 covers the bundled catalog through k = 4.
    curve_budget: int = 4000
    max_exponent: int | None = None
    audit: bool = False
    field: str = "real"

    def __post_init__(self) -> None:
        if self.field not in ("real", "complex"):
            raise ValueError("field is a label: 'real' or 'complex'")
        if self.curve_budget < 1:
            raise ValueError("curve_budget must be positive")
        if self.max_exponent is not None and self.max_exponent < 1:
            raise ValueError("max_exponent must be positive")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one analysis, carrying its replayable evidence."""

    outcome: str
    route: str
    certificate: dict
    unfolding: Unfolding
    witness: Witness | None
    searches: tuple[SearchReport, ...]
    field: str
    timings: dict
    coefficient_labels: dict | None
    audit: dict | None

    def to_report(self) -> dict:
        base = self.unfolding.base
        coeffs = self.coefficient_labels or {}
        return {
            "germ": format_matrix_germ(base),
            "parameters": {
                "source_variables": list(base.ring.variables),
                "deformation_parameter": self.unfolding.parameter,
                "note": "deformation parameter standardized to "
                + repr(self.unfolding.parameter),
            },
            "theta_coefficients": {k: str(v) for k, v in coeffs.items()},
            "direction": format_matrix_germ(self.unfolding.direction),
            "outcome": self.outcome,
            "route": self.route,
            "certificate": self.certificate,
            "assumed_preconditions": list(ASSUMED_PRECONDITIONS),
            "field": self.field,
            "timings": dict(self.timings),
        }


def _order_json(value):
    return "infinity" if value is math.inf else int(value)


def _membership_json(generator: Polynomial, pairs) -> dict:
    return {
        "generator": str(generator),
        "cofactors": [
            {"cofactor": str(c), "basis": str(b)} for c, b in pairs
        ],
    }


def _diagonal_route(
    u: Unfolding,
    total: DoubledIdeal,
    theta: DoubledIdeal,
    budget: GroebnerBudget,
) -> dict | None:
    """Certificates for the chain through the diagonal ideal, or None.

    Both steps are exact memberships: every generator of the direction
    ideal falls in the diagonal ideal, and every variable difference of
    the doubled unfolding space falls in the family ideal.  The first
    step holds for any difference ideal; it is still replayed so the
    certificate stands on division alone.
    """
    ring = total.ring
    diagonal = diagonal_ideal(ring)
    into_diagonal = []
    for g in theta.generators:
        pairs = membership_certificate(g, diagonal, budget)
        if pairs is None:
            return None
        into_diagonal.append(_membership_json(g, pairs))
    differences = []
    for name in u.extended_ring.variables:
        diff = ring.variable(name) - ring.variable(primed(name))
        pairs = membership_certificate(diff, total, budget)
        if pairs is None:
            return None
        differences.append(_membership_json(diff, pairs))
    return {
        "route": "diagonal",
        "direction_into_diagonal": into_diagonal,
        "diagonal_into_family": differences,
        "groebner_basis": [str(p) for p in total.groebner_basis(budget)],
    }


def _inclusion_route(
    total: DoubledIdeal, theta: DoubledIdeal, budget: GroebnerBudget
) -> dict | None:
    memberships = []
    for g in theta.generators:
        pairs = membership_certificate(g, total, budget)
        if pairs is None:
            return None
        memberships.append(_membership_json(g, pairs))
    return {
        "route": "inclusion",
        "memberships": memberships,
        "groebner_basis": [str(p) for p in total.groebner_basis(budget)],
    }


def _search_route(
    total: DoubledIdeal,
    theta: DoubledIdeal,
    config: CurveSearchConfig,
    budget: int,
):
    """First verified witness, else the per-generator search reports."""
    reports = []
    for g in theta.generators:
        found = closure_test(g, total, budget=budget, config=config)
        if isinstance(found, Witness):
            if not verify_witness_dense(found, total):
                raise AuditError(
                    "witness failed its independent replay; the fast "
                    "pullback path and the dense path disagree"
                )
            return found, tuple(reports)
        reports.append(found)
    return None, tuple(reports)


def analyze(
    base: MatrixGerm,
    direction: MatrixGerm,
    options: AnalyzeOptions | None = None,
    coefficient_labels: Mapping[str, object] | None = None,
) -> Verdict:
    """Run the verdict pipeline on the family ``base + t*direction``.

    ``coefficient_labels`` is carried into the report verbatim; it does
    not influence the computation.  Budget exhaustion in the inclusion
    route is not an error: the pipeline falls through to the curve
    search and, at worst, returns Inconclusive.
    """
    options = options or AnalyzeOptions()
    started = time.perf_counter()
    timings: dict = {}
    u = build_unfolding(base, direction)
    labels = (
        {k: Fraction(v) for k, v in coefficient_labels.items()}
        if coefficient_labels is not None
        else None
    )

    def verdict(outcome, route, certificate, witness=None, searches=(), audit=None):
        timings["total"] = time.perf_counter() - started
        return Verdict(
            outcome=outcome,
            route=route,
            certificate=certificate,
            unfolding=u,
            witness=witness,
            searches=tuple(searches),
            field=options.field,
            timings=timings,
            coefficient_labels=labels,
            audit=audit,
        )

    if direction.is_constant:
        cert = {
            "type": "inclusion",
            "data": {
                "route": "constant",
                "reason": "constant direction has zero difference ideal",
            },
        }
        audit_info = None
        if options.audit:
            audit_info = {"inclusion_shown": True, "witness_found": False}
        return verdict(LIPSCHITZ, "constant", cert, audit=audit_info)

    total = unfolding_double_ideal(u)
    theta = direction_double_ideal(u)
    assert theta is not None  # nonconstant direction has a nonzero double

    inclusion_data: dict | None = None
    inclusion_known: bool | None = None  # None: budget ran out
    diagonal_data: dict | None = None

    clock = time.perf_counter()
    try:
        if entries_cut_reduced_origin(base):
            diagonal_data = _diagonal_route(
                u, total, theta, options.groebner_budget
            )
        if diagonal_data is None:
            inclusion_data = _inclusion_route(
                total, theta, options.groebner_budget
            )
            inclusion_known = inclusion_data is not None
    except BudgetExceeded:
        pass  # Inconclusive is the worst case, never a crash
    timings["groebner"] = time.perf_counter() - clock

    witness = None
    searches: tuple[SearchReport, ...] = ()
    config = CurveSearchConfig(
        max_exponent=options.max_exponent or max(4, base.entry_max_degree() + 2),
        parameter=PARAMETER,
    )
    need_search = options.audit or (
        diagonal_data is None and inclusion_data is None
    )
    if need_search:
        clock = time.perf_counter()
        witness, searches = _search_route(
            total, theta, config, options.curve_budget
        )
        timings["search"] = time.perf_counter() - clock

    audit_info = None
    if options.audit:
        audit_info = {
            "inclusion_shown": (
                True if (diagonal_data or inclusion_data) else inclusion_known
            ),
            "witness_found": witness is not None,
        }
        if audit_info["inclusion_shown"] and witness is not None:
            raise AuditError(
                "inclusion certificate and closure witness for the same "
                "family: membership implies closure membership, so one "
                "of the two computations is wrong"
            )

    if diagonal_data is not None:
        return verdict(
            LIPSCHITZ,
            "diagonal",
            {"type": "inclusion", "data": diagonal_data},
            searches=searches,
            audit=audit_info,
        )
    if inclusion_data is not None:
        return verdict(
            LIPSCHITZ,
            "inclusion",
            {"type": "inclusion", "data": inclusion_data},
            searches=searches,
            audit=audit_info,
        )
    if witness is not None:
        orders = {
            str(g): _order_json(
                pullback_dense(g, witness.curve).order_of_vanishing()
            )
            for g in total.generators
        }
        cert = {
            "type": "witness",
            "data": {
                "curve": format_curve(witness.curve),
                "element": str(witness.element),
                "element_order": _order_json(witness.element_order),
                "ideal_order": _order_json(witness.ideal_order),
                "generator_orders": orders,
            },
        }
        return verdict(
            NOT_LIPSCHITZ, "witness", cert, witness=witness, audit=audit_info
        )
    cert = {
        "type": "search",
        "data": {
            "max_exponent": config.max_exponent,
            "coefficients": list(config.coefficients),
            "generators": [
                {
                    "element": str(g),
                    "curves_tried": rep.curves_tried,
                    "budget_exhausted": rep.budget_exhausted,
                    "best_gap": rep.best_gap,
                }
                for g, rep in zip(theta.generators, searches)
            ],
            "inclusion_budget_exhausted": inclusion_known is None,
        },
    }
    return verdict(INCONCLUSIVE, "search", cert, searches=searches, audit=audit_info)


def verify_witness_dense(witness: Witness, ideal: Ideal) -> bool:
    """Replay a witness through the dense substitution path.

    Recomputes every order from scratch by repeated polynomial
    multiplication, sharing no code with the integer order kernel that
    found the witness or with :func:`~liptriv.curves.pullback`, and
    checks the recorded orders and the strict drop.
    """
    element_order = pullback_dense(
        witness.element, witness.curve
    ).order_of_vanishing()
    ideal_order = min(
        (
            pullback_dense(g, witness.curve).order_of_vanishing()
            for g in ideal.generators
        ),
        default=math.inf,
    )
    return (
        element_order == witness.element_order
        and ideal_order == witness.ideal_order
        and element_order < ideal_order
    )


def verify_inclusion_certificate(verdict: Verdict) -> bool:
    """Replay an inclusion certificate from its serialized form.

    Every recorded membership is re-parsed from strings and recombined
    with plain ring arithmetic; nothing of the original computation is
    trusted except the text of the certificate itself.  Malformed text
    (a missing block or field, an unparsable polynomial, a variable
    outside the doubled ring) fails the replay.
    """
    if verdict.certificate.get("type") != "inclusion":
        return False
    ring = verdict.unfolding.extended_ring.doubled_extension()
    try:
        data = verdict.certificate["data"]
        if data.get("route") == "constant":
            return verdict.unfolding.direction.is_constant
        blocks = (
            [data["memberships"]]
            if "memberships" in data
            else [data["direction_into_diagonal"], data["diagonal_into_family"]]
        )
        for block in blocks:
            for membership in block:
                target = parse_polynomial(membership["generator"], ring)
                total = ring.zero()
                for pair in membership["cofactors"]:
                    cofactor = parse_polynomial(pair["cofactor"], ring)
                    basis = parse_polynomial(pair["basis"], ring)
                    total = total + cofactor * basis
                if total != target:
                    return False
    except (KeyError, TypeError, RingError):
        return False
    return True


@dataclass(frozen=True)
class TableCell:
    """One (family, parameters, direction) entry of the reproduction."""

    index: int
    k: int | None
    l: int | None
    discriminant: str
    direction_label: str
    coefficients: dict
    expected: str | None
    outcome: str
    route: str
    passed: bool | None

    def to_report(self) -> dict:
        return {
            "family": self.index,
            "k": self.k,
            "l": self.l,
            "discriminant": self.discriminant,
            "direction": self.direction_label,
            "coefficients": {k: str(v) for k, v in self.coefficients.items()},
            "expected": self.expected,
            "outcome": self.outcome,
            "route": self.route,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class TableReport:
    """All cells of a catalog reproduction run, in deterministic order."""

    cells: tuple[TableCell, ...]
    max_k: int
    max_l: int
    elapsed: float

    @property
    def all_passed(self) -> bool:
        return all(cell.passed is not False for cell in self.cells)

    @property
    def counts(self) -> dict:
        summary = {"passed": 0, "failed": 0, "unchecked": 0}
        for cell in self.cells:
            if cell.passed is None:
                summary["unchecked"] += 1
            elif cell.passed:
                summary["passed"] += 1
            else:
                summary["failed"] += 1
        return summary

    def to_report(self) -> dict:
        return {
            "max_k": self.max_k,
            "max_l": self.max_l,
            "all_passed": self.all_passed,
            "counts": self.counts,
            "cells": [cell.to_report() for cell in self.cells],
            "timings": {"total": self.elapsed},
        }


def _cell_parameters(max_k: int, max_l: int):
    for k in range(1, max_k + 1):
        for l in range(2, max_l + 1):
            yield 1, k, l
    for index in (2, 3, 4):
        for k in range(2, max_k + 1):
            yield index, k, None
    yield 5, None, None
    yield 6, None, None


def _cell_directions(nf):
    for name in nf.coefficient_names():
        yield f"{name}=1", {name: Fraction(1)}
    yield "random", random_direction(nf)
    yield "zero", {}


def reproduce_catalog_table(
    max_k: int = 4,
    max_l: int = 4,
    options: AnalyzeOptions | None = None,
) -> TableReport:
    """Run the pipeline over the whole catalog and grade the outcomes.

    Every family is sampled at each unit coefficient direction, one
    seeded pseudo-random combination, and the zero direction.  A cell
    passes when the pipeline verdict matches the classification rule;
    directions the classification leaves open are recorded with
    ``passed=None`` and never count as failures.  Grading is exact:
    an Inconclusive outcome on a decided direction is a failure.
    """
    options = options or AnalyzeOptions()
    started = time.perf_counter()
    cells = []
    for index, k, l in _cell_parameters(max_k, max_l):
        nf = normal_form(index, k=k, l=l)
        cell_options = options
        if options.max_exponent is None:
            cell_options = replace(options, max_exponent=nf.max_exponent)
        for label, coeffs in _cell_directions(nf):
            expected = nf.expected_verdict(coeffs)
            result = analyze(
                nf.matrix,
                nf.theta(coeffs),
                cell_options,
                coefficient_labels=coeffs,
            )
            passed = None if expected is None else result.outcome == expected
            cells.append(
                TableCell(
                    index=index,
                    k=k,
                    l=l,
                    discriminant=nf.discriminant,
                    direction_label=label,
                    coefficients=dict(coeffs),
                    expected=expected,
                    outcome=result.outcome,
                    route=result.route,
                    passed=passed,
                )
            )
    return TableReport(
        cells=tuple(cells),
        max_k=max_k,
        max_l=max_l,
        elapsed=time.perf_counter() - started,
    )
