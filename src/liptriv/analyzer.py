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
2. Refute before proving: the curve search of step 4 on the first
   direction generator only, over the first ``min(PREFIX_CURVES,
   curve_budget)`` curves of its stream.  A witness refutes closure
   membership (the valuative criterion), hence membership too, so step
   3 would fail and step 4 would return this very witness: it walks
   generator 0 first over the same stream.  A hit is therefore the
   verdict's witness, and steps 3 and 4 are skipped; a miss changes
   nothing.  Later generators are left out because their witness would
   not be the one step 4 reports, and the cap keeps the prefix inside
   the budget the full search honours.
   Skipped under ``audit=True``, which runs steps 3 and 4 in full.
3. Direct inclusion of difference ideals, certified by division
   cofactors against a Groebner basis.
4. A curve search for a witness against closure membership.  A hit
   carries the order of every generator of the family ideal along its
   curve; each of those orders, and the element's, is replayed through
   an independent substitution path, and the certificate is written
   from the replayed record.
5. Otherwise the honest answer is Inconclusive, with the search report.

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

from .catalog import (
    LIPSCHITZ,
    NOT_LIPSCHITZ,
    catalog_parameters,
    coefficient_value,
    normal_form,
    random_direction,
)
from .curves import (
    ARC_COEFFICIENTS,
    AuditError,
    SearchReport,
    Witness,
    closure_test,
    format_curve,
    pullback_dense,
)
from .doubling import (
    PARAMETER,
    MatrixGerm,
    Unfolding,
    build_unfolding,
    diagonal_ideal,
    direction_double_ideal,
    format_matrix_germ,
    unfolding_double_ideal,
    unfolding_ring,
)
from .groebner import (
    BudgetExceeded,
    GroebnerBudget,
    Ideal,
    _require_budget,
    membership_certificate,
)
from .rings import (
    Polynomial,
    RingError,
    _require_count,
    parse_polynomial,
)
from .tangent import entries_cut_reduced_origin

__all__ = [
    "ASSUMED_PRECONDITIONS",
    "AnalyzeOptions",
    "AuditError",
    "INCONCLUSIVE",
    "PREFIX_CURVES",
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

# Curves of the first direction generator searched before the general
# membership (step 2 of the module docstring).  Witnesses cluster at the
# head of the stream, and a miss costs well under a millisecond, so the
# size is not critical; it is fixed, never tuned per input.
PREFIX_CURVES = 25


@dataclass(frozen=True)
class AnalyzeOptions:
    """Dials for the pipeline; the defaults fit the bundled catalog.

    Two budgets (Groebner, curves per generator), the search depth
    ``max_exponent`` (``None``: entry degree + 2, at least 4) and
    ``audit``.  ``curve_budget`` also caps the prefix search that runs
    before the membership (see :func:`analyze`).
    ``groebner_budget`` must be a :class:`GroebnerBudget`;
    ``curve_budget`` and ``max_exponent`` must be ``int`` values of at
    least 1 (a ``bool`` is refused).  The arcs are the fixed family of
    :mod:`liptriv.curves`.
    """

    groebner_budget: GroebnerBudget = GroebnerBudget()
    # Witnesses against degree-k entries can need arcs of exponent
    # about k on two variables at once, which sits deep in the
    # enumeration; 4000 covers the bundled catalog through k = 4.
    curve_budget: int = 4000
    max_exponent: int | None = None
    audit: bool = False

    def __post_init__(self) -> None:
        _require_budget("groebner_budget", self.groebner_budget)
        _require_count("curve_budget", self.curve_budget, 1)
        if self.max_exponent is not None:
            _require_count("max_exponent", self.max_exponent, 1)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one analysis, carrying its replayable evidence."""

    outcome: str
    route: str
    certificate: dict
    unfolding: Unfolding
    witness: Witness | None
    searches: tuple[SearchReport, ...]
    timings: dict
    coefficient_labels: dict | None
    audit: dict | None

    def to_report(self) -> dict:
        """The verdict as JSON data.  ``fields`` is always ``["real",
        "complex"]``: every route's evidence holds over both, since a
        membership is a polynomial identity and a real arc is complex too.
        """
        base = self.unfolding.base
        coeffs = self.coefficient_labels or {}
        return {
            "germ": format_matrix_germ(base),
            "parameters": {
                "source_variables": list(base.ring.variables),
                "deformation_parameter": PARAMETER,
                "note": f"deformation parameter standardized to {PARAMETER!r}",
            },
            "theta_coefficients": {k: str(v) for k, v in coeffs.items()},
            "direction": format_matrix_germ(self.unfolding.direction),
            "outcome": self.outcome,
            "route": self.route,
            "certificate": self.certificate,
            "assumed_preconditions": list(ASSUMED_PRECONDITIONS),
            "fields": ["real", "complex"],
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


def _memberships(generators, ideal: Ideal, budget: GroebnerBudget) -> list | None:
    """Certified memberships of every generator, or None at the first miss."""
    shown = []
    for g in generators:
        pairs = membership_certificate(g, ideal, budget)
        if pairs is None:
            return None
        shown.append(_membership_json(g, pairs))
    return shown


def _diagonal_route(
    base: MatrixGerm,
    total: Ideal,
    theta: Ideal,
    budget: GroebnerBudget,
) -> dict | None:
    """Membership blocks for the chain through the diagonal ideal, or None.

    The route applies only when the entries of ``base`` generate the
    maximal ideal at the origin.  Both steps are exact memberships:
    every generator of the direction ideal falls in the diagonal ideal,
    and every generator ``v - v'`` of the diagonal ideal falls in the
    family ideal.  The first step holds for any difference ideal; it is
    still replayed so the certificate stands on division alone.
    """
    if not entries_cut_reduced_origin(base):
        return None
    diagonal = diagonal_ideal(total.ring)
    into_diagonal = _memberships(theta.generators, diagonal, budget)
    if into_diagonal is None:
        return None
    differences = _memberships(diagonal.generators, total, budget)
    if differences is None:
        return None
    return {
        "route": "diagonal",
        "direction_into_diagonal": into_diagonal,
        "diagonal_into_family": differences,
    }


def _search_route(
    generators,
    total: Ideal,
    max_exponent: int,
    budget: int,
):
    """First verified witness, else the per-generator search reports.

    The generators are searched in order, each over the first ``budget``
    curves of its stream.
    """
    reports = []
    for g in generators:
        found = closure_test(g, total, budget, max_exponent)
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

    ``coefficient_labels`` is carried into the report, its values read
    by :func:`~liptriv.catalog.coefficient_value`; it does not influence
    the computation.  Budget exhaustion in the inclusion route is not an
    error: the pipeline falls through to the curve search and, at
    worst, returns Inconclusive.

    ``options.curve_budget`` caps the prefix search of the first
    direction generator (step 2 of the module docstring) as well as
    each generator's full search.  The verdict's ``searches``, and the
    ``curves_tried`` of a search certificate, count the full search
    only.  ``timings`` holds seconds: ``total`` always; ``groebner`` on
    every nonconstant direction, for the diagonal route and the
    membership only; ``search`` whenever a curve search ran, the prefix
    included.
    """
    options = options or AnalyzeOptions()
    started = time.perf_counter()
    timings: dict = {}
    u = build_unfolding(base, direction)
    labels = None
    if coefficient_labels is not None:
        labels = {k: coefficient_value(k, v) for k, v in coefficient_labels.items()}

    def timed(key, step, *args):
        clock = time.perf_counter()
        try:
            return step(*args)
        finally:
            timings[key] = timings.get(key, 0.0) + time.perf_counter() - clock

    proof: dict | None = None  # the first route that certified inclusion
    witness: Witness | None = None
    searches: tuple[SearchReport, ...] = ()
    budget_out = False
    if direction.is_constant:
        proof = {
            "route": "constant",
            "reason": "constant direction has zero difference ideal",
        }
    else:
        total = unfolding_double_ideal(u)
        theta = direction_double_ideal(u)
        assert theta is not None  # nonconstant direction has a nonzero double
        max_exponent = options.max_exponent or max(4, base.entry_max_degree() + 2)
        budget = options.groebner_budget
        try:
            proof = timed("groebner", _diagonal_route, base, total, theta, budget)
            if proof is None and not options.audit:
                # Step 2: a witness here is the one the full search returns.
                witness, _ = timed(
                    "search",
                    _search_route,
                    theta.generators[:1],
                    total,
                    max_exponent,
                    min(PREFIX_CURVES, options.curve_budget),
                )
            if proof is None and witness is None:
                memberships = timed(
                    "groebner", _memberships, theta.generators, total, budget
                )
                if memberships is not None:
                    proof = {"route": "inclusion", "memberships": memberships}
            if proof is not None:
                # Both routes end in memberships in the family ideal, so its
                # basis is cached here.
                proof["groebner_basis"] = [str(p) for p in total.groebner_basis(budget)]
        except BudgetExceeded:
            budget_out = True  # Inconclusive is the worst case, never a crash
        if witness is None and (options.audit or proof is None):
            witness, searches = timed(
                "search",
                _search_route,
                theta.generators,
                total,
                max_exponent,
                options.curve_budget,
            )

    audit_info = None
    if options.audit:
        if proof is not None and witness is not None:
            raise AuditError(
                "inclusion certificate and closure witness for the same "
                "family: membership implies closure membership, so one "
                "of the two computations is wrong"
            )
        audit_info = {
            "inclusion_shown": (
                True if proof is not None else (None if budget_out else False)
            ),
            "witness_found": witness is not None,
        }

    if proof is not None:
        outcome, route = LIPSCHITZ, proof["route"]
        certificate = {"type": "inclusion", "data": proof}
    elif witness is not None:
        # A witness verdict reports no search, not even of the
        # generators searched before the witness's own.
        outcome, route, searches = NOT_LIPSCHITZ, "witness", ()
        orders = {
            str(g): _order_json(order)
            for g, order in zip(total.generators, witness.generator_orders)
        }
        certificate = {
            "type": "witness",
            "data": {
                "curve": format_curve(witness.curve),
                "element": str(witness.element),
                "element_order": _order_json(witness.element_order),
                "ideal_order": _order_json(witness.ideal_order),
                "generator_orders": orders,
            },
        }
    else:
        outcome, route = INCONCLUSIVE, "search"
        certificate = {
            "type": "search",
            "data": {
                "max_exponent": max_exponent,
                "coefficients": list(ARC_COEFFICIENTS),
                "generators": [
                    {
                        "element": str(g),
                        "curves_tried": rep.curves_tried,
                        "budget_exhausted": rep.budget_exhausted,
                        "best_gap": rep.best_gap,
                    }
                    for g, rep in zip(theta.generators, searches)
                ],
                "inclusion_budget_exhausted": budget_out,
            },
        }
    timings["total"] = time.perf_counter() - started
    return Verdict(
        outcome=outcome,
        route=route,
        certificate=certificate,
        unfolding=u,
        witness=witness,
        searches=searches,
        timings=timings,
        coefficient_labels=labels,
        audit=audit_info,
    )


def verify_witness_dense(witness: Witness, ideal: Ideal) -> bool:
    """Replay a witness through the dense substitution path.

    Recomputes the element's order and every generator's order from
    scratch by repeated polynomial multiplication, sharing no code with
    the integer order kernel that found the witness or with
    :func:`~liptriv.curves.pullback`.  Each recorded generator order
    must match its replay, not only their minimum, and the element must
    drop strictly below that minimum.
    """

    def order(p: Polynomial):
        return pullback_dense(p, witness.curve).order_of_vanishing()

    generator_orders = tuple(order(g) for g in ideal.generators)
    element_order = order(witness.element)
    return (
        generator_orders == tuple(witness.generator_orders)
        and element_order == witness.element_order
        and element_order < min(generator_orders, default=math.inf)
    )


def verify_inclusion_certificate(verdict: Verdict) -> bool:
    """Replay an inclusion certificate from its serialized form.

    Every recorded membership is rebuilt from its strings and recombined
    with plain ring arithmetic; nothing of the original computation is
    trusted except the text of the certificate itself.  Malformed text
    (a certificate or block that is not a mapping, a missing block or
    field, an unparsable polynomial, a variable outside the doubled
    ring) fails the replay.

    Coverage is checked against the verdict's germ and direction: a
    membership list must name, in order, exactly the generators of
    :func:`~liptriv.doubling.direction_double_ideal`, and the diagonal
    route's second list exactly those of
    :func:`~liptriv.doubling.diagonal_ideal`, ``v - v'`` for every
    variable of the unfolding ring but the shared parameter.  Whether
    each ``basis`` polynomial lies in the target ideal is not checked.
    A polynomial text already parsed in this process, by this call or
    an earlier one, is read from :func:`~liptriv.rings.parse_polynomial`'s
    memo instead of being parsed again.
    """
    certificate = verdict.certificate
    if not isinstance(certificate, Mapping) or certificate.get("type") != "inclusion":
        return False
    u = verdict.unfolding
    ring = unfolding_ring(u.base.ring)

    def parse(text) -> Polynomial:
        return parse_polynomial(text, ring)

    try:
        data = certificate["data"]
        if not isinstance(data, Mapping):
            return False
        if data.get("route") == "constant":
            return u.direction.is_constant
        theta = direction_double_ideal(u)
        direction = list(theta.generators) if theta is not None else []
        if "memberships" in data:
            blocks = [(data["memberships"], direction)]
        else:
            blocks = [
                (data["direction_into_diagonal"], direction),
                (data["diagonal_into_family"], list(diagonal_ideal(ring).generators)),
            ]
        for block, required in blocks:
            if [parse(m["generator"]) for m in block] != required:
                return False
            for membership in block:
                total = ring.zero()
                for pair in membership["cofactors"]:
                    total = total + parse(pair["cofactor"]) * parse(pair["basis"])
                if total != parse(membership["generator"]):
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
    an Inconclusive outcome on a decided direction is a failure.  The
    grid is :func:`~liptriv.catalog.catalog_parameters` (``max_k`` and
    ``max_l`` at least 2).
    """
    options = options or AnalyzeOptions()
    started = time.perf_counter()
    cells = []
    for index, k, l in catalog_parameters(max_k, max_l):
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
