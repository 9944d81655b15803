"""Command-line front end.

Subcommands map one-to-one onto library calls:

* ``analyze``          verdict pipeline for one germ and direction
* ``normal-space``     basis of the normal space of a germ
* ``pullback``         orders of an ideal along a monomial curve
* ``double``           generators of the difference ideal of a family
* ``check-inclusion``  the inclusion route alone, with certificates
* ``reproduce-table``  grade the whole catalog against its rules

Exit codes: 0 for a completed run (including a NotLipschitz verdict),
1 for usage errors (an output that cannot be written among them, a
closed pipe on standard output too), 2 when the answer is "not shown"
(Inconclusive verdicts, a failed inclusion check, a table with failing
cells, a normal space whose basis is not stable at its jet degree),
and 3 when a resource budget stopped a computation that was asked for
directly.

Standard output is deterministic for a fixed command line and input
files; timing figures only appear in JSON reports (``--json PATH``).

Germ files: one optional header line ``vars: x, y`` naming the source
variables, then a matrix in the usual text form, e.g.::

    vars: x, y
    sym: y^2, x ; x, y^3
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

from .analyzer import (
    INCONCLUSIVE,
    AnalyzeOptions,
    _order_json,
    analyze,
    reproduce_catalog_table,
)
from .catalog import (
    CATALOG_INDICES,
    CatalogError,
    normal_form,
    random_direction,
)
from .curves import parse_curve, pullback_ideal
from .doubling import (
    MatrixGerm,
    build_unfolding,
    direction_double_ideal,
    format_matrix_germ,
    parse_matrix_germ,
    unfolding_double_ideal,
)
from .groebner import BudgetExceeded, GroebnerBudget, membership_certificate
from .rings import RingContext, RingError
from .tangent import normal_space_basis

__all__ = ["main", "run_command"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NOT_SHOWN = 2
_EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for "not shown"
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type of the budgets and caps: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="liptriv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def germ_flags(p, direction=True, catalog_flag="--catalog", catalog_help=None):
        p.add_argument(
            catalog_flag,
            type=int,
            choices=CATALOG_INDICES,
            dest="catalog",
            help=catalog_help,
        )
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--germ-file", type=Path)
        if direction:
            p.add_argument(
                "--theta",
                help="named coefficients for a catalog direction, "
                "e.g. 'a1=1,b0=3/2'",
            )
            p.add_argument("--theta-file", type=Path)
            p.add_argument(
                "--random-direction",
                action="store_true",
                help="use the seeded pseudo-random catalog direction",
            )

    p = sub.add_parser("analyze", help="run the verdict pipeline")
    germ_flags(p)
    p.add_argument("--max-exponent", type=_positive_int)
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=AnalyzeOptions.curve_budget,
        help="curve search budget",
    )
    p.add_argument("--audit", action="store_true")
    p.add_argument("--json", type=Path)

    p = sub.add_parser("normal-space", help="basis of the normal space")
    germ_flags(p, direction=False)
    p.add_argument("--jet-degree", type=int)
    p.add_argument("--json", type=Path)

    p = sub.add_parser("pullback", help="ideal orders along a curve")
    p.add_argument("--curve", required=True)
    germ_flags(
        p,
        catalog_flag="--ideal-from-catalog",
        catalog_help="family ideal of the catalog entry deformed by --theta",
    )

    p = sub.add_parser("double", help="difference ideal of a family")
    germ_flags(p)

    p = sub.add_parser("check-inclusion", help="inclusion route alone")
    germ_flags(p)
    budget = AnalyzeOptions.groebner_budget
    p.add_argument("--max-pairs", type=_positive_int, default=budget.max_pairs)
    p.add_argument("--max-degree", type=_positive_int, default=budget.max_degree)

    p = sub.add_parser("reproduce-table", help="grade the whole catalog")
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--max-l", type=int, default=4)
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=AnalyzeOptions.curve_budget,
        help="curve search budget",
    )
    p.add_argument("--json", type=Path)
    return parser


def _parse_theta_text(text: str) -> dict[str, str]:
    """Names and value texts; :meth:`NormalForm.theta` reads the values."""
    coeffs: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        if not sep:
            raise _UsageError(f"--theta entries look like name=value: {chunk!r}")
        coeffs[name.strip()] = value.strip()
    return coeffs


def _read_germ_file(path: Path) -> MatrixGerm:
    try:
        text = path.read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and lines[0].lstrip().startswith("vars:"):
        names = tuple(
            name.strip() for name in lines[0].split(":", 1)[1].split(",")
        )
        ring = RingContext(names)
        body = "\n".join(lines[1:])
    else:
        raise _UsageError(
            f"{path}: first line must declare variables, e.g. 'vars: x, y'"
        )
    return parse_matrix_germ(body, ring)


def _resolve_inputs(args, need_direction=True):
    """Base germ, direction, catalog entry, coefficient labels."""
    nf = None
    if args.catalog is not None:
        nf = normal_form(args.catalog, k=args.k, l=args.l)
        base = nf.matrix
        if args.germ_file is not None:
            raise _UsageError("--catalog and --germ-file are exclusive")
    elif args.germ_file is not None:
        if args.k is not None or args.l is not None:
            raise _UsageError("--k/--l only apply to --catalog")
        base = _read_germ_file(args.germ_file)
    else:
        raise _UsageError("need a germ: --catalog N or --germ-file PATH")
    if not need_direction:
        return base, None, nf, None

    if sum(map(bool, (args.theta, args.theta_file, args.random_direction))) > 1:
        raise _UsageError(
            "--theta, --theta-file, and --random-direction are exclusive"
        )
    labels = None
    if args.theta:
        if nf is None:
            raise _UsageError("--theta names catalog coefficients; use "
                              "--theta-file with --germ-file")
        labels = _parse_theta_text(args.theta)
        direction = nf.theta(labels)
    elif args.theta_file:
        direction = _read_germ_file(args.theta_file)
        if direction.ring != base.ring:
            raise _UsageError("direction file must use the germ's variables")
    elif args.random_direction:
        if nf is None:
            raise _UsageError("--random-direction needs --catalog")
        labels = random_direction(nf)
        direction = nf.theta(labels)
    else:
        labels = {}
        direction = base.map_entries(lambda p: p.ring.zero())
    return base, direction, nf, labels


def _check_writable(path: Path) -> None:
    """Refuse an unwritable ``--json`` path before any work, without
    creating or truncating it; :func:`_write_json` reports the rest."""
    if path.is_dir():
        problem = errno.EISDIR
    elif not path.parent.is_dir():
        problem = errno.ENOENT
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        problem = errno.EACCES
    else:
        return
    raise _UsageError(f"cannot write {path}: {os.strerror(problem)}")


def _write_json(path: Path, payload: dict) -> None:
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    base, direction, nf, labels = _resolve_inputs(args)
    max_exponent = args.max_exponent
    if max_exponent is None and nf is not None:
        max_exponent = nf.max_exponent
    options = AnalyzeOptions(
        max_exponent=max_exponent,
        curve_budget=args.budget,
        audit=args.audit,
    )
    verdict = analyze(base, direction, options, coefficient_labels=labels)
    print(f"germ:      {format_matrix_germ(base)}")
    print(f"direction: {format_matrix_germ(direction)}")
    print(f"outcome:   {verdict.outcome} (route: {verdict.route})")
    data = verdict.certificate["data"]
    if verdict.route == "witness":
        print(f"witness curve: {data['curve']}")
        print(
            f"element: {data['element']} "
            f"(order {data['element_order']}, "
            f"ideal order {data['ideal_order']})"
        )
    elif verdict.route in ("inclusion", "diagonal"):
        shown = data.get("memberships") or data.get("direction_into_diagonal")
        print(f"memberships shown: {len(shown)}")
    elif verdict.route == "search":
        tried = sum(g["curves_tried"] for g in data["generators"])
        print(f"no witness in {tried} curves; inclusion not shown")
    for note in verdict.to_report()["assumed_preconditions"]:
        print(f"assumed: {note}")
    if args.json:
        _write_json(args.json, verdict.to_report())
    return _EXIT_NOT_SHOWN if verdict.outcome == INCONCLUSIVE else _EXIT_OK


def _cmd_normal_space(args) -> int:
    base, _, _, _ = _resolve_inputs(args, need_direction=False)
    result = normal_space_basis(base, jet_degree=args.jet_degree)
    print(f"germ: {format_matrix_germ(base)}")
    print(f"normal space dimension: {result.codimension}")
    for label, germ in zip(result.basis_labels, result.basis):
        print(f"{label}: {format_matrix_germ(germ)}")
    if not result.stable:
        print(
            f"warning: basis not stable at jet degree {result.jet_degree}",
            file=sys.stderr,
        )
    if args.json:
        _write_json(
            args.json,
            {
                "germ": format_matrix_germ(base),
                "jet_degree": result.jet_degree,
                "codimension": result.codimension,
                "labels": list(result.basis_labels),
                "basis": [format_matrix_germ(g) for g in result.basis],
                "stable": result.stable,
            },
        )
    return _EXIT_OK if result.stable else _EXIT_NOT_SHOWN


def _unfolding_ideal(args):
    base, direction, _, _ = _resolve_inputs(args)
    return unfolding_double_ideal(build_unfolding(base, direction))


def _cmd_pullback(args) -> int:
    ideal = _unfolding_ideal(args)
    curve = parse_curve(args.curve, ideal.ring)
    orders = pullback_ideal(curve, ideal)
    for generator, order in zip(ideal.generators, orders):
        print(f"generator: {generator} -> order {_order_json(order)}")
    print(f"ideal order: {_order_json(min(orders, default=math.inf))}")
    return _EXIT_OK


def _cmd_double(args) -> int:
    for g in _unfolding_ideal(args).generators:
        print(g)
    return _EXIT_OK


def _cmd_check_inclusion(args) -> int:
    base, direction, _, _ = _resolve_inputs(args)
    if direction.is_constant:
        print("inclusion holds: constant direction, zero difference ideal")
        return _EXIT_OK
    unfolding = build_unfolding(base, direction)
    total = unfolding_double_ideal(unfolding)
    budget = GroebnerBudget(args.max_pairs, args.max_degree)
    failed = []
    # Reports every generator; the analyzer's route stops at the first failure.
    for g in direction_double_ideal(unfolding).generators:
        pairs = membership_certificate(g, total, budget)
        if pairs is None:
            failed.append(g)
            print(f"not shown: {g}")
        else:
            print(f"member: {g}  ({len(pairs)} cofactors)")
    if failed:
        print(f"inclusion not shown for {len(failed)} generator(s)")
        return _EXIT_NOT_SHOWN
    print("inclusion holds")
    return _EXIT_OK


def _cmd_reproduce_table(args) -> int:
    options = AnalyzeOptions(curve_budget=args.budget)
    report = reproduce_catalog_table(args.max_k, args.max_l, options)
    for cell in report.cells:
        params = "".join(
            f" {name}={value}"
            for name, value in (("k", cell.k), ("l", cell.l))
            if value is not None
        )
        grade = {True: "pass", False: "FAIL", None: "open"}[cell.passed]
        expected = cell.expected or "-"
        print(
            f"family {cell.index} ({cell.discriminant}){params} "
            f"direction {cell.direction_label}: expected {expected}, "
            f"got {cell.outcome} [{grade}]"
        )
    counts = report.counts
    print(
        f"summary: {counts['passed']} passed, {counts['failed']} failed, "
        f"{counts['unchecked']} open"
    )
    if args.json:
        _write_json(args.json, report.to_report())
    return _EXIT_OK if report.all_passed else _EXIT_NOT_SHOWN


_COMMANDS = {
    "analyze": _cmd_analyze,
    "normal-space": _cmd_normal_space,
    "pullback": _cmd_pullback,
    "double": _cmd_double,
    "check-inclusion": _cmd_check_inclusion,
    "reproduce-table": _cmd_reproduce_table,
}


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "json", None) is not None:
            _check_writable(args.json)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (CatalogError, RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return _EXIT_BUDGET


def main(argv: list[str] | None = None) -> int:
    try:
        code = run_command(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout once more at exit; let that go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write standard output: broken pipe", file=sys.stderr)
        return _EXIT_USAGE
