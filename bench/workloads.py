"""Inputs and passes of the three benchmark workloads.

Inputs come from the seed alone; liptriv only receives them.  One pass
runs every input once, grades it, and replays its evidence.  Library
calls go through module attributes (``lt.analyze``) so that the traced
run's wrappers are seen; the replay runs inside ``untraced()``, so the
traced run records only the library's own calls.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

# The 167-cell catalog grid at max_k = max_l = 4, in table order.
TABLE_MAX_K = TABLE_MAX_L = 4

# Criterion 1's normal-space grid (k <= 5, l <= 5) and its codimension rule.
GRID_MAX_K = GRID_MAX_L = 5
CODIMENSION = {
    1: lambda k, l: k + l - 1,
    2: lambda k, l: k + 2,
    3: lambda k, l: 2 * k,
    4: lambda k, l: 2 * k + 1,
    5: lambda k, l: 6,
    6: lambda k, l: 7,
}

# Criterion 4's 3x3 germ: its entries cut the reduced origin.
DIAGONAL_GERM = "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2"
DIAGONAL_CODIMENSION = 12
DIAGONAL_COMBINATIONS = 200


def catalog_parameters(max_k: int, max_l: int):
    for k in range(1, max_k + 1):
        for l in range(2, max_l + 1):
            yield 1, k, l
    for index in (2, 3, 4):
        for k in range(2, max_k + 1):
            yield index, k, None
    yield 5, None, None
    yield 6, None, None


@dataclass
class PassResult:
    """What one pass did: its times, verdict latencies and grading.

    ``wall_s`` is the raw wall time of the pass's operations; ``scaled_s``
    and ``latencies_ms`` are scaled to reference seconds (see
    ``hostspeed``).  ``replay_wall_s`` is the raw part of ``wall_s``
    spent replaying evidence.  Latencies cover non-constant directions only: a
    constant direction returns before any computation, and with 81 of the
    167 table cells constant, the median of all calls would sit on the
    jump between the two groups.
    """

    wall_s: float = 0.0
    scaled_s: float = 0.0
    replay_wall_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    verdicts: int = 0
    decided: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    graded: dict = field(default_factory=lambda: {"passed": 0, "failed": 0, "unchecked": 0})
    rows: list = field(default_factory=list)
    _latency_s: float | None = None

    @contextmanager
    def operation(self, host):
        """Time one graded operation, then probe the host to scale it."""
        self.attempted += 1
        self._latency_s = None
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            factor = host.factor()
            self.wall_s += elapsed
            self.scaled_s += elapsed * factor
            if self._latency_s is not None:
                self.latencies_ms.append(self._latency_s * factor * 1000)

    def verdict(self, seconds: float, decided: bool, direction) -> None:
        self.verdicts += 1
        self.decided += decided
        if not direction.is_constant:
            self._latency_s = seconds

    def replay(self, lt, verdict, untraced) -> bool:
        """Replay the verdict's evidence, timed, outside the trace."""
        with untraced():
            started = time.perf_counter()
            replayed = _replay(lt, verdict)
            self.replay_wall_s += time.perf_counter() - started
        return replayed

    def fail(self, what: str) -> None:
        self.failures.append(what)


# -- table-plain and table-audit ------------------------------------------


@dataclass(frozen=True)
class Cell:
    family: int
    k: int | None
    l: int | None
    direction: str
    coefficients: dict
    matrix: object
    theta: object
    options: object
    expected: str | None


def seeded_direction(lt, nf, rng: random.Random | None) -> dict:
    """The library's own random direction, its nonzero values redrawn by ``rng``.

    Which slots are nonzero decides a cell's route and search depth, so a
    fresh support per seed would swing a pass by seconds (one open cell
    searches 4000 curves, one E6 witness sits deep in the enumeration).
    The seed therefore redraws values in {-2, -1, 1, 2} on the library's
    support; seed 0 (``rng is None``) keeps the library's values.
    """
    coeffs = lt.random_direction(nf)
    if rng is None:
        return coeffs
    return {
        name: Fraction(rng.choice((-2, -1, 1, 2))) if value else value
        for name, value in coeffs.items()
    }


def table_inputs(lt, seed: int, audit: bool) -> list[Cell]:
    """Each germ's unit directions, one seeded combination, and zero."""
    cells = []
    rng = random.Random(seed) if seed else None
    for index, k, l in catalog_parameters(TABLE_MAX_K, TABLE_MAX_L):
        nf = lt.normal_form(index, k=k, l=l)
        options = lt.AnalyzeOptions(max_exponent=nf.max_exponent, audit=audit)
        directions = [(f"{name}=1", {name: Fraction(1)}) for name in nf.coefficient_names()]
        directions.append(("random", seeded_direction(lt, nf, rng)))
        directions.append(("zero", {}))
        for label, coeffs in directions:
            cells.append(
                Cell(
                    family=index,
                    k=k,
                    l=l,
                    direction=label,
                    coefficients=coeffs,
                    matrix=nf.matrix,
                    theta=nf.theta(coeffs),
                    options=options,
                    expected=nf.expected_verdict(coeffs),
                )
            )
    return cells


def _replay(lt, verdict) -> bool:
    if verdict.certificate.get("type") == "inclusion":
        return lt.verify_inclusion_certificate(verdict)
    if verdict.witness is not None:
        ideal = lt.unfolding_double_ideal(verdict.unfolding)
        return lt.verify_witness_dense(verdict.witness, ideal)
    return verdict.outcome == lt.INCONCLUSIVE


def table_pass(lt, cells: list[Cell], host, untraced=nullcontext) -> PassResult:
    result = PassResult()
    clock = time.perf_counter
    for cell in cells:
        name = f"family {cell.family} k={cell.k} l={cell.l} {cell.direction}"
        with result.operation(host):
            try:
                t0 = clock()
                verdict = lt.analyze(cell.matrix, cell.theta, cell.options, coefficient_labels=cell.coefficients)
                result.verdict(clock() - t0, verdict.outcome != lt.INCONCLUSIVE, cell.theta)
                replayed = result.replay(lt, verdict, untraced)
            except Exception as exc:  # every exception is a graded failure
                result.fail(f"{name}: {type(exc).__name__}: {exc}")
                result.graded["failed"] += 1
                continue
        result.rows.append((cell.family, cell.k, cell.l, cell.direction, verdict.outcome, verdict.route))
        if cell.expected is not None and verdict.outcome != cell.expected:
            problem = f"expected {cell.expected}, got {verdict.outcome}"
        elif not replayed:
            problem = f"{verdict.route} evidence failed replay"
        else:
            result.graded["unchecked" if cell.expected is None else "passed"] += 1
            continue
        result.graded["failed"] += 1
        result.fail(f"{name}: {problem}")
    return result


def table_reference_rows(lt) -> tuple[list, dict]:
    """The library's own seed-0 table, as rows comparable to a pass."""
    report = lt.reproduce_catalog_table(TABLE_MAX_K, TABLE_MAX_L)
    rows = [
        (c.index, c.k, c.l, c.direction_label, c.outcome, c.route)
        for c in report.cells
    ]
    return rows, report.counts


# -- normal-diagonal ----------------------------------------------------------


@dataclass(frozen=True)
class DiagonalInputs:
    grid: list  # (label, matrix, expected codimension)
    germ: object
    weights: list  # one list of basis weights per combination


def diagonal_inputs(lt, seed: int) -> DiagonalInputs:
    grid = []
    for index, k, l in catalog_parameters(GRID_MAX_K, GRID_MAX_L):
        nf = lt.normal_form(index, k=k, l=l)
        grid.append((f"family {index} k={k} l={l}", nf.matrix, CODIMENSION[index](k, l)))
    ring = lt.RingContext(("x", "y", "z"))
    germ = lt.parse_matrix_germ(DIAGONAL_GERM, ring)
    grid.append(("3x3 germ", germ, DIAGONAL_CODIMENSION))
    rng = random.Random(seed)
    weights = [
        [rng.randint(-2, 2) for _ in range(DIAGONAL_CODIMENSION)]
        for _ in range(DIAGONAL_COMBINATIONS)
    ]
    return DiagonalInputs(grid=grid, germ=germ, weights=weights)


def diagonal_pass(lt, inputs: DiagonalInputs, host, untraced=nullcontext) -> PassResult:
    result = PassResult()
    clock = time.perf_counter
    basis = ()
    for label, matrix, codimension in inputs.grid:
        with result.operation(host):
            try:
                space = lt.normal_space_basis(matrix)
            except Exception as exc:
                result.fail(f"normal space of {label}: {type(exc).__name__}: {exc}")
                continue
        if not space.stable or space.codimension != codimension:
            result.fail(
                f"normal space of {label}: stable={space.stable}, "
                f"codimension {space.codimension} != {codimension}"
            )
        if matrix is inputs.germ:
            basis = space.basis
    germ = inputs.germ
    directions = [(f"basis {i}", b) for i, b in enumerate(basis)]
    zero = germ.map_entries(lambda p: p.ring.zero())
    for n, weights in enumerate(inputs.weights):
        direction = zero
        for w, b in zip(weights, basis):
            if w:
                direction = direction + b.scale(Fraction(w))
        directions.append((f"combination {n}", direction))
    for label, direction in directions:
        with result.operation(host):
            try:
                t0 = clock()
                verdict = lt.analyze(germ, direction)
                result.verdict(clock() - t0, verdict.outcome != lt.INCONCLUSIVE, direction)
                replayed = result.replay(lt, verdict, untraced)
            except Exception as exc:
                result.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
        route = "constant" if direction.is_constant else "diagonal"
        if verdict.outcome != lt.LIPSCHITZ or verdict.route != route:
            result.fail(f"{label}: {verdict.outcome} by {verdict.route}, expected Lipschitz by {route}")
        elif not replayed:
            result.fail(f"{label}: certificate failed replay")
    return result
