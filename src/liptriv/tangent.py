"""Finite-jet tangent spaces and normal space bases for matrix germs.

The group acting on a matrix germ combines coordinate changes on the
source with matrix equivalences: congruence ``A F A^T`` for symmetric
germs, independent multiplication ``A F B`` on both sides otherwise.
Its tangent space at ``F`` is the module spanned, over all function
coefficients, by the partials of ``F`` and by the elementary matrix
actions on ``F``.  Everything here happens in a finite jet: polynomials
are truncated at a chosen total degree, turning the quotient by the
tangent space into exact linear algebra over the rationals.

The normal space basis is read off a row reduction whose *column order*
is the deliberate part of the design.  Columns are grouped so that
off-diagonal matrix positions are consumed by pivots first and diagonal
corners last, with higher-degree monomials ahead of lower ones inside
each group.  Pivots eat early columns, so the representatives that
survive are the low-degree monomials in the late positions, which is
the shape normal-form tables are written in.  The columns of the jet's
top degree come after all others, so one elimination a degree higher
gives both the normal space and its stability check.

Most pivots need no elimination at all.  A row with one entry puts a
unit vector in the row space, so its column is a pivot column of every
echelon form; striking that column from the other rows is a row
operation, which changes no pivot column.  These unit columns are
peeled off first, rows left with one entry becoming units in turn, and
only the rows that remain go through the fraction-free reduction.

The numbering depends only on the ring, the shape, the symmetry and
the jet degree, so it is made once for each and shared by every germ
that has them.  Inside a jet of degree ``d`` a monomial is keyed by
the integer ``sum(e[i] * (d + 1)**i)``; no exponent of the jet reaches
``d + 1``, so a monomial times a jet monomial is the sum of their keys
as long as the product stays in the jet.  Terms above the jet degree
are dropped before they are keyed, since their keys can be those of
jet monomials.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add

from .doubling import MatrixGerm, component_positions
from .rings import Monomial, Polynomial, RingContext, RingError

__all__ = [
    "TangentSpaceResult",
    "entries_cut_reduced_origin",
    "jet_monomials",
    "normal_space_basis",
    "quotient_image_rank",
    "tangent_generators",
]


def tangent_generators(F: MatrixGerm) -> list[MatrixGerm]:
    """Module generators of the tangent space at ``F``.

    The action follows the germ's symmetry: congruence ``A F A^T`` if
    it is symmetric, ``A F B`` otherwise.  The list holds the partial
    derivative of ``F`` along every source variable, then the image of
    every elementary matrix under the linearised matrix action: for
    ``A F B`` the left products ``E(a,b)·F`` and then the right products
    ``F·E(a,b)``; for congruence ``E(a,b)·F + F·E(b,a)``, the derivative
    of ``(1 + sE) F (1 + sE)^T`` at ``s = 0``.
    """
    n, m = F.shape
    rows = F.entries
    zero = F.ring.zero()
    positions = component_positions(F.shape, F.symmetric)

    def left(a: int, b: int) -> list:  # E(a,b)·F, E(a,b) of size n
        return [rows[b][j] if i == a else zero for i, j in positions]

    def right(a: int, b: int) -> list:  # F·E(a,b), E(a,b) of size m
        return [rows[i][a] if j == b else zero for i, j in positions]

    gens = [F.derivative(name) for name in F.ring.variables]
    if F.symmetric:
        for a, b in itertools.product(range(n), repeat=2):
            gens.append(MatrixGerm(F.shape, map(add, left(a, b), right(b, a)), True))
        return gens
    gens += [MatrixGerm(F.shape, left(a, b)) for a in range(n) for b in range(n)]
    return gens + [MatrixGerm(F.shape, right(a, b)) for a in range(m) for b in range(m)]


def _check_germ(F) -> None:
    if not isinstance(F, MatrixGerm):
        raise RingError(f"expected a MatrixGerm, not {F!r}")


def _check_int(degree) -> None:
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise RingError(f"jet degree must be an int, not {degree!r}")


def jet_monomials(ring: RingContext, degree: int) -> list[Monomial]:
    """Exponent vectors of total degree at most ``degree``, ascending.

    ``degree`` is a non-negative ``int`` (not a ``bool``); anything else
    raises :class:`RingError`.  Each call returns a new list.
    """
    _check_int(degree)
    if degree < 0:
        raise RingError("jet degree must not be negative")
    monos = [
        exps
        for exps in itertools.product(range(degree + 1), repeat=ring.arity)
        if sum(exps) <= degree
    ]
    monos.sort(key=ring.sort_key)
    return monos


@dataclass(frozen=True)
class TangentSpaceResult:
    """Normal space of a germ inside one jet level.

    The action is the one :func:`tangent_generators` derives from the
    germ's symmetry; ``stable`` says the labels agree one level higher.
    """

    germ: MatrixGerm
    jet_degree: int
    column_count: int
    rank: int
    codimension: int
    basis: tuple[MatrixGerm, ...]
    basis_labels: tuple[str, ...]
    stable: bool


def _class_group(pos: tuple[int, int], nrows: int) -> int:
    i, j = pos
    if i != j:
        return 0
    return 1 + (nrows - 1 - i)


def _insert_row(pivots: dict, row: dict) -> bool:
    """Echelon insertion; returns whether the row added a pivot.

    Rows map integer column numbers to nonzero integer coefficients, and
    the columns are numbered in elimination order, so the pivot is
    simply the smallest column of the row.  Elimination is fraction
    free: against a pivot row with leading ``a``, a row with leading
    ``b`` becomes ``a'·row - b'·pivot`` with ``a' = a/g``, ``b' = b/g``
    and ``g = gcd(a, b)``, and a new pivot row is stored primitive
    (divided by the gcd of its entries, leading entry positive; a row
    that is already primitive is stored as it is).  Each
    step multiplies the row by a nonzero scalar and subtracts a multiple
    of a row already in the span, so the row space, and with it every
    pivot column, is exactly that of the rational elimination.  The
    pivot column set depends only on the row space and the column
    order, never on the order rows arrive in, so the rows that remain
    after :func:`_eliminate` peels its unit columns can stream in any
    order; a unit column's pivot row is ``{c: 1}``, primitive already.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            content = math.gcd(*row.values())
            if row[lead] < 0:
                content = -content
            pivots[lead] = row if content == 1 else {c: v // content for c, v in row.items()}
            return True
        a, b = pivot[lead], row[lead]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in pivot.items():
            nv = row.get(c, 0) - b * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return False


def _code(exps: Monomial, radix: int) -> int:
    """``sum(e[i] * radix**i)``: the key of a monomial in a jet of
    degree ``radix - 1``."""
    code = 0
    for e in reversed(exps):
        code = code * radix + e
    return code


def _scaled_terms(components: Sequence[Polynomial], degree: int) -> list[list]:
    """Per component, its terms of total degree at most ``degree`` as
    ``(key, total degree, int)``, keyed by :func:`_code` in the jet of
    ``degree``.  The coefficients are all scaled by the lcm of the
    components' denominators: a vector with the same span."""
    scale = math.lcm(*(c.denominator for c in components))
    unpack, radix = components[0].ring._packing.unpack, degree + 1
    scaled = []
    for component in components:
        factor = scale // component.denominator
        terms = []
        for m, c in component.packed:
            exps = unpack(m)
            d = sum(exps)
            # Above the jet a key can equal a jet monomial's: skip first.
            if d <= degree:
                terms.append((_code(exps, radix), d, c * factor))
        scaled.append(terms)
    return scaled


_COLUMNS_LIMIT = 16
"""How many column numberings :func:`_columns` keeps; the least
recently used is dropped first."""


@functools.lru_cache(maxsize=_COLUMNS_LIMIT)
def _columns(ring: RingContext, shape: tuple[int, int], symmetric: bool, degree: int):
    """Number the jet's columns once, in elimination order.

    A column is a matrix position together with a jet monomial.  The
    columns whose monomial has the jet's top degree are numbered after
    all the others; inside each part, columns are numbered by ``(class
    group, -monomial rank, position rank)``, a total order, so the
    smallest number is the column pivots eat first.  Returns the
    monomials, their :func:`_code` keys, the positions and, per
    position, a map from monomial key to column number.

    The numbering depends on nothing but the arguments, so the
    :data:`_COLUMNS_LIMIT` most recently used ones are kept and shared
    by every caller; callers only read them.
    """
    monos = tuple(jet_monomials(ring, degree))
    codes = tuple(_code(mono, degree + 1) for mono in monos)
    positions = component_positions(shape, symmetric)
    order = sorted(
        ((p, mi) for p in range(len(positions)) for mi in range(len(monos))),
        key=lambda col: (
            sum(monos[col[1]]) == degree,
            _class_group(positions[col[0]], shape[0]),
            -col[1],
            col[0],
        ),
    )
    column = tuple({} for _ in positions)
    for number, (p, mi) in enumerate(order):
        column[p][codes[mi]] = number
    return monos, codes, positions, column


def _eliminate(F: MatrixGerm, degree: int):
    """Echelonize the tangent module inside the jet.

    Returns the pivot table (integer column number to primitive integer
    row, see :func:`_insert_row`; its size is the rank) and the shared
    column numbering of :func:`_columns`.  Each row is a jet monomial
    times a tangent generator: a term's key plus the monomial's key is
    the product's key, and terms that would leave the jet are skipped.
    A generator's coefficients are scaled to integers once, by the lcm
    of its components' denominators (:func:`_scaled_terms`), which
    changes none of the spans its rows contribute.

    Most pivots are *unit columns*, found before any fraction-free step:

    * A row with one entry puts the unit vector ``e_c`` in the row
      space, so ``c`` is a pivot column of every echelon form, and
      ``{c: 1}`` is its pivot row.  A generator with one term in the
      jet gives such a row at every shift, so its rows are never built.
    * Striking a unit column from another row subtracts a multiple of
      ``e_c``: a row operation, so the row space and its pivot columns
      stay the same.  A row left with one entry is a new unit, and rows
      are struck again until no new unit appears; a row left empty was
      in the span already.

    Only the rows that remain go through :func:`_insert_row`.  They
    have no entry in a unit column, and neither has any combination of
    them, so they never meet a unit pivot row.  They stream from the
    largest monomial down, every generator's row for one monomial
    before the next.  The largest shifts keep the fewest terms, and
    their monomials come early in each class group, so they become short
    pivot rows that the longer rows after them reduce against cheaply;
    the pivot columns do not depend on the order.
    """
    monos, codes, positions, column = _columns(F.ring, F.shape, F.symmetric, degree)
    singles, generators = [], []
    for g in tangent_generators(F):
        terms = [
            (column[p], code, d, c)
            for p, component in enumerate(_scaled_terms(g.components, degree))
            for code, d, c in component
        ]
        if len(terms) == 1:
            singles.append(terms[0][:3])
        elif terms:
            generators.append((min(d for _, _, d, _ in terms), terms))
    units = set()
    rows = []
    for mono, shift in zip(reversed(monos), reversed(codes)):
        room = degree - sum(mono)
        for cols, code, d in singles:
            if d <= room:
                units.add(cols[code + shift])
        for g_order, terms in generators:
            if g_order > room:
                continue
            # One contribution per column: positions differ, and a shift
            # keeps the monomials of one entry distinct.
            row = {cols[code + shift]: c for cols, code, d, c in terms if d <= room}
            if len(row) == 1:
                units.update(row)
            else:
                rows.append(row)
    rows = _peel_units(units, rows)
    pivots = {c: {c: 1} for c in units}
    for row in rows:
        _insert_row(pivots, row)
    return pivots, monos, codes, positions, column


def _peel_units(units: set, rows: list[dict]) -> list[dict]:
    """Strike the unit columns ``units`` from ``rows`` until no new one
    appears, and return the rows that remain, in their order.

    A row left with one entry adds its column to ``units``; a row left
    empty is dropped.  The rows are struck in place, and a pass that
    finds a new unit is followed by another, so every row that remains
    has at least two entries and none of them in a unit column.
    """
    grew = True
    while grew:
        grew = False
        remaining = []
        for row in rows:
            for c in units.intersection(row):
                del row[c]
            if len(row) == 1:
                units.update(row)
                grew = True
            elif row:
                remaining.append(row)
        rows = remaining
    return rows


def _germ_jet_row(g: MatrixGerm, column: Sequence[dict], degree: int) -> dict:
    """The jet row of ``g``; its terms above ``degree`` are dropped."""
    return {
        cols[code]: c
        for cols, terms in zip(column, _scaled_terms(g.components, degree))
        for code, _, c in terms
    }


def _jet_degree(F: MatrixGerm, jet_degree: int | None) -> int:
    """The requested jet degree, or the default one; an ``int`` (not a
    ``bool``), never below 1."""
    if jet_degree is None:
        return 2 * max(F.entry_max_degree(), 1) + 2
    _check_int(jet_degree)
    if jet_degree < 1:
        raise RingError("jet degree must be positive")
    return jet_degree


def quotient_image_rank(
    F: MatrixGerm,
    germs: Sequence[MatrixGerm],
    jet_degree: int | None = None,
) -> int:
    """Rank of the span of ``germs`` in the normal space of ``F``.

    Measures how many of the given matrix directions stay independent
    modulo the tangent space, inside the same jet used by
    :func:`normal_space_basis`.  The value equals the codimension
    exactly when the germs span the normal space, so this doubles as a
    basis check for a proposed list of representatives; a single germ
    gives 0 or 1 according to whether its class vanishes.
    """
    _check_germ(F)
    degree = _jet_degree(F, jet_degree)
    pivots, _, _, _, column = _eliminate(F, degree)
    added = 0
    for g in germs:
        _check_germ(g)
        if g.ring != F.ring or g.shape != F.shape or g.symmetric != F.symmetric:
            raise RingError("direction does not match the germ")
        if _insert_row(pivots, _germ_jet_row(g, column, degree)):
            added += 1
    return added


def normal_space_basis(
    F: MatrixGerm, jet_degree: int | None = None
) -> TangentSpaceResult:
    """Basis of the normal space of ``F`` in a truncating jet.

    The tangent space is that of the action :func:`tangent_generators`
    derives from the germ's symmetry.  The default jet degree is twice
    the largest entry degree plus two, which is past saturation for
    every finite-codimension germ in the bundled catalog.  ``stable``
    records whether the representatives are the same one jet degree
    higher; an unstable answer means the jet was too small (or the
    codimension is not finite).

    Both come from one elimination of the tangent module ``M`` in the
    jet of degree ``d + 1``, ``d`` the requested degree, whose top-degree
    columns are numbered last (:func:`_columns`):

    * The rows of the degree-``d`` elimination are the truncations ``π``
      to degree ``d`` of the rows one degree higher; a row whose shift
      reaches degree ``d + 1`` truncates to zero.  So the degree-``d``
      module is ``π(M)``.
    * With the dropped columns last, a vector of ``M`` whose lead is a
      top-degree column has no other support, so the leads of ``π(M)``
      are the leads of ``M`` minus the top-degree columns.  The
      representatives are the non-pivot columns of degree at most
      ``d``, and the rank is the pivot count minus the top-degree
      pivots.
    * The degree-``d + 1`` representatives equal the degree-``d`` ones
      exactly when ``M`` contains every top-degree column: then ``M`` is
      ``π(M)`` plus those columns.  The top-degree pivots span the
      top-degree columns ``M`` contains, so that holds exactly when
      every top-degree column is a pivot.  Otherwise the codimension
      grows with the degree and the two lists differ.
    """
    _check_germ(F)
    jet_degree = _jet_degree(F, jet_degree)
    pivots, monos, codes, positions, column = _eliminate(F, jet_degree + 1)
    # Grevlex is graded, so ``low`` is a prefix of ``monos`` and of ``codes``.
    low = [mono for mono in monos if sum(mono) <= jet_degree]
    # The top-degree columns are numbered from ncols on.
    ncols = len(positions) * len(low)
    top_pivots = sum(1 for c in pivots if c >= ncols)
    rank = len(pivots) - top_pivots
    reps = [
        (p, mi)
        for p in range(len(positions))
        for mi in range(len(low))
        if column[p][codes[mi]] not in pivots
    ]
    reps.sort(key=lambda col: (sum(low[col[1]]), col[0], col[1]))
    ring = F.ring
    basis = []
    labels = []
    for p, mi in reps:
        (i, j), mono = positions[p], low[mi]
        mono_poly = ring.monomial(mono)
        components = [ring.zero()] * len(positions)
        components[p] = mono_poly
        basis.append(MatrixGerm(F.shape, components, F.symmetric))
        if any(mono):
            labels.append(f"{mono_poly}*E({i + 1},{j + 1})")
        else:
            labels.append(f"E({i + 1},{j + 1})")
    return TangentSpaceResult(
        germ=F,
        jet_degree=jet_degree,
        column_count=ncols,
        rank=rank,
        codimension=ncols - rank,
        basis=tuple(basis),
        basis_labels=tuple(labels),
        stable=top_pivots == len(positions) * (len(monos) - len(low)),
    )


def entries_cut_reduced_origin(F: MatrixGerm) -> bool:
    """Whether the scalar entries of ``F`` generate the maximal ideal.

    Equivalently: every entry vanishes at the origin and the linear
    parts of the entries span all linear forms.  This is the geometric
    precondition for treating the family's separation behaviour through
    the diagonal alone.  The answer is made once per germ object and
    kept on it, as its doubles are.
    """
    _check_germ(F)
    memo = vars(F)
    cut = memo.get("_cut_reduced_origin")
    if cut is None:
        cut = memo["_cut_reduced_origin"] = _cut_reduced_origin(F)
    return cut


def _cut_reduced_origin(F: MatrixGerm) -> bool:
    pivots: dict = {}
    rank = 0
    for component, terms in zip(F.components, _scaled_terms(F.components, 1)):
        if component.constant_term():
            return False
        # A linear term's key is its column: 1, 2, 4, ... by variable.
        rank += _insert_row(pivots, {code: c for code, d, c in terms if d == 1})
    return rank == F.ring.arity
