"""Matrix germs, deformations, and ideals on the doubled ring.

A matrix germ is a matrix of polynomials vanishing at the origin of its
ring.  :class:`MatrixGerm` holds only its independent components, the
upper triangle of a symmetric germ, so a symmetric germ is symmetric by
construction.  Full rows come in only as text, so :func:`parse_matrix_germ`
is the one place that checks that they mirror.

A one-parameter deformation adjoins a parameter ``t`` and moves the germ
along a direction matrix.  The central construction here takes each
scalar component ``h`` of such a family to its double, the difference

    D(h) = h(t, z) - h(t, z')

on the ring doubled with a primed mirror of every variable but ``t``,
which both points of a pair share (:meth:`RingContext.doubled_extension`).
The ideal generated by these differences controls how the family
separates pairs of points, which is the quantity the analysis pipeline
interrogates.

This module alone builds the unfolding's family, direction and diagonal
ideals.  As ``t`` is shared, ``D(b + t*d) = D(b) + t*D(d)``, so no
family component is formed: each component of the germ and direction is
doubled from the source ring into :func:`unfolding_ring` by
:func:`double_of`, once per :class:`MatrixGerm`, and every unfolding of
it reads that double.  :func:`double_of` alone builds doubled terms,
each non-constant term beside its mirror with the opposite sign, so
every generator of the family and direction ideals vanishes on the
diagonal ``z = z'`` by construction, as do the differences ``v - v'``
that generate the diagonal ideal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Union

from .groebner import Ideal
from .rings import (
    PARAMETER,
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    _from_integers,
    parse_polynomial,
    partial_derivative,
)

__all__ = [
    "MatrixGerm",
    "PARAMETER",
    "Unfolding",
    "build_unfolding",
    "component_positions",
    "diagonal_ideal",
    "direction_double_ideal",
    "double_of",
    "format_matrix_germ",
    "parse_matrix_germ",
    "unfolding_double_ideal",
    "unfolding_ring",
]


@functools.cache
def component_positions(
    shape: tuple[int, int], symmetric: bool
) -> tuple[tuple[int, int], ...]:
    """Row-major positions of a germ's independent components: the upper
    triangle with the diagonal for a symmetric germ, else every entry."""
    nrows, ncols = shape
    return tuple(
        (i, j) for i in range(nrows) for j in range(i if symmetric else 0, ncols)
    )


@dataclass(frozen=True)
class MatrixGerm:
    """Matrix of polynomials of ``shape`` (rows, columns), held by its
    independent components.

    ``components`` are the entries at :func:`component_positions`.  A
    symmetric germ is square and keeps only its upper triangle, so it is
    symmetric by construction: :attr:`entries` mirrors it.
    """

    shape: tuple[int, int]
    components: tuple[Polynomial, ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "components", tuple(self.components))
        if self.symmetric and self.shape[0] != self.shape[1]:
            raise RingError("symmetric germ must be square")
        if not self.components:
            raise RingError("matrix germ cannot be empty")
        positions = component_positions(self.shape, self.symmetric)
        if len(self.components) != len(positions):
            raise RingError("need one component per position of the shape")
        if not all(isinstance(c, Polynomial) for c in self.components):
            raise RingError("matrix components must be polynomials")
        ring = self.components[0].ring
        if any(c.ring != ring for c in self.components):
            raise RingError("matrix components must share one ring")

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Full rows: below the diagonal, a symmetric germ repeats the
        entry mirrored above it."""
        nrows, ncols = self.shape
        at = dict(zip(component_positions(self.shape, self.symmetric), self.components))
        if self.symmetric:
            at.update({(j, i): c for (i, j), c in at.items()})
        return tuple(tuple(at[i, j] for j in range(ncols)) for i in range(nrows))

    @property
    def ring(self) -> RingContext:
        return self.components[0].ring

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.components)

    @functools.cached_property
    def _doubles(self) -> tuple[Polynomial, ...]:
        """``D(c)`` of each component on :func:`unfolding_ring`, made once
        per germ and read by every unfolding that holds it."""
        return tuple(map(double_of, self.components))

    def entry_max_degree(self) -> int:
        return max(c.degree() for c in self.components)

    def map_entries(self, fn: Callable[[Polynomial], Polynomial]) -> "MatrixGerm":
        return MatrixGerm(self.shape, map(fn, self.components), self.symmetric)

    def __add__(self, other: "MatrixGerm") -> "MatrixGerm":
        if not isinstance(other, MatrixGerm):
            return NotImplemented
        if self.shape != other.shape:
            raise RingError("matrix shapes differ")
        if self.symmetric != other.symmetric:
            raise RingError("cannot mix symmetric and general germs")
        return MatrixGerm(
            self.shape, map(add, self.components, other.components), self.symmetric
        )

    def scale(self, factor: Union[Polynomial, int, Fraction]) -> "MatrixGerm":
        return self.map_entries(lambda e: e * factor)

    def derivative(self, name: str) -> "MatrixGerm":
        return self.map_entries(lambda e: partial_derivative(e, name))

    def __str__(self) -> str:
        return format_matrix_germ(self)


def parse_matrix_germ(text: str, ring: RingContext) -> MatrixGerm:
    """Parse ``"sym: y^3, x ; x, y^2"`` style matrix text.

    The header is ``sym`` for symmetric or ``gen`` for general; rows are
    separated by ``;`` and entries by ``,``.  Symmetric input must spell
    out full rows, mirrored entries included, and they must mirror.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ParseError("matrix text needs a 'sym:' or 'gen:' header")
    kind = head.strip()
    if kind not in ("sym", "gen"):
        raise ParseError(f"unknown matrix kind {kind!r}; use 'sym' or 'gen'")
    rows = [
        tuple(parse_polynomial(cell, ring) for cell in row_text.split(","))
        for row_text in body.split(";")
    ]
    shape = (len(rows), len(rows[0]))
    if any(len(row) != shape[1] for row in rows):
        raise RingError("matrix germ rows have unequal lengths")
    symmetric = kind == "sym"
    positions = component_positions(shape, symmetric)
    germ = MatrixGerm(shape, [rows[i][j] for i, j in positions], symmetric)
    if symmetric and germ.entries != tuple(rows):
        raise RingError("symmetric germ rows must mirror across the diagonal")
    return germ


def format_matrix_germ(germ: MatrixGerm) -> str:
    body = " ; ".join(
        ", ".join(str(e) for e in row) for row in germ.entries
    )
    return f"{'sym' if germ.symmetric else 'gen'}: {body}"


def double_of(p: Polynomial) -> Polynomial:
    """``p(z) - p(z')`` on :func:`unfolding_ring`, ``t, z, z'``, with
    nothing unpacked: each non-constant term's fields move up 1 and
    ``1 + arity`` places (:meth:`_Packing.moved`), with one sort; the
    constant cancels.  No exponent grows, so no cap is checked.  A ring
    that is doubled or holds :data:`PARAMETER` has no unfolding ring and
    is refused with :class:`RingError`."""
    ring = unfolding_ring(p.ring)
    source, moved = p.ring._packing, ring._packing.moved
    mirror = 1 + p.ring.arity
    terms = []
    for m, c in p.packed:
        if m:
            terms.append((moved(m, source, 1), c))
            terms.append((moved(m, source, mirror), -c))
    terms.sort(reverse=True)
    return _from_integers(ring, p.denominator, terms)


def diagonal_ideal(ring: RingContext) -> Ideal:
    """The ideal of the diagonal, generated by ``v - v'`` for each
    variable ``v`` with a mirror, in ring order (the shared
    :data:`PARAMETER` is its own mirror and drops out).

    Equal rings share one ideal, so its reduced basis is computed once
    per process; a budget failure leaves it unset, like any ideal's.
    """
    if not ring.doubled:
        raise RingError("the diagonal lives in a doubled ring")
    return _diagonal_ideal(ring)


@functools.cache
def _diagonal_ideal(ring: RingContext) -> Ideal:
    names = ring.variables
    pairs = enumerate(ring.mirrors)
    return Ideal(ring, [ring.variable(names[i]) - ring.variable(names[j]) for i, j in pairs if i != j])


@functools.cache
def unfolding_ring(ring: RingContext) -> RingContext:
    """The doubled unfolding ring of a source ``ring``: :data:`PARAMETER`
    first, then the variables and their mirrors, ``t, x, y, ..., x',
    y', ...``.  Every unfolding ideal lives here; one per ring."""
    extended = RingContext((PARAMETER,) + ring.variables, ring.exponent_cap)
    return extended.doubled_extension()


@dataclass(frozen=True)
class Unfolding:
    """The family ``base + t * direction``, held as ``base`` and
    ``direction`` on the source ring; no family component is formed.
    Its ideals live on :func:`unfolding_ring`.
    """

    base: MatrixGerm
    direction: MatrixGerm


def build_unfolding(base: MatrixGerm, direction: MatrixGerm) -> Unfolding:
    """The family ``base + t * direction``, checked: one ring, one shape,
    one symmetry, and no source variable named :data:`PARAMETER`."""
    if base.ring != direction.ring:
        raise RingError("germ and direction must share a ring")
    if base.shape != direction.shape:
        raise RingError("germ and direction shapes differ")
    if base.symmetric != direction.symmetric:
        raise RingError("germ and direction must agree on symmetry")
    if PARAMETER in base.ring.variables:
        raise RingError(f"parameter name {PARAMETER!r} collides with a ring variable")
    return Unfolding(base, direction)


def unfolding_double_ideal(u: Unfolding) -> Ideal:
    """Difference ideal of the family: ``D(b) + t*D(d)`` for the
    components ``b`` of the germ and ``d`` of the direction, in order.

    Both points of a pair share the parameter, so each generator
    compares the family at two points for one value of ``t``.
    """
    ring = unfolding_ring(u.base.ring)
    t = ring.variable(PARAMETER)
    pairs = zip(u.base._doubles, u.direction._doubles)
    return Ideal(ring, [db + t * dd for db, dd in pairs])


def direction_double_ideal(u: Unfolding) -> Ideal | None:
    """Doubles ``D(d)`` of the nonzero direction components ``d`` (the
    family's ``t``-derivatives), on :func:`unfolding_ring`; ``None`` when
    the direction is zero."""
    pairs = zip(u.direction.components, u.direction._doubles)
    nonzero = [dd for d, dd in pairs if not d.is_zero]
    if not nonzero:
        return None
    return Ideal(unfolding_ring(u.base.ring), nonzero)
