"""Matrix germs, deformations, and ideals on the doubled ring.

A matrix germ is a matrix of polynomials vanishing at the origin of its
ring.  A one-parameter deformation adjoins a parameter ``t`` and moves
the germ along a direction matrix.  The central construction here takes
each scalar component ``h`` of such a family to the difference

    h(z) - h(z')

on the ring doubled with a primed mirror of every variable.  The ideal
generated by these differences controls how the family separates pairs
of points, which is the quantity the analysis pipeline interrogates.
By construction everything in such an ideal vanishes on the diagonal
``z = z'``, and :class:`DoubledIdeal` refuses generators that do not.

This module alone builds the unfolding's doubled structure: the family
components, the family, direction and diagonal ideals, and the one rule
that ties ``t'`` to ``t`` (:func:`parameter_tie`, :func:`fold_parameter`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Sequence, Union

from .groebner import Ideal
from .rings import (
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    _check_cap,
    _sorted_terms,
    inject_into,
    parse_polynomial,
    partial_derivative,
    primed,
)

__all__ = [
    "DoubledIdeal",
    "MatrixGerm",
    "PARAMETER",
    "Unfolding",
    "build_unfolding",
    "diagonal_collapse",
    "diagonal_ideal",
    "direction_double_ideal",
    "double_ideal",
    "double_of",
    "fold_parameter",
    "format_matrix_germ",
    "merged_parameter_view",
    "parameter_tie",
    "parse_matrix_germ",
    "unfolding_double_ideal",
]

#: Name of the deformation parameter every unfolding adjoins.
PARAMETER = "t"


@dataclass(frozen=True)
class MatrixGerm:
    """Rectangular matrix of polynomials, optionally marked symmetric.

    Symmetric germs must be square with ``entries[i][j] == entries[j][i]``;
    the flag also changes which entries count as independent components.
    """

    entries: tuple[tuple[Polynomial, ...], ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(tuple(row) for row in self.entries)
        )
        if not self.entries or not self.entries[0]:
            raise RingError("matrix germ cannot be empty")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise RingError("matrix germ rows have unequal lengths")
        ring = self.entries[0][0].ring
        for row in self.entries:
            for e in row:
                if not isinstance(e, Polynomial) or e.ring != ring:
                    raise RingError("matrix entries must share one ring")
        if self.symmetric:
            if len(self.entries) != width:
                raise RingError("symmetric germ must be square")
            for i in range(width):
                for j in range(i + 1, width):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise RingError(
                            f"entries ({i},{j}) and ({j},{i}) differ "
                            "in a symmetric germ"
                        )

    @property
    def ring(self) -> RingContext:
        return self.entries[0][0].ring

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def component_list(self) -> list[Polynomial]:
        """The independent scalar components, at :meth:`component_positions`."""
        return [self.entries[i][j] for i, j in self.component_positions()]

    def component_positions(self) -> list[tuple[int, int]]:
        """Row-major positions of the independent components: the upper
        triangle with the diagonal for a symmetric germ, else every entry."""
        if self.symmetric:
            return [
                (i, j) for i in range(self.nrows) for j in range(i, self.ncols)
            ]
        return [(i, j) for i in range(self.nrows) for j in range(self.ncols)]

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for row in self.entries for e in row)

    def entry_max_degree(self) -> int:
        return max(e.degree() for row in self.entries for e in row)

    def map_entries(self, fn: Callable[[Polynomial], Polynomial]) -> "MatrixGerm":
        return MatrixGerm(
            tuple(tuple(fn(e) for e in row) for row in self.entries),
            self.symmetric,
        )

    def __add__(self, other: "MatrixGerm") -> "MatrixGerm":
        if not isinstance(other, MatrixGerm):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise RingError("matrix shapes differ")
        if self.symmetric != other.symmetric:
            raise RingError("cannot mix symmetric and general germs")
        return MatrixGerm(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.symmetric,
        )

    def __sub__(self, other: "MatrixGerm") -> "MatrixGerm":
        if not isinstance(other, MatrixGerm):
            return NotImplemented
        return self + other.scale(-1)

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
    out full rows, mirrored entries included.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ParseError("matrix text needs a 'sym:' or 'gen:' header")
    kind = head.strip()
    if kind not in ("sym", "gen"):
        raise ParseError(f"unknown matrix kind {kind!r}; use 'sym' or 'gen'")
    rows = []
    for row_text in body.split(";"):
        cells = row_text.split(",")
        rows.append(tuple(parse_polynomial(cell, ring) for cell in cells))
    return MatrixGerm(tuple(rows), symmetric=(kind == "sym"))


def format_matrix_germ(germ: MatrixGerm) -> str:
    body = " ; ".join(
        ", ".join(str(e) for e in row) for row in germ.entries
    )
    return f"{'sym' if germ.symmetric else 'gen'}: {body}"


def double_of(p: Polynomial) -> Polynomial:
    """``h(z) - h(z')`` on the doubled extension of ``p``'s ring.

    Built canonical directly on exponent vectors: constants cancel and
    are skipped, every other term gives two distinct monomials with the
    exponents it had, and the terms are sorted once.
    """
    ring = p.ring
    if ring.doubled:
        raise RingError("polynomial already lives in a doubled ring")
    doubled = ring.doubled_extension()
    zeros = (0,) * ring.arity
    terms = []
    for exps, coeff in p.terms:
        if any(exps):
            terms.append((exps + zeros, coeff))
            terms.append((zeros + exps, -coeff))
    return Polynomial._raw(doubled, _sorted_terms(doubled, terms))


def diagonal_collapse(p: Polynomial) -> Polynomial:
    """Substitute every primed variable by its original, folding back
    to the source ring.  Differences of doubles collapse to zero."""
    ring = p.ring
    if not ring.doubled:
        raise RingError("diagonal collapse needs a doubled ring")
    source = ring.half()
    n = source.arity
    acc: dict = {}
    for exps, coeff in p.terms:
        folded = tuple(map(add, exps[:n], exps[n:]))
        total = acc.get(folded, 0) + coeff
        if total:
            acc[folded] = total
        else:
            acc.pop(folded, None)
    _check_cap(source, acc)
    return Polynomial._raw(source, _sorted_terms(source, acc.items()))


class DoubledIdeal(Ideal):
    """Ideal on a doubled ring whose generators vanish on the diagonal.

    The diagonal condition is structural for difference ideals, so it is
    validated once at construction instead of trusted.  The undoubled
    ring is ``ring.half()``.
    """

    __slots__ = ()

    def __init__(self, ring: RingContext, generators: Iterable[Polynomial]):
        if not ring.doubled:
            raise RingError("a doubled ideal needs a doubled ring")
        super().__init__(ring, generators)
        for g in self.generators:
            if not diagonal_collapse(g).is_zero:
                raise RingError(
                    f"generator {g} does not vanish on the diagonal"
                )


def double_ideal(components: Sequence[Polynomial]) -> DoubledIdeal:
    """The ideal generated by the doubles of the given components.

    The components must share one undoubled ring; the ideal lives on its
    doubled extension.
    """
    components = list(components)
    if not components:
        raise RingError("need at least one component to double")
    src = components[0].ring
    for c in components:
        if c.ring != src:
            raise RingError("components must share the source ring")
    return DoubledIdeal(src.doubled_extension(), [double_of(c) for c in components])


def diagonal_ideal(ring: RingContext) -> DoubledIdeal:
    """The ideal of the diagonal, generated by ``v - v'`` per variable.

    Equal rings share one ideal, so its reduced basis is computed once
    per process; a budget failure leaves it unset, like any ideal's.
    """
    if not ring.doubled:
        raise RingError("the diagonal lives in a doubled ring")
    return _diagonal_ideal(ring)


@functools.cache
def _diagonal_ideal(ring: RingContext) -> DoubledIdeal:
    gens = [
        ring.variable(v) - ring.variable(primed(v)) for v in ring.half().variables
    ]
    return DoubledIdeal(ring, gens)


@dataclass(frozen=True)
class Unfolding:
    """A germ moving along a direction with one extra parameter.

    ``base`` and ``direction`` live in the source ring.  ``components``
    are the family's independent scalar components, ``b + t * d`` for
    the components ``b`` of ``base`` and ``d`` of ``direction`` (at
    :meth:`MatrixGerm.component_positions`), on the ring extended by
    :data:`PARAMETER`, which comes first in the variable order.
    """

    base: MatrixGerm
    direction: MatrixGerm
    components: tuple[Polynomial, ...]

    @property
    def extended_ring(self) -> RingContext:
        return self.components[0].ring


@functools.cache
def _parameter_extension(ring: RingContext) -> RingContext:
    """``ring`` with :data:`PARAMETER` adjoined first; one per ring."""
    return RingContext(
        (PARAMETER,) + ring.variables, ring.order, False, ring.exponent_cap
    )


def build_unfolding(base: MatrixGerm, direction: MatrixGerm) -> Unfolding:
    """The family ``base + t * direction``, one scalar component at a time.

    Each component is built once, as ``b + t * d`` on the shared ring
    extended by :data:`PARAMETER`; no matrix is formed.
    """
    if base.ring != direction.ring:
        raise RingError("germ and direction must share a ring")
    if (base.nrows, base.ncols) != (direction.nrows, direction.ncols):
        raise RingError("germ and direction shapes differ")
    if base.symmetric != direction.symmetric:
        raise RingError("germ and direction must agree on symmetry")
    if PARAMETER in base.ring.variables:
        raise RingError(
            f"parameter {PARAMETER!r} collides with a ring variable"
        )
    extended = _parameter_extension(base.ring)
    t = extended.variable(PARAMETER)
    components = tuple(
        inject_into(b, extended) + t * inject_into(d, extended)
        for b, d in zip(base.component_list(), direction.component_list())
    )
    return Unfolding(base, direction, components)


def unfolding_double_ideal(u: Unfolding) -> DoubledIdeal:
    """Difference ideal of the family, parameter included.

    The generators are the doubles of the parameter itself and then of
    every component of the family.  The parameter contributes its own
    difference, so the doubled ring always carries the relation between
    the two parameter copies rather than assuming them equal.
    """
    return double_ideal([u.extended_ring.variable(PARAMETER), *u.components])


def direction_double_ideal(u: Unfolding) -> DoubledIdeal | None:
    """Doubles of the nonzero direction components ``d`` (the family's
    ``t``-derivatives), lifted to the unfolding ring; ``None`` when the
    direction is zero."""
    nonzero = [d for d in u.direction.component_list() if not d.is_zero]
    if not nonzero:
        return None
    return double_ideal([inject_into(d, u.extended_ring) for d in nonzero])


def parameter_tie(ring: RingContext) -> tuple[int, int] | None:
    """``(index of t, index of t')`` when ``ring`` holds :data:`PARAMETER`
    and its primed copy, else ``None``: the one tie rule, shared by the
    curve search and :func:`fold_parameter`."""
    names = ring.variables
    if PARAMETER in names and primed(PARAMETER) in names:
        return ring.index(PARAMETER), ring.index(primed(PARAMETER))
    return None


def fold_parameter(p: Polynomial) -> Polynomial:
    """``p`` with ``t'`` replaced by ``t`` where :func:`parameter_tie`
    names the pair, else ``p`` itself: equal monomials merge and zero
    sums drop, so ``t - t'`` folds to zero."""
    tie = parameter_tie(p.ring)
    if tie is None:
        return p
    source, copy = tie
    terms = []
    for exps, coeff in p.terms:
        exps = list(exps)
        exps[source], exps[copy] = exps[source] + exps[copy], 0
        terms.append((exps, coeff))
    return Polynomial(p.ring, terms)


def merged_parameter_view(ideal: Ideal) -> list[Polynomial]:
    """The generators that do not fold to zero, each folded by
    :func:`fold_parameter`.  Display-only: membership tests keep the two
    parameter copies distinct."""
    if not ideal.ring.doubled or parameter_tie(ideal.ring) is None:
        raise RingError(f"{PARAMETER!r} is not doubled in this ring")
    return [h for h in map(fold_parameter, ideal.generators) if not h.is_zero]
