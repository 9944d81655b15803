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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .groebner import Ideal
from .rings import (
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    inject_into,
    parse_polynomial,
    partial_derivative,
    primed,
    substitute,
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
    "format_matrix_germ",
    "merged_parameter_view",
    "parse_matrix_germ",
    "unfolding_components",
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

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def component_list(self) -> list[Polynomial]:
        """The independent scalar components, in row-major order.

        For a symmetric germ that is the upper triangle including the
        diagonal; otherwise every entry.
        """
        if self.symmetric:
            return [
                self.entries[i][j]
                for i in range(self.nrows)
                for j in range(i, self.ncols)
            ]
        return [e for row in self.entries for e in row]

    def component_positions(self) -> list[tuple[int, int]]:
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

    Built directly on exponent vectors; constants cancel to zero.
    """
    ring = p.ring
    if ring.doubled:
        raise RingError("polynomial already lives in a doubled ring")
    doubled = ring.doubled_extension()
    zeros = (0,) * ring.arity
    terms = []
    for exps, coeff in p.terms:
        terms.append((exps + zeros, coeff))
        terms.append((zeros + exps, -coeff))
    return Polynomial(doubled, terms)


def diagonal_collapse(p: Polynomial) -> Polynomial:
    """Substitute every primed variable by its original, folding back
    to the source ring.  Differences of doubles collapse to zero."""
    ring = p.ring
    if not ring.doubled:
        raise RingError("diagonal collapse needs a doubled ring")
    source = ring.half()
    n = source.arity
    terms = []
    for exps, coeff in p.terms:
        folded = tuple(exps[i] + exps[n + i] for i in range(n))
        terms.append((folded, coeff))
    return Polynomial(source, terms)


class DoubledIdeal(Ideal):
    """Ideal on a doubled ring whose generators vanish on the diagonal.

    The diagonal condition is structural for difference ideals, so it is
    validated once at construction instead of trusted.
    """

    __slots__ = ("source",)

    def __init__(
        self,
        ring: RingContext,
        generators: Iterable[Polynomial],
        source: RingContext | None = None,
    ):
        if not ring.doubled:
            raise RingError("a doubled ideal needs a doubled ring")
        super().__init__(ring, generators)
        self.source = source or ring.half()
        for g in self.generators:
            if not diagonal_collapse(g).is_zero:
                raise RingError(
                    f"generator {g} does not vanish on the diagonal"
                )


def double_ideal(
    components: Sequence[Polynomial], source: RingContext | None = None
) -> DoubledIdeal:
    """The ideal generated by the doubles of the given components."""
    components = list(components)
    if not components:
        raise RingError("need at least one component to double")
    src = source or components[0].ring
    for c in components:
        if c.ring != src:
            raise RingError("components must share the source ring")
    return DoubledIdeal(
        src.doubled_extension(), [double_of(c) for c in components], source=src
    )


def diagonal_ideal(ring: RingContext) -> DoubledIdeal:
    """The ideal of the diagonal, generated by ``v - v'`` per variable."""
    if not ring.doubled:
        raise RingError("the diagonal lives in a doubled ring")
    source = ring.half()
    gens = [
        ring.variable(v) - ring.variable(primed(v)) for v in source.variables
    ]
    return DoubledIdeal(ring, gens, source=source)


@dataclass(frozen=True)
class Unfolding:
    """A germ moving along a direction with one extra parameter.

    ``base`` and ``direction`` live in the source ring; ``total`` is
    ``base + parameter * direction`` on the ring extended by the
    parameter (which comes first in the variable order).
    """

    parameter: str
    base: MatrixGerm
    direction: MatrixGerm
    total: MatrixGerm

    @property
    def extended_ring(self) -> RingContext:
        return self.total.ring


def build_unfolding(base: MatrixGerm, direction: MatrixGerm) -> Unfolding:
    """``base + t * direction`` with the parameter :data:`PARAMETER`."""
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
    ring = base.ring
    extended = RingContext(
        (PARAMETER,) + ring.variables, ring.order, False, ring.exponent_cap
    )
    t = extended.variable(PARAMETER)
    lifted_base = base.map_entries(lambda e: inject_into(e, extended))
    lifted_dir = direction.map_entries(lambda e: inject_into(e, extended))
    return Unfolding(PARAMETER, base, direction, lifted_base + lifted_dir.scale(t))


def unfolding_components(u: Unfolding) -> list[Polynomial]:
    """The parameter itself, then every matrix component of the family."""
    return [u.extended_ring.variable(u.parameter)] + u.total.component_list()


def unfolding_double_ideal(u: Unfolding) -> DoubledIdeal:
    """Difference ideal of the family, parameter included.

    The parameter contributes its own difference, so the doubled ring
    always carries the relation between the two parameter copies rather
    than assuming them equal.
    """
    return double_ideal(unfolding_components(u), source=u.extended_ring)


def direction_double_ideal(u: Unfolding) -> DoubledIdeal | None:
    """Doubles of the nonzero components of ``d(total)/dt``, or ``None``."""
    theta = u.total.derivative(u.parameter)
    components = [c for c in theta.component_list() if not c.is_zero]
    if not components:
        return None
    return double_ideal(components, source=u.extended_ring)


def merged_parameter_view(
    ideal: Ideal, parameter: str
) -> list[Polynomial]:
    """Generators rewritten with both parameter copies identified.

    Substitutes the primed parameter by the original and drops the
    generators that collapse to zero.  Display-only: membership tests
    keep the two copies distinct.
    """
    ring = ideal.ring
    if not ring.doubled:
        raise RingError("merged view needs a doubled ring")
    mirror = primed(parameter)
    if parameter not in ring.variables or mirror not in ring.variables:
        raise RingError(f"{parameter!r} is not doubled in this ring")
    images: dict[str, Polynomial] = {v: ring.variable(v) for v in ring.variables}
    images[mirror] = ring.variable(parameter)
    out = []
    for g in ideal.generators:
        h = substitute(g, images, ring)
        if not h.is_zero:
            out.append(h)
    return out
