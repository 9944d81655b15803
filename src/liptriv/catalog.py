"""Catalog of the simple symmetric 2x2 matrix germs in two variables.

The rank-zero simple symmetric germs fall into six families.  Each
catalog entry bundles, for one family at concrete parameters:

* the normal form matrix itself;
* the named coefficients parameterizing a first-order deformation
  direction, written exactly the way the classification lemmas write
  them (one named scalar per monomial slot of the matrix);
* the known triviality verdicts, as two sets of slot names: the
  moving slots, whose nonzero coefficient makes the deformation not
  Lipschitz trivial, and the open slots, on which the classification
  states no verdict;
* a hand-picked monomial curve on the doubled unfolding space that
  separates the failing directions, with its expected contact order
  when every coefficient is set to 1.

One rule, :meth:`NormalForm.expected_verdict`, reads the two sets for
every family.  Only family 1 with unequal exponents has open slots: the
classification states only a necessity condition there, so its
nonconstant coefficients past the threshold index carry no expected
verdict.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .curves import TestCurve, parse_curve
from .doubling import (
    MatrixGerm,
    _parameter_extension,
    component_positions,
    parse_matrix_germ,
)
from .rings import RingContext

__all__ = [
    "CATALOG_INDICES",
    "CoefficientSlot",
    "LIPSCHITZ",
    "NOT_LIPSCHITZ",
    "NormalForm",
    "SOURCE_RING",
    "CatalogError",
    "catalog_parameters",
    "coefficient_value",
    "family_parameters",
    "normal_form",
    "random_direction",
]

LIPSCHITZ = "Lipschitz"
NOT_LIPSCHITZ = "NotLipschitz"

SOURCE_RING = RingContext(("x", "y"))

# Per family, the smallest value of each integer parameter it takes, in
# the order the parameters vary in the catalog grid.
_MINIMUMS = {1: {"k": 1, "l": 2}, 2: {"k": 2}, 3: {"k": 2}, 4: {"k": 2}, 5: {}, 6: {}}

CATALOG_INDICES = tuple(_MINIMUMS)


class CatalogError(ValueError):
    """Bad catalog index, parameters, or coefficient names."""


@dataclass(frozen=True)
class CoefficientSlot:
    """One named deformation coefficient.

    The direction contributed by the slot is ``x^a * y^b`` added to the
    component at ``position``, one of the matrix's component positions.
    """

    name: str
    position: tuple[int, int]
    exponents: tuple[int, int]


@dataclass(frozen=True)
class NormalForm:
    """One catalog family specialized at concrete parameters.

    ``discriminant`` carries the label the classification table prints.
    For family 1 the two customary conventions disagree: the table
    subscript is k+l+1 while the normal space dimension computed here
    is k+l-1, the Milnor number of the smaller label.  Both are kept,
    the second as ``alternate_discriminant``, so reports can flag the
    mismatch instead of silently picking a side.

    ``moving_slots`` names the slots whose nonzero coefficient makes the
    direction NotLipschitz; ``open_slots`` names those on which the
    classification states no verdict.  The two are disjoint, and
    :meth:`expected_verdict` is the one rule that reads them.
    """

    index: int
    k: int | None
    l: int | None
    discriminant: str
    matrix: MatrixGerm
    slots: tuple[CoefficientSlot, ...]
    curve_text: str
    curve_order: int
    max_exponent: int
    moving_slots: frozenset[str]
    open_slots: frozenset[str] = frozenset()
    alternate_discriminant: str | None = None

    def coefficient_names(self) -> tuple[str, ...]:
        return tuple(slot.name for slot in self.slots)

    def _normalize(self, coeffs: Mapping[str, object]) -> dict[str, Fraction]:
        known = {slot.name for slot in self.slots}
        for name in coeffs:
            if name not in known:
                raise CatalogError(
                    f"unknown coefficient {name!r} for catalog entry "
                    f"{self.index}; expected one of {sorted(known)}"
                )
        return {name: coefficient_value(name, raw) for name, raw in coeffs.items()}

    def theta(self, coeffs: Mapping[str, object]) -> MatrixGerm:
        """Deformation direction for named coefficients; others are 0.
        Values are read by :func:`coefficient_value`."""
        values = self._normalize(coeffs)
        shape, symmetric = self.matrix.shape, self.matrix.symmetric
        ring = self.matrix.ring
        components = dict.fromkeys(component_positions(shape, symmetric), ring.zero())
        for slot in self.slots:
            value = values.get(slot.name)
            if value:
                components[slot.position] += ring.monomial(slot.exponents, value)
        return MatrixGerm(shape, components.values(), symmetric)

    def expected_verdict(self, coeffs: Mapping[str, object]) -> str | None:
        """NotLipschitz if a nonzero coefficient sits on a moving slot,
        else ``None`` (open) if one sits on an open slot, else Lipschitz."""
        nonzero = {name for name, value in self._normalize(coeffs).items() if value}
        if nonzero & self.moving_slots:
            return NOT_LIPSCHITZ
        if nonzero & self.open_slots:
            return None
        return LIPSCHITZ

    def probe_curve(self) -> TestCurve:
        """The family's separating curve, on the doubled unfolding space."""
        ring = _parameter_extension(SOURCE_RING).doubled_extension()
        return parse_curve(self.curve_text, ring)


def coefficient_value(name: str, raw: object) -> Fraction:
    """The exact value of coefficient ``name``: an ``int``, a ``Fraction``
    or a rational string.  A ``bool``, a ``float`` or a value ``Fraction``
    refuses is a :class:`CatalogError`."""
    if isinstance(raw, (bool, float)):
        raise CatalogError(
            f"coefficient {name!r} must be exact (int, Fraction, or "
            f"a rational string), not {type(raw).__name__}"
        )
    try:
        return Fraction(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CatalogError(
            f"coefficient {name!r} is not a rational number: {raw!r}"
        ) from exc


def _check_ints(**values: object) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise CatalogError(f"parameter {name} must be an int, not {value!r}")


def family_parameters(index: int) -> tuple[str, ...]:
    """Names of the integer parameters the family takes ("k", "l")."""
    if index not in _MINIMUMS:
        raise CatalogError(f"catalog index must be 1..6, got {index}")
    return tuple(_MINIMUMS[index])


def _requirement(index: int) -> str:
    bounds = " and ".join(f"{n} >= {low}" for n, low in _MINIMUMS[index].items())
    return f"family {index} needs {bounds}"


def catalog_parameters(max_k: int, max_l: int) -> list[tuple]:
    """Every ``(family, k, l)`` of the catalog grid, in table order.

    Families in index order; inside a family each parameter runs from
    its minimum up to ``max_k`` or ``max_l``, ``k`` in the outer loop.
    Parameters a family does not take are ``None``.  A limit that leaves
    some family without cells is a :class:`CatalogError`, raised before
    any cell is returned, and so is a limit that is not an ``int``.
    """
    _check_ints(max_k=max_k, max_l=max_l)
    limits = {"k": max_k, "l": max_l}
    cells = []
    for index, minimums in _MINIMUMS.items():
        ranges = [range(low, limits[n] + 1) for n, low in minimums.items()]
        if not all(ranges):
            raise CatalogError(
                f"max_k = {max_k}, max_l = {max_l} leave no cells: "
                + _requirement(index)
            )
        for values in itertools.product(*ranges):
            given = dict(zip(minimums, values))
            cells.append((index, given.get("k"), given.get("l")))
    return cells


def _germ(text: str) -> MatrixGerm:
    return parse_matrix_germ(text, SOURCE_RING)


def _diag(name: str, i: int, power_of: str, exp: int) -> CoefficientSlot:
    exps = (exp, 0) if power_of == "x" else (0, exp)
    return CoefficientSlot(name, (i, i), exps)


def _names(prefix: str, start: int, stop: int) -> frozenset[str]:
    return frozenset(f"{prefix}{i}" for i in range(start, stop))


def _row1(k: int, l: int) -> NormalForm:
    slots = [_diag(f"a{i}", 0, "y", i) for i in range(k)]
    slots += [_diag(f"b{j}", 1, "y", j) for j in range(l - 1)]
    r = min(k, l)
    # The nonconstant slots below the threshold move; the classification
    # leaves the rest open.  When k = l no slot lies past the threshold.
    nonconstant = _names("a", 1, k) | _names("b", 1, l - 1)
    moving = _names("a", 1, r) | _names("b", 1, min(r, l - 1))
    e = k + l
    return NormalForm(
        index=1,
        k=k,
        l=l,
        discriminant=f"A{k + l + 1}",
        matrix=_germ(f"sym: y^{k}, x ; x, y^{l}"),
        slots=tuple(slots),
        curve_text=f"s^{e}, 2s^{e}, 2s, s^{e}, s",
        curve_order=r,
        max_exponent=k + l + 2,
        moving_slots=moving,
        open_slots=nonconstant - moving,
        alternate_discriminant=f"A{k + l - 1}",
    )


def _row2(k: int) -> NormalForm:
    slots = [
        CoefficientSlot("a", (0, 0), (0, 0)),
        CoefficientSlot("b", (0, 1), (0, 0)),
        CoefficientSlot("c", (0, 1), (0, 1)),
    ]
    slots += [_diag(f"d{i}", 1, "x", i) for i in range(k - 1)]

    return NormalForm(
        index=2,
        k=k,
        l=None,
        discriminant=f"D{k + 2}",
        matrix=_germ(f"sym: x, 0 ; 0, y^2 + x^{k}"),
        slots=tuple(slots),
        curve_text="s, 2s^2, 2s, s^2, s",
        curve_order=2,
        max_exponent=2 * k + 2,
        moving_slots=frozenset({"c"}),
    )


def _row3(k: int) -> NormalForm:
    slots = [CoefficientSlot("a", (0, 1), (0, 0))]
    slots += [_diag(f"a{i}", 0, "y", i) for i in range(k - 1)]
    slots += [_diag(f"b{j}", 1, "y", j) for j in range(k)]

    return NormalForm(
        index=3,
        k=k,
        l=None,
        discriminant=f"D{2 * k}",
        matrix=_germ(f"sym: x, 0 ; 0, x*y + y^{k}"),
        slots=tuple(slots),
        curve_text=f"s^{k}, 2s^{k}, 2s, s^{k}, s",
        curve_order=k,
        max_exponent=2 * k + 2,
        moving_slots=_names("a", 1, k - 1) | _names("b", 1, k),
    )


def _row4(k: int) -> NormalForm:
    slots = [CoefficientSlot("a", (0, 0), (0, 0))]
    slots += [_diag(f"a{i}", 0, "y", i) for i in range(1, k)]
    slots += [CoefficientSlot("b", (0, 1), (0, 0))]
    slots += [_diag(f"b{j}", 1, "x", j) for j in range(k)]

    return NormalForm(
        index=4,
        k=k,
        l=None,
        discriminant=f"D{2 * k + 1}",
        matrix=_germ(f"sym: x, y^{k} ; y^{k}, x*y"),
        slots=tuple(slots),
        curve_text=f"s^{k}, 2s^{k}, 2s, s^{k}, s",
        curve_order=k,
        max_exponent=2 * k + 2,
        moving_slots=_names("a", 1, k),
    )


def _row5() -> NormalForm:
    slots = (
        CoefficientSlot("a1", (0, 0), (0, 0)),
        CoefficientSlot("a2", (1, 1), (0, 0)),
        CoefficientSlot("a3", (0, 0), (0, 1)),
        CoefficientSlot("a4", (0, 0), (0, 2)),
        CoefficientSlot("a5", (1, 1), (0, 1)),
        CoefficientSlot("a6", (1, 1), (0, 2)),
    )

    return NormalForm(
        index=5,
        k=None,
        l=None,
        discriminant="E6",
        matrix=_germ("sym: x, y^2 ; y^2, x^2"),
        slots=slots,
        curve_text="s, 2s^3, 2s^2, s^3, s^2",
        curve_order=3,
        max_exponent=6,
        moving_slots=frozenset({"a3", "a5"}),
    )


def _row6() -> NormalForm:
    slots = (
        CoefficientSlot("a1", (0, 0), (0, 0)),
        CoefficientSlot("a2", (1, 1), (0, 0)),
        CoefficientSlot("a3", (0, 1), (0, 0)),
        CoefficientSlot("a4", (1, 1), (0, 1)),
        CoefficientSlot("a5", (0, 0), (0, 1)),
        CoefficientSlot("a6", (0, 1), (0, 1)),
        CoefficientSlot("a7", (0, 1), (0, 2)),
    )

    return NormalForm(
        index=6,
        k=None,
        l=None,
        discriminant="E7",
        matrix=_germ("sym: x, 0 ; 0, x^2 + y^3"),
        slots=slots,
        curve_text="s^2, 2s^3, 2s, s^3, s",
        curve_order=3,
        max_exponent=6,
        moving_slots=_names("a", 4, 8),
    )


_ROWS = {1: _row1, 2: _row2, 3: _row3, 4: _row4, 5: _row5, 6: _row6}


def normal_form(index: int, k: int | None = None, l: int | None = None) -> NormalForm:
    """Catalog entry ``index`` (1..6) at parameters ``k`` and ``l``.

    Families 5 and 6 take no parameters, families 2 to 4 take ``k``
    only, family 1 takes both.  Supplying a parameter the family does
    not use, omitting one it needs, or giving one that is not an
    ``int``, is a :class:`CatalogError`.
    """
    wanted = family_parameters(index)
    given = {"k": k, "l": l}
    for name, value in given.items():
        if (name in wanted) != (value is not None):
            need = "needs" if name in wanted else "takes no"
            raise CatalogError(f"catalog entry {index} {need} parameter {name}")
    params = {name: given[name] for name in wanted}
    _check_ints(**params)
    if any(params[n] < low for n, low in _MINIMUMS[index].items()):
        raise CatalogError(_requirement(index))
    return _ROWS[index](**params)


def random_direction(nf: NormalForm, seed: int = 0) -> dict[str, Fraction]:
    """Deterministic pseudo-random coefficients for a catalog entry.

    Seeded from the entry's identity, so reruns and platforms agree.
    Values are small integers in [-2, 2]; a draw that comes out all
    zero gets its last coefficient bumped to 1 so the combination is
    never the empty direction.
    """
    rng = random.Random(f"liptriv:{nf.index}:{nf.k}:{nf.l}:{seed}")
    values = {name: Fraction(rng.randint(-2, 2)) for name in nf.coefficient_names()}
    if not any(values.values()):
        values[nf.slots[-1].name] = Fraction(1)
    return values
