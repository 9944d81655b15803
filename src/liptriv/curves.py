"""Arc pullbacks and the one-sided obstruction search.

A test curve substitutes one univariate arc per ring variable, every
arc vanishing at the origin.  Pulling a polynomial back along a curve
gives a univariate polynomial whose order of vanishing is exact and
cheap to read off.  If some element of an ideal's closure candidate
vanishes along a curve to *strictly lower* order than every generator
of the ideal, the curve is a witness that the element cannot lie in the
relevant closure.  Finding no witness proves nothing; the search is
one-sided by design and reports itself as such.

The search reads orders only, so it builds no pullbacks.  Along
monomial arcs ``c_i * s^e_i`` a term ``q * z^a`` lands at degree
``<e, a>`` with value ``q * prod(c_i^a_i)``; an integer kernel sums
those values degree by degree, lowest first, and stops at the first
nonzero sum.  A witness it finds is rebuilt as a :class:`TestCurve` and
its orders are re-derived through :func:`pullback`.  The analyzer then
replays it through :func:`pullback_dense`, which recomputes everything
by plain repeated multiplication and shares no code with the kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .groebner import Ideal
from .rings import (
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    UnivariatePoly,
    format_univariate,
    parse_univariate,
    primed,
)

__all__ = [
    "CurveSearchConfig",
    "PullbackSummary",
    "SearchReport",
    "TestCurve",
    "Witness",
    "closure_test",
    "enumerate_test_curves",
    "format_curve",
    "parse_curve",
    "pullback",
    "pullback_dense",
    "pullback_ideal",
]


class AuditError(RuntimeError):
    """Two verdict computations contradict each other."""


@dataclass(frozen=True)
class TestCurve:
    """One arc per ring variable, all vanishing at the origin."""

    ring: RingContext
    components: tuple[UnivariatePoly, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.ring.arity:
            raise RingError(
                f"curve has {len(self.components)} components for "
                f"{self.ring.arity} variables"
            )
        for name, comp in zip(self.ring.variables, self.components):
            if not comp.is_zero and comp.coeffs[0]:
                raise RingError(
                    f"component for {name!r} does not vanish at the origin"
                )

    def __str__(self) -> str:
        return format_curve(self)


def parse_curve(text: str, ring: RingContext, parameter: str = "s") -> TestCurve:
    """Parse comma-separated arcs, e.g. ``"s,2s^2,2s,s,s^2,s"``."""
    cells = text.split(",")
    if len(cells) != ring.arity:
        raise ParseError(
            f"expected {ring.arity} comma-separated arcs, got {len(cells)}"
        )
    return TestCurve(ring, tuple(parse_univariate(c, parameter) for c in cells))


def format_curve(curve: TestCurve, parameter: str = "s") -> str:
    return ", ".join(format_univariate(c, parameter) for c in curve.components)


def pullback(p: Polynomial, curve: TestCurve) -> UnivariatePoly:
    """Substitute the curve's arcs into ``p``.

    Monomial arcs take a fast path that never forms intermediate
    products: each term contributes one coefficient at one degree.
    Other curves go through :func:`pullback_dense`.
    """
    if p.ring != curve.ring:
        raise RingError("polynomial and curve live in different rings")
    profile: list[tuple[int, Fraction] | None] = []
    for comp in curve.components:
        nonzero = [(i, c) for i, c in enumerate(comp.coeffs) if c]
        if len(nonzero) > 1:
            return pullback_dense(p, curve)
        profile.append(nonzero[0] if nonzero else None)
    acc: dict[int, Fraction] = {}
    for exps, coeff in p.terms:
        degree = 0
        value = coeff
        dead = False
        for e, slot in zip(exps, profile):
            if not e:
                continue
            if slot is None:
                dead = True
                break
            degree += slot[0] * e
            value *= slot[1] ** e
        if dead:
            continue
        acc[degree] = acc.get(degree, Fraction(0)) + value
    if not acc:
        return UnivariatePoly.zero()
    top = max(acc)
    return UnivariatePoly([acc.get(i, 0) for i in range(top + 1)])


def pullback_dense(p: Polynomial, curve: TestCurve) -> UnivariatePoly:
    """Replay route: plain repeated multiplication, no shortcuts.

    Shares no code with the search's order kernel or with the monomial
    fast path of :func:`pullback`, so agreement with them is meaningful.
    """
    if p.ring != curve.ring:
        raise RingError("polynomial and curve live in different rings")
    total = UnivariatePoly.zero()
    for exps, coeff in p.terms:
        factor = UnivariatePoly.constant(coeff)
        for comp, e in zip(curve.components, exps):
            for _ in range(e):
                factor = factor * comp
        total = total + factor
    return total


@dataclass(frozen=True)
class PullbackSummary:
    """Orders of vanishing of an ideal's generators along one curve."""

    curve: TestCurve
    generator_orders: tuple

    @property
    def ideal_order(self):
        """Smallest generator order; ``math.inf`` when nothing survives."""
        return min(self.generator_orders, default=math.inf)


def pullback_ideal(curve: TestCurve, ideal: Ideal) -> PullbackSummary:
    return PullbackSummary(
        curve,
        tuple(pullback(g, curve).order_of_vanishing() for g in ideal.generators),
    )


@dataclass(frozen=True)
class Witness:
    """A curve along which ``element`` drops below the ideal's order.

    Strictness is enforced at construction: ``element_order`` must be
    finite and strictly smaller than ``ideal_order``.
    """

    curve: TestCurve
    element: Polynomial
    element_order: int
    ideal_order: object  # int or math.inf

    def __post_init__(self) -> None:
        if self.element_order is math.inf or not self.element_order < self.ideal_order:
            raise RingError(
                f"not a witness: element order {self.element_order} does not "
                f"drop below ideal order {self.ideal_order}"
            )

    @property
    def margin(self):
        if self.ideal_order is math.inf:
            return math.inf
        return self.ideal_order - self.element_order


@dataclass(frozen=True)
class CurveSearchConfig:
    """Shape of the enumerated curve family.

    Arcs are monomials ``c * s^e`` with ``1 <= e <= max_exponent`` and
    ``c`` drawn from ``coefficients``.  When ``parameter`` names a
    doubled variable, the primed copy of the parameter is forced onto
    the same arc as the original and the pair counts twice toward the
    enumeration degree.
    """

    max_exponent: int
    coefficients: tuple = (1, 2)
    parameter: str | None = None

    def __post_init__(self) -> None:
        if self.max_exponent < 1:
            raise ValueError("max_exponent must be at least 1")
        if not self.coefficients:
            raise ValueError("need at least one coefficient choice")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


def _weighted_compositions(
    weights: Sequence[int], total: int, cap: int
) -> Iterator[tuple[int, ...]]:
    """Exponent tuples with entries in [1, cap] and given weighted sum,
    in ascending lexicographic order."""

    def rec(idx: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if idx == len(weights):
            if remaining == 0:
                yield ()
            return
        tail_min = sum(weights[idx + 1 :])
        tail_max = cap * tail_min
        w = weights[idx]
        for e in range(1, cap + 1):
            used = w * e
            if used > remaining - tail_min:
                break
            if remaining - used > tail_max:
                continue
            for rest in rec(idx + 1, remaining - used):
                yield (e,) + rest

    yield from rec(0, total)


def _profiles(
    ring: RingContext, config: CurveSearchConfig
) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """The search's curves as ``(exponents, coefficients)``, one entry
    per ring variable, in the order of :func:`enumerate_test_curves`.

    All coefficient patterns of one exponent tuple come out together,
    sharing that tuple object, and each pattern object is reused for
    every exponent tuple.
    """
    names = ring.variables
    tied_source = tied_mirror = None
    if config.parameter is not None:
        if config.parameter not in names:
            raise RingError(f"parameter {config.parameter!r} not in ring")
        mirror = primed(config.parameter)
        if mirror in names:
            tied_source = ring.index(config.parameter)
            tied_mirror = ring.index(mirror)
    free = [i for i in range(len(names)) if i != tied_mirror]
    weights = [2 if i == tied_source else 1 for i in free]

    def spread(values: Sequence) -> tuple:
        full = [None] * len(names)
        for pos, v in zip(free, values):
            full[pos] = v
        if tied_mirror is not None:
            full[tied_mirror] = full[tied_source]
        return tuple(full)

    patterns = [
        spread(pattern)
        for pattern in itertools.product(config.coefficients, repeat=len(free))
    ]
    low = sum(weights)
    high = config.max_exponent * sum(weights)
    for total in range(low, high + 1):
        for exps in _weighted_compositions(weights, total, config.max_exponent):
            full_exps = spread(exps)
            for pattern in patterns:
                yield full_exps, pattern


def _monomial_curve(ring: RingContext, exps: Sequence[int], coeffs: Sequence) -> TestCurve:
    return TestCurve(
        ring, tuple(UnivariatePoly.monomial(c, e) for e, c in zip(exps, coeffs))
    )


def enumerate_test_curves(
    ring: RingContext, config: CurveSearchConfig
) -> Iterator[TestCurve]:
    """Lazy stream of monomial curves, cheapest first.

    Curves are ordered by total weighted degree, then by exponent tuple,
    then by coefficient pattern, so the stream is deterministic and the
    small witnesses that tend to exist come out early.
    """
    for exps, coeffs in _profiles(ring, config):
        yield _monomial_curve(ring, exps, coeffs)


class _OrderKernel:
    """Orders of one polynomial along monomial arcs, in plain ints.

    Coefficients are scaled to integers once (by the lcm of their
    denominators, which leaves every order unchanged).  A term's degree
    depends only on the arc exponents and its value only on the arc
    coefficients, so the terms grouped by degree are cached per exponent
    tuple and the term values per coefficient pattern.
    """

    __slots__ = ("terms", "top", "_groups", "_values")

    def __init__(self, p: Polynomial):
        scale = math.lcm(*(c.denominator for _, c in p.terms))
        self.terms = [(exps, int(c * scale)) for exps, c in p.terms]
        self.top = [max(col) for col in zip(*(exps for exps, _ in p.terms))]
        self._groups: dict = {}
        self._values: dict = {}

    def _group(self, arc_exps: tuple) -> list[tuple[int, list[int]]]:
        by_degree: dict[int, list[int]] = {}
        for index, (exps, _) in enumerate(self.terms):
            degree = sum(e * a for e, a in zip(arc_exps, exps))
            by_degree.setdefault(degree, []).append(index)
        groups = sorted(by_degree.items())
        self._groups[arc_exps] = groups
        return groups

    def _value(self, arc_coeffs: tuple) -> list[int]:
        # An arc coefficient n/d contributes n^a * d^(top - a): the term
        # values are all scaled by the same prod d^top, and stay integers.
        arcs = [Fraction(c) for c in arc_coeffs]
        values = []
        for exps, q in self.terms:
            for c, a, top in zip(arcs, exps, self.top):
                q *= c.numerator**a * c.denominator ** (top - a)
            values.append(q)
        self._values[arc_coeffs] = values
        return values

    def order(self, arc_exps: tuple, arc_coeffs: tuple, limit=math.inf):
        """Order along the arcs ``c_i * s^e_i``, or ``limit`` if that is lower.

        Degrees at or above ``limit`` are never summed.
        """
        groups = self._groups.get(arc_exps)
        if groups is None:
            groups = self._group(arc_exps)
        values = self._values.get(arc_coeffs)
        if values is None:
            values = self._value(arc_coeffs)
        for degree, members in groups:
            if degree >= limit:
                return limit
            if sum(map(values.__getitem__, members)):
                return degree
        return limit


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhausted or truncated witness search."""

    curves_tried: int
    budget_exhausted: bool
    config: CurveSearchConfig | None
    best_gap: int | None  # smallest finite (element order - ideal order) seen


def _confirmed_witness(
    curve: TestCurve, element: Polynomial, ideal: Ideal, element_order, ideal_order
) -> Witness:
    """The kernel's witness, with its orders re-derived by :func:`pullback`."""
    summary = pullback_ideal(curve, ideal)
    pulled = pullback(element, curve).order_of_vanishing()
    if (pulled, summary.ideal_order) != (element_order, ideal_order):
        raise AuditError(
            f"order kernel and pullback disagree along {format_curve(curve)}: "
            f"kernel {element_order} < {ideal_order}, "
            f"pullback {pulled} vs {summary.ideal_order}"
        )
    return Witness(curve, element, pulled, summary.ideal_order)


def closure_test(
    element: Polynomial,
    ideal: Ideal,
    budget: int = 1000,
    config: CurveSearchConfig | None = None,
):
    """Search for a :class:`Witness` against ``element``.

    Returns the first witness in enumeration order, or a
    :class:`SearchReport` when the stream or the budget runs out.  A
    report is not a membership proof; it only says this family of
    curves showed nothing.

    The ideal's order along each curve is computed once per config and
    kept on the ideal, so searches for further elements against the
    same ideal only evaluate the element.
    """
    if element.ring != ideal.ring:
        raise RingError("element and ideal live in different rings")
    if element.is_zero:
        return SearchReport(0, False, config, None)
    if config is None:
        config = CurveSearchConfig(max_exponent=max(4, element.degree() + 2))
    known = ideal._curve_orders.setdefault(config, [])
    target = _OrderKernel(element)
    family: list[_OrderKernel] | None = None
    tried = 0
    best_gap: int | None = None
    exhausted = False
    for exps, coeffs in _profiles(ideal.ring, config):
        if tried >= budget:
            exhausted = True
            break
        if tried < len(known):
            ideal_order = known[tried]
        else:
            if family is None:
                family = [_OrderKernel(g) for g in ideal.generators]
            ideal_order = math.inf
            for kernel in family:
                ideal_order = kernel.order(exps, coeffs, ideal_order)
            known.append(ideal_order)
        tried += 1
        element_order = target.order(exps, coeffs)
        if element_order < ideal_order:
            curve = _monomial_curve(ideal.ring, exps, coeffs)
            return _confirmed_witness(curve, element, ideal, element_order, ideal_order)
        if element_order is not math.inf and ideal_order is not math.inf:
            gap = element_order - ideal_order
            if best_gap is None or gap < best_gap:
                best_gap = gap
    return SearchReport(tried, exhausted, config, best_gap)
