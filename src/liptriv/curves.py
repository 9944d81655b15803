"""Arc pullbacks and the one-sided obstruction search.

A test curve substitutes one univariate arc per ring variable, every
arc vanishing at the origin.  Pulling a polynomial back along a curve
gives a univariate polynomial whose order of vanishing is exact and
cheap to read off.  If some element of an ideal's closure candidate
vanishes along a curve to *strictly lower* order than every generator
of the ideal, the curve is a witness that the element cannot lie in the
relevant closure.  Finding no witness proves nothing; the search is
one-sided by design and reports itself as such.

The search walks one fixed family of curves: monomial arcs ``c * s^e``
with ``1 <= e <= max_exponent`` and ``c`` in :data:`ARC_COEFFICIENTS`.
On a doubled ring the parameter ``t``, which both points of a pair
share, counts twice toward the enumeration degree: it stands for both
points.

The search reads orders only, so it builds no pullbacks.  Along
monomial arcs ``c_i * s^e_i`` a term ``q * z^a`` lands at degree
``<e, a>`` with value ``q * prod(c_i^a_i)``; an integer kernel sums
those values degree by degree, lowest first, and stops at the first
nonzero sum.  A witness it finds is rebuilt as a :class:`TestCurve`;
the element's order and every generator's order are re-derived once
through :func:`pullback` and kept in the :class:`Witness`.  The analyzer
replays each of them through :func:`pullback_dense`, which recomputes
everything by plain repeated multiplication and shares no code with the
kernel or with :func:`pullback`: not their integer lifts, not their
degree arithmetic.  What it shares is :class:`UnivariatePoly`, whose
product it calls.  It works on exact ints wherever the coefficients are
integral, with a power table per arc built for the call.

The enumeration comes in *blocks*: one exponent tuple with every
coefficient pattern.  Degrees depend only on the exponents, so the
kernel groups terms by degree once per block; values depend only on the
pattern, so they are computed once per pattern and kept by its index.
Within a block the ideal's order often needs no value at all: no
generator vanishes below its lowest degree, and a single term never
vanishes along arcs with nonzero coefficients.  So when the lowest
degree over all generators, ``d_min``, is reached by a generator whose
lowest group is a single term, the ideal's order is ``d_min`` for every
pattern of the block.  Without such a lead, the generators are summed
in order of their lowest degree, until none left can go lower.  When
the element's lowest group is a single term too, at ``e0``, the block
is settled whole: its first pattern is a witness if ``e0 < d_min``, and
otherwise every pattern has the gap ``e0 - d_min``.  In the other
blocks, once a smallest gap ``best_gap`` is known, the element's order
is read only below ``ideal order + best_gap``: an order at or above it
is neither a witness nor a smaller gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .groebner import Ideal, _integer_terms
from .rings import (
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    UnivariatePoly,
    _require_count,
    format_univariate,
    parse_univariate,
)

__all__ = [
    "ARC_COEFFICIENTS",
    "PullbackSummary",
    "SearchReport",
    "TestCurve",
    "Witness",
    "closure_test",
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


def parse_curve(text: str, ring: RingContext) -> TestCurve:
    """Parse comma-separated arcs, e.g. ``"s,2s^2,2s,s,s^2,s"``."""
    cells = text.split(",")
    if len(cells) != ring.arity:
        raise ParseError(
            f"expected {ring.arity} comma-separated arcs, got {len(cells)}"
        )
    return TestCurve(ring, tuple(parse_univariate(c) for c in cells))


def format_curve(curve: TestCurve) -> str:
    return ", ".join(format_univariate(c) for c in curve.components)


def pullback(p: Polynomial, curve: TestCurve) -> UnivariatePoly:
    """Substitute the curve's arcs into ``p``.

    Monomial arcs take a fast path that never forms intermediate
    products: each term contributes one coefficient at one degree,
    computed on ints wherever the coefficients are integral.  Other
    curves go through :func:`pullback_dense`.
    """
    if p.ring != curve.ring:
        raise RingError("polynomial and curve live in different rings")
    profile: list[tuple[int, int | Fraction] | None] = []
    for comp in curve.components:
        nonzero = [
            (i, c.numerator if c.denominator == 1 else c)
            for i, c in enumerate(comp.coeffs)
            if c
        ]
        if len(nonzero) > 1:
            return pullback_dense(p, curve)
        profile.append(nonzero[0] if nonzero else None)
    acc: dict[int, int | Fraction] = {}
    for exps, coeff in p.terms:
        degree = 0
        value = coeff.numerator if coeff.denominator == 1 else coeff
        for e, slot in zip(exps, profile):
            if not e:
                continue
            if slot is None:
                break
            degree += slot[0] * e
            value *= slot[1] ** e
        else:
            acc[degree] = acc.get(degree, 0) + value
    if not acc:
        return UnivariatePoly.zero()
    top = max(acc)
    return UnivariatePoly([acc.get(i, 0) for i in range(top + 1)])


def pullback_dense(p: Polynomial, curve: TestCurve) -> UnivariatePoly:
    """Replay route: plain repeated multiplication, no shortcuts.

    Shares no code with the search's order kernel or with
    :func:`pullback`, and lifts coefficients to ints with its own code,
    so agreement with them is meaningful.  What it does share is
    :class:`UnivariatePoly`'s product.  Each arc gets a power table for
    the call, seeded ``[1, arc]`` and grown one multiplication at a
    time; a term multiplies together the powers of the variables it
    uses, and its coefficient scales the product into the sum.
    Integral coefficients of the arcs and of ``p`` are carried as exact
    ints, the others as ``Fraction``; the sum is built by the
    validating constructor, so its coefficients are ``Fraction`` as for
    any other :class:`UnivariatePoly`.
    """
    if p.ring != curve.ring:
        raise RingError("polynomial and curve live in different rings")
    one = UnivariatePoly._raw((1,))
    tables = []
    for comp in curve.components:
        arc = tuple(c.numerator if c.denominator == 1 else c for c in comp.coeffs)
        tables.append([one, UnivariatePoly._raw(arc)])
    total: list = []
    for exps, coeff in p.terms:
        factor = one
        for table, e in zip(tables, exps):
            if e:
                while len(table) <= e:
                    table.append(table[-1] * table[1])
                factor = table[e] if factor is one else factor * table[e]
        if coeff.denominator == 1:
            coeff = coeff.numerator
        coeffs = factor.coeffs
        if len(total) < len(coeffs):
            total.extend([0] * (len(coeffs) - len(total)))
        for i, c in enumerate(coeffs):
            total[i] += coeff * c
    return UnivariatePoly(total)


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
class Witness(PullbackSummary):
    """A curve's generator orders plus an ``element`` that drops below them.

    This is the whole evidence of the valuative criterion: every
    generator's order along ``curve``, in generator order, and the
    element's.  ``ideal_order`` is the inherited minimum, never stored.
    Construction enforces the strict drop: ``element_order`` must be
    finite and smaller than ``ideal_order``.
    """

    element: Polynomial
    element_order: int

    def __post_init__(self) -> None:
        if self.element_order is math.inf or not self.element_order < self.ideal_order:
            raise RingError(
                f"not a witness: element order {self.element_order} does not "
                f"drop below ideal order {self.ideal_order}"
            )


ARC_COEFFICIENTS = (1, 2)
"""The coefficients ``c`` of the searched arcs ``c * s^e``: nonzero
integers, so a single term never vanishes along a searched arc."""


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
    ring: RingContext, max_exponent: int
) -> Iterator[tuple[tuple[int, ...], list[tuple]]]:
    """The search's curves in blocks ``(exponents, patterns)``, one entry
    per ring variable, cheapest first.

    Blocks come by weighted degree, then by exponent tuple; a block is
    one exponent tuple with every pattern of :data:`ARC_COEFFICIENTS`,
    and all blocks share one list of patterns.  On a doubled ring a
    variable that is its own mirror, the shared parameter, weighs 2.
    """
    weights = [1] * ring.arity
    if ring.doubled:
        for i, m in enumerate(ring.mirror_indices()):
            if i == m:
                weights[i] = 2
    patterns = list(itertools.product(ARC_COEFFICIENTS, repeat=ring.arity))
    for total in range(sum(weights), max_exponent * sum(weights) + 1):
        for exps in _weighted_compositions(weights, total, max_exponent):
            yield exps, patterns


def _monomial_curve(ring: RingContext, exps: Sequence[int], coeffs: Sequence) -> TestCurve:
    return TestCurve(
        ring, tuple(UnivariatePoly.monomial(c, e) for e, c in zip(exps, coeffs))
    )


class _OrderKernel:
    """Orders of one polynomial along monomial arcs, in plain ints.

    Coefficients are scaled to integers once (by the lcm of their
    denominators, which leaves every order unchanged).  A term's degree
    depends only on the arc exponents and its value only on the arc
    coefficients.  So :meth:`enter` groups the terms by degree once per
    block and keeps only the current block's groups; term values are
    kept per coefficient pattern, by the pattern's index, which names
    the same pattern in every block.  Values stay exact for rational
    arc coefficients too.  A kernel lives for one search.
    """

    __slots__ = ("terms", "_groups", "_values")

    def __init__(self, p: Polynomial):
        _, self.terms = _integer_terms(p.terms)
        self._groups: list[tuple[int, tuple[int, ...]]] = []
        self._values: list[list[int] | None] = []

    def enter(self, arc_exps: tuple) -> list[tuple[int, tuple[int, ...]]]:
        """Make ``arc_exps`` the current block; its ``(degree, term
        indices)`` groups, lowest degree first."""
        by_degree: dict[int, list[int]] = {}
        for index, (exps, _) in enumerate(self.terms):
            degree = sum(map(mul, arc_exps, exps))
            by_degree.setdefault(degree, []).append(index)
        self._groups = [(d, tuple(m)) for d, m in sorted(by_degree.items())]
        return self._groups

    def _term_values(self, arc_coeffs: tuple) -> list[int]:
        values = []
        for exps, q in self.terms:
            for c, a in zip(arc_coeffs, exps):
                q *= c**a
            values.append(q)
        return values

    def values_at(self, index: int, arc_coeffs: tuple) -> list[int]:
        """Term values at the block's ``index``-th pattern, computed once."""
        cache = self._values
        if index >= len(cache):
            cache.extend([None] * (index + 1 - len(cache)))
        values = cache[index]
        if values is None:
            values = cache[index] = self._term_values(arc_coeffs)
        return values

    def order_at(self, index: int, arc_coeffs: tuple, limit=math.inf):
        """Order along the current block's ``index``-th pattern, or
        ``limit`` if that is lower; degrees at or above ``limit`` are
        never summed."""
        values = self.values_at(index, arc_coeffs)
        for degree, members in self._groups:
            if degree >= limit:
                return limit
            if sum(map(values.__getitem__, members)):
                return degree
        return limit


def _block_leads(family: list[_OrderKernel], arc_exps: tuple):
    """``(d_min, lead, ordered)`` for one block.

    Every kernel in ``family`` has terms.  ``ordered`` holds
    ``(first-group degree, kernel)`` for each, lowest degree first;
    ``d_min`` is the lowest of those degrees.  ``lead`` says whether
    some generator's first group sits at ``d_min`` and is a single
    term: that term is nonzero along every searched arc, so the ideal's
    order is then ``d_min`` for every pattern of the block.
    """
    firsts = sorted(
        ((k.enter(arc_exps)[0], k) for k in family),
        key=lambda first: first[0][0],
    )
    d_min = firsts[0][0][0] if firsts else math.inf
    lead = any(
        degree == d_min and len(members) == 1 for (degree, members), _ in firsts
    )
    return d_min, lead, [(degree, k) for (degree, _), k in firsts]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhausted or truncated witness search."""

    curves_tried: int
    budget_exhausted: bool
    max_exponent: int
    best_gap: int | None  # smallest finite (element order - ideal order) seen


def _confirmed_witness(
    curve: TestCurve, element: Polynomial, ideal: Ideal, element_order, ideal_order
) -> Witness:
    """The kernel's witness, with every order re-derived by :func:`pullback`."""
    summary = pullback_ideal(curve, ideal)
    pulled = pullback(element, curve).order_of_vanishing()
    if (pulled, summary.ideal_order) != (element_order, ideal_order):
        raise AuditError(
            f"order kernel and pullback disagree along {format_curve(curve)}: "
            f"kernel {element_order} < {ideal_order}, "
            f"pullback {pulled} vs {summary.ideal_order}"
        )
    return Witness(curve, summary.generator_orders, element, pulled)


def closure_test(element: Polynomial, ideal: Ideal, budget: int, max_exponent: int):
    """Search for a :class:`Witness` against ``element``.

    Returns the first witness in enumeration order, or a
    :class:`SearchReport` when the stream or the budget runs out.  A
    report is not a membership proof; it only says this family of
    curves showed nothing.  ``budget`` caps the curves tried; it must be
    an ``int`` of at least 0, and ``0`` searches nothing.
    ``max_exponent`` caps the arc exponents (see the module docstring);
    it must be an ``int`` of at least 1.  A ``bool`` is refused for
    either, with ``ValueError`` like every other invalid value.

    The curves are walked one block (exponent tuple) at a time, with the
    leads, block settlement and the limit of the module docstring, and
    nothing is computed for the curves after a witness.
    A witness's orders are re-derived by :func:`pullback` on the
    unfolded polynomials.  The search keeps nothing between calls and
    writes nothing into its arguments.
    """
    _require_count("max_exponent", max_exponent, 1)
    _require_count("budget", budget, 0)
    if element.ring != ideal.ring:
        raise RingError("element and ideal live in different rings")
    if element.is_zero:
        return SearchReport(0, False, max_exponent, None)
    target = _OrderKernel(element)
    family = [_OrderKernel(g) for g in ideal.generators]
    family = [kernel for kernel in family if kernel.terms]
    tried = 0
    best_gap: int | None = None
    exhausted = False
    for exps, patterns in _profiles(ideal.ring, max_exponent):
        if tried + len(patterns) > budget:
            patterns = patterns[: budget - tried]
            exhausted = True
        groups = target.enter(exps)
        d_min, lead, ordered = _block_leads(family, exps)
        if lead and patterns and groups and len(groups[0][1]) == 1:
            # The element's lowest group is a single term too, so both
            # orders are the same for every pattern of the block.
            e0 = groups[0][0]
            if e0 < d_min:
                curve = _monomial_curve(ideal.ring, exps, patterns[0])
                return _confirmed_witness(curve, element, ideal, e0, d_min)
            tried += len(patterns)
            if best_gap is None or e0 - d_min < best_gap:
                best_gap = e0 - d_min
        else:
            for index, coeffs in enumerate(patterns):
                if lead:
                    ideal_order = d_min
                else:
                    ideal_order = math.inf
                    for first, kernel in ordered:
                        if first >= ideal_order:
                            break
                        ideal_order = kernel.order_at(index, coeffs, ideal_order)
                tried += 1
                # No witness was found, so best_gap >= 0, and an order at
                # or above ideal_order + best_gap is neither a witness nor
                # a lower gap.
                limit = math.inf if best_gap is None else ideal_order + best_gap
                element_order = target.order_at(index, coeffs, limit)
                if element_order < ideal_order:
                    curve = _monomial_curve(ideal.ring, exps, coeffs)
                    return _confirmed_witness(
                        curve, element, ideal, element_order, ideal_order
                    )
                if element_order is not math.inf and ideal_order is not math.inf:
                    gap = element_order - ideal_order
                    if best_gap is None or gap < best_gap:
                        best_gap = gap
        if exhausted:
            break
    return SearchReport(tried, exhausted, max_exponent, best_gap)
