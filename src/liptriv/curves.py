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
On a doubled ring the arcs are *paired*: each variable has the same
exponent as its mirror (the parameter ``t`` is its own mirror), while
every variable, mirrors included, takes its own coefficient.  Every
witness against a difference ideal found so far has been paired.

The search reads orders only, so it builds no pullbacks.  Along
monomial arcs ``c_i * s^e_i`` a term ``q * z^a`` lands at degree
``<e, a>`` with value ``q * prod(c_i^a_i)``, and the order is the
lowest degree whose terms do not cancel.  A witness the search finds is
rebuilt as a :class:`TestCurve`; the element's order and every
generator's order are re-derived once through :func:`pullback` and kept
in the :class:`Witness`.  The analyzer replays each of them through
:func:`pullback_dense`, which recomputes everything by plain repeated
multiplication and shares no code with the search's integer kernel or
with :func:`pullback`: not their integer lifts, not their degree
arithmetic.  What it shares is :class:`UnivariatePoly`, whose product
it calls.  It works on exact ints wherever the coefficients are
integral, with a power table per arc built for the call.

The enumeration comes in *blocks*: one exponent tuple with every
coefficient pattern.  Degrees depend only on the exponents, so each
polynomial's terms are grouped by degree once per block; whether a
group cancels depends only on the pattern.  So the kernel keeps, per
distinct group, two bitmasks over the patterns (Python ints): the
patterns evaluated so far and those along which the group does not
cancel.  It values each pattern's terms once, and only for patterns
asked for and not yet seen; a single term needs no value, since the
searched arc coefficients are nonzero.

A *window* of patterns is decided at once, as *level sets*: per degree,
the mask of the patterns whose order it is.  One ascending-degree sweep
merges all generators' groups and stops once every pattern has its
ideal order; a pattern never covered has infinite ideal order.  The
element's groups are swept likewise, but once a smallest gap
``best_gap`` is known, a pattern of ideal order ``d`` is read only below
``d + best_gap``: an element order at or above it is neither a witness
nor a smaller gap.  The witness is the lowest pattern whose element
order is below its ideal order; ``best_gap`` is the smallest
``de - di`` over an element level ``de`` and an ideal level ``di`` that
share a pattern.  Each window is as large as the curves tried before
it, at least one: the first block is decided 1, 1, 2, 4, ... patterns
at a time and every later block whole, so a witness at the ``n``-th
curve is found after deciding at most ``2n`` curves.

Two things are not computed again.  A stream's exponent tuples depend
only on the ring's mirror map, its arity and ``max_exponent``, so every
search of one stream reads one shared list, generated once per process
and only as far as some search has read (see :func:`_profiles`).  And a
kernel's degree grouping depends only on the block's exponents on the
variables its terms use, so from its second block on a kernel keeps each
grouping under those exponents for the rest of its search.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .groebner import Ideal
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

    __test__ = False  # a library class, not a pytest test class

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


def pullback_ideal(curve: TestCurve, ideal: Ideal) -> tuple:
    """Each generator's order of vanishing along ``curve``, in generator
    order; ``math.inf`` for a generator that vanishes along it."""
    return tuple(pullback(g, curve).order_of_vanishing() for g in ideal.generators)


@dataclass(frozen=True)
class Witness:
    """A curve's generator orders plus an ``element`` that drops below them.

    This is the whole evidence of the valuative criterion: every
    generator's order along ``curve``, in generator order, and the
    element's.  ``ideal_order`` is their minimum, never stored.
    Construction enforces the strict drop: ``element_order`` must be
    finite and smaller than ``ideal_order``.
    """

    curve: TestCurve
    generator_orders: tuple
    element: Polynomial
    element_order: int

    @property
    def ideal_order(self):
        """Smallest generator order; ``math.inf`` when nothing survives."""
        return min(self.generator_orders, default=math.inf)

    def __post_init__(self) -> None:
        if self.element_order is math.inf or not self.element_order < self.ideal_order:
            raise RingError(
                f"not a witness: element order {self.element_order} does not "
                f"drop below ideal order {self.ideal_order}"
            )


ARC_COEFFICIENTS = (1, 2)
"""The coefficients ``c`` of the searched arcs ``c * s^e``: nonzero
integers, so a single term never vanishes along a searched arc."""


def _compositions(length: int, total: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of ``length`` entries in [1, cap] summing to
    ``total``, in ascending lexicographic order."""

    def rec(idx: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if idx == length:
            if remaining == 0:
                yield ()
            return
        tail_min = length - idx - 1
        tail_max = cap * tail_min
        for e in range(1, cap + 1):
            if e > remaining - tail_min:
                break
            if remaining - e > tail_max:
                continue
            for rest in rec(idx + 1, remaining - e):
                yield (e,) + rest

    yield from rec(0, total)


class _Stream:
    """One stream's exponent tuples, generated on demand and kept.

    ``blocks`` holds the tuples generated so far, in stream order, and
    ``patterns`` the coefficient patterns every block shares.  A tuple
    is a composition over the variables of ``mirrors`` (the index of
    each one's mirror) with its exponents copied onto the mirrors.  Only
    :meth:`reaches` generates, under :data:`_STREAMS_LOCK`.
    """

    def __init__(self, mirrors: tuple[int, ...], max_exponent: int, arity: int):
        self.patterns = list(itertools.product(ARC_COEFFICIENTS, repeat=arity))
        self.blocks: list[tuple[int, ...]] = []
        source = [0] * arity  # the variable of the composition each copies
        for i, m in enumerate(mirrors):
            source[i] = source[m] = i
        n = len(mirrors)
        self._rest = (
            tuple(map(half.__getitem__, source))
            for total in range(n, max_exponent * n + 1)
            for half in _compositions(n, total, max_exponent)
        )

    def reaches(self, index: int) -> bool:
        """Whether the stream has a block ``index``, generating up to it."""
        with _STREAMS_LOCK:
            while len(self.blocks) <= index:
                exps = next(self._rest, None)
                if exps is None:
                    return False
                self.blocks.append(exps)
        return True


_STREAM_LIMIT = 8
"""How many streams :func:`_profiles` keeps; the least recently used
is dropped first."""

_STREAMS: dict[tuple, _Stream] = {}
_STREAMS_LOCK = threading.Lock()


def _profiles(
    ring: RingContext, max_exponent: int
) -> Iterator[tuple[tuple[int, ...], list[tuple]]]:
    """The search's curves in blocks ``(exponents, patterns)``, one entry
    per ring variable, cheapest first.

    A block is one exponent tuple with every pattern of
    :data:`ARC_COEFFICIENTS`, and all blocks share one list of patterns.
    On a doubled ring the search runs along paired arcs only: the
    exponent tuples are compositions over the half variables, ``t``
    among them, each copied onto its mirror.  Blocks come by the sum of
    those half exponents, the degree of the arc of one point of the
    pair, then by exponent tuple.  For a difference ideal no witness
    found so far lies off the paired arcs; for any other ideal on a
    doubled ring the unpaired arcs are simply not searched, which a
    one-sided search may do.  A ring that is not doubled searches every
    exponent tuple, by total degree, then by tuple.

    The stream is shared: it depends on nothing but the mirror map,
    ``max_exponent`` and the arity, and every search of it in the process
    reads one :class:`_Stream`, which holds only exponent tuples and
    patterns.  A block is generated when a search first reads it and
    kept, so the stream grows only as far as the furthest block read;
    at most :data:`_STREAM_LIMIT` streams are kept.  Generation and the
    lookup hold a lock, so threads may share the streams.
    """
    mirrors = ring.mirrors or tuple(range(ring.arity))
    key = (mirrors, max_exponent, ring.arity)
    with _STREAMS_LOCK:
        stream = _STREAMS.pop(key, None) or _Stream(*key)
        _STREAMS[key] = stream
        while len(_STREAMS) > _STREAM_LIMIT:
            del _STREAMS[next(iter(_STREAMS))]
    blocks, patterns = stream.blocks, stream.patterns
    index = 0
    while index < len(blocks) or stream.reaches(index):
        yield blocks[index], patterns
        index += 1


def _monomial_curve(ring: RingContext, exps: Sequence[int], coeffs: Sequence) -> TestCurve:
    return TestCurve(
        ring, tuple(UnivariatePoly.monomial(c, e) for e, c in zip(exps, coeffs))
    )


class _OrderKernel:
    """Orders of one polynomial along monomial arcs, in plain ints.

    Coefficients are the integers of ``p``'s stored form, ``p`` times
    its denominator, which leaves every order unchanged.  A term's degree
    depends only on the arc exponents and its value only on the arc
    coefficients.  So :meth:`enter` groups the terms by degree once per
    block, and whether a group cancels depends on the pattern alone:
    :meth:`live` keeps, per distinct group, two bitmasks over
    ``patterns`` (bit ``i`` stands for ``patterns[i]``), the patterns
    it has evaluated and those along which the group does not cancel.
    Term values are computed once per pattern, and a single term needs
    none along the patterns of the mask ``plain``, which must hold only
    patterns without a zero coefficient.  Values stay exact for rational
    arc coefficients too.  A kernel lives for one search.

    A grouping depends only on the block's exponents on the variables
    the terms use (``_used``), so from the kernel's second block on,
    :meth:`enter` keeps each grouping under them (``_grouped``).  The
    first block stores nothing, so a one-block search pays nothing, and
    a kernel whose terms use every variable keeps no groupings: within a
    search no two blocks share an exponent tuple.
    """

    def __init__(self, p: Polynomial, patterns: Sequence[tuple], plain: int):
        unpack = p.ring._packing.unpack
        self.terms = [(unpack(m), c) for m, c in p.packed]
        self.patterns = patterns
        self._plain = plain
        self._values: list[list[int] | None] = [None] * len(patterns)
        self._masks: dict[tuple[int, ...], tuple[int, int]] = {}
        self._entered = 0
        self._used: list[bool] = []
        self._grouped: dict[tuple[int, ...], list] | None = None

    def enter(self, arc_exps: tuple) -> list[tuple[int, tuple[int, ...]]]:
        """The ``(degree, term indices)`` groups along ``arc_exps``,
        lowest degree first."""
        grouped = self._grouped
        if grouped is None:
            self._entered += 1
            if self._entered == 2:
                used = [any(e[i] for e, _ in self.terms) for i in range(len(arc_exps))]
                if not all(used):
                    self._used = used
                    self._grouped = grouped = {}
            if grouped is None:
                return self._group(arc_exps)
        key = tuple(itertools.compress(arc_exps, self._used))
        groups = grouped.get(key)
        if groups is None:
            groups = grouped[key] = self._group(arc_exps)
        return groups

    def _group(self, arc_exps: tuple) -> list[tuple[int, tuple[int, ...]]]:
        by_degree: dict[int, list[int]] = {}
        for index, (exps, _) in enumerate(self.terms):
            degree = sum(map(mul, arc_exps, exps))
            by_degree.setdefault(degree, []).append(index)
        return [(d, tuple(m)) for d, m in sorted(by_degree.items())]

    def _term_values(self, arc_coeffs: tuple) -> list[int]:
        values = []
        for exps, q in self.terms:
            for c, a in zip(arc_coeffs, exps):
                if a:
                    q *= c**a
            values.append(q)
        return values

    def values_at(self, index: int) -> list[int]:
        """Term values along the ``index``-th pattern, computed once."""
        values = self._values[index]
        if values is None:
            values = self._values[index] = self._term_values(self.patterns[index])
        return values

    def live(self, members: tuple[int, ...], ask: int) -> int:
        """The patterns in the mask ``ask`` along which the terms
        ``members`` do not cancel; only patterns not asked before are
        evaluated."""
        seen, live = self._masks.get(members, (0, 0))
        todo = ask & ~seen
        if todo:
            if len(members) == 1:
                live |= todo & self._plain
                todo &= ~self._plain
            while todo:
                low = todo & -todo
                todo ^= low
                values = self.values_at(low.bit_length() - 1)
                if sum(map(values.__getitem__, members)):
                    live |= low
            self._masks[members] = (seen | ask, live)
        return live & ask


def _levels(groups, ask: int, drops=()) -> tuple[list[tuple[int, int]], int]:
    """Level sets of an order over the patterns in the mask ``ask``.

    ``groups`` are ``(degree, kernel, members)``, lowest degree first;
    along a pattern, the order is the lowest degree of a group that does
    not cancel there.  ``drops`` are ``(degree, mask)``, lowest degree
    first: from ``degree`` on, the patterns of ``mask`` are not read.
    Returns ``(levels, rest)``: the ``(degree, mask)`` levels, lowest
    first, and the patterns of ``ask`` that no level holds and no drop
    removed, which is where the order is infinite.  The sweep stops
    once every pattern has its level.
    """
    levels = []
    j = 0
    for degree, kernel, members in groups:
        while j < len(drops) and drops[j][0] <= degree:
            ask &= ~drops[j][1]
            j += 1
        if not ask:
            break
        hits = kernel.live(members, ask)
        if hits:
            levels.append((degree, hits))
            ask ^= hits
    return levels, ask


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
    orders = pullback_ideal(curve, ideal)
    pulled = pullback(element, curve).order_of_vanishing()
    pulled_ideal = min(orders, default=math.inf)
    if (pulled, pulled_ideal) != (element_order, ideal_order):
        raise AuditError(
            f"order kernel and pullback disagree along {format_curve(curve)}: "
            f"kernel {element_order} < {ideal_order}, "
            f"pullback {pulled} vs {pulled_ideal}"
        )
    return Witness(curve, orders, element, pulled)


def closure_test(element: Polynomial, ideal: Ideal, budget: int, max_exponent: int):
    """Search for a :class:`Witness` against ``element``.

    Returns the first witness in enumeration order, or a
    :class:`SearchReport` when the stream or the budget runs out.  A
    report is not a membership proof; it only says this family of
    curves showed nothing.  On a doubled ring the family is the paired
    arcs of :func:`_profiles`: built for difference ideals, it still
    yields genuine witnesses against any other ideal there, but a
    report then says nothing of the unpaired arcs.

    ``budget`` caps the curves tried; it must be an ``int`` of at least
    0, and ``0`` searches nothing.
    ``max_exponent`` caps the arc exponents (see the module docstring);
    it must be an ``int`` of at least 1.  A ``bool`` is refused for
    either, with ``ValueError`` like every other invalid value.

    The curves are decided a window of patterns at a time, with the
    masks, sweeps and windows of the module docstring, and nothing is
    computed past the window that holds a witness.  A witness's orders
    are re-derived by :func:`pullback` on the unfolded polynomials.  The
    search writes nothing into its arguments.  The one thing it keeps
    between calls is the shared curve stream of :func:`_profiles`:
    exponent tuples, which depend on no input, only on the ring's mirror
    map, its arity and ``max_exponent``.
    """
    _require_count("max_exponent", max_exponent, 1)
    _require_count("budget", budget, 0)
    if element.ring != ideal.ring:
        raise RingError("element and ideal live in different rings")
    if element.is_zero:
        return SearchReport(0, False, max_exponent, None)
    tried = 0
    best_gap: int | None = None
    exhausted = False
    for exps, patterns in _profiles(ideal.ring, max_exponent):
        if tried == budget:
            # The budget ended on a block boundary, before this block.
            exhausted = True
            break
        if not tried:
            # The first block.  Every block shares its list of patterns,
            # and no term vanishes along any of them: ARC_COEFFICIENTS
            # are nonzero.
            plain = (1 << len(patterns)) - 1
            target = _OrderKernel(element, patterns, plain)
            family = [_OrderKernel(g, patterns, plain) for g in ideal.generators]
            family = [kernel for kernel in family if kernel.terms]
        count = min(len(patterns), budget - tried)
        exhausted = count < len(patterns)
        element_groups = [(d, target, m) for d, m in target.enter(exps)]
        ideal_groups = [(d, k, m) for k in family for d, m in k.enter(exps)]
        ideal_groups.sort(key=itemgetter(0))
        start = 0
        while start < count:
            # Each window is as large as the curves tried before it.
            stop = min(count, start + max(1, tried))
            window = (1 << stop) - (1 << start)
            ideal_levels, vanishing = _levels(ideal_groups, window)
            # No witness was found, so best_gap >= 0, and an element
            # order at or above ideal order + best_gap is neither a
            # witness nor a lower gap.
            drops = []
            if best_gap is not None:
                drops = [(d + best_gap, m) for d, m in ideal_levels]
            element_levels, _ = _levels(element_groups, window, drops)
            witnesses = 0
            for de, reached in element_levels:
                below = vanishing
                for di, level in ideal_levels:
                    if di > de:
                        below |= level
                    elif reached & level and (best_gap is None or de - di < best_gap):
                        best_gap = de - di
                witnesses |= reached & below
            if witnesses:
                first = witnesses & -witnesses
                element_order = next(d for d, m in element_levels if m & first)
                ideal_order = next((d for d, m in ideal_levels if m & first), math.inf)
                coeffs = patterns[first.bit_length() - 1]
                curve = _monomial_curve(ideal.ring, exps, coeffs)
                return _confirmed_witness(
                    curve, element, ideal, element_order, ideal_order
                )
            tried += stop - start
            start = stop
        if exhausted:
            break
    return SearchReport(tried, exhausted, max_exponent, best_gap)
