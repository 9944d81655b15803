"""Groebner bases and exact ideal membership over the rationals.

The engine is Buchberger's algorithm with the coprime and chain
criteria, followed by full autoreduction, so every ideal yields the
unique reduced monic basis for its ring's monomial order.  Uniqueness
is what makes all downstream output deterministic.

Computations are budgeted.  A :class:`GroebnerBudget` caps how many
S-pairs may be examined and how large the total degree of any new basis
element may grow; exceeding either raises :class:`BudgetExceeded`, a
recoverable condition that callers degrade on rather than report as a
mathematical answer.  Membership tests through a completed basis are
exact in both directions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rings import ExponentOverflow, Monomial, Polynomial, RingContext, RingError

__all__ = [
    "BudgetExceeded",
    "GroebnerBasis",
    "GroebnerBudget",
    "Ideal",
    "buchberger",
    "divide",
    "ideal_contains",
    "ideal_member",
    "membership_certificate",
    "reduce",
    "s_polynomial",
]


@dataclass(frozen=True)
class GroebnerBudget:
    """Resource ceiling for one basis computation."""

    max_pairs: int = 100_000
    max_degree: int = 60

    def __post_init__(self) -> None:
        if self.max_pairs < 1 or self.max_degree < 1:
            raise ValueError("budget limits must be positive")


class BudgetExceeded(RuntimeError):
    """The computation outgrew its budget; no partial answer is usable."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def divide(
    p: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division of ``p`` by an ordered list of divisors.

    Returns ``(cofactors, remainder)`` with
    ``p == sum(c * d for c, d in zip(cofactors, divisors)) + remainder``
    and no remainder term divisible by any divisor's leading monomial.
    The identity is what certificate replay checks, so the cofactors are
    returned in full rather than discarded.
    """
    ring = p.ring
    for d in divisors:
        if d.ring != ring:
            raise RingError("divisors must share the dividend's ring")
        if d.is_zero:
            raise RingError("cannot divide by the zero polynomial")
    leading = [(d.leading_monomial(), d.leading_coefficient()) for d in divisors]
    cofactors = [ring.zero() for _ in divisors]
    remainder_terms: list = []
    h = p
    while not h.is_zero:
        lm, lc = h.terms[0]
        for i, (dlm, dlc) in enumerate(leading):
            if _mono_divides(dlm, lm):
                factor = ring.monomial(_mono_div(lm, dlm), lc / dlc)
                cofactors[i] = cofactors[i] + factor
                h = h - factor * divisors[i]
                break
        else:
            remainder_terms.append((lm, lc))
            h = Polynomial._raw(ring, h.terms[1:])
    return cofactors, Polynomial(ring, remainder_terms)


def reduce(p: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of ``p`` on division by ``divisors``."""
    if not divisors:
        return p
    return divide(p, divisors)[1]


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Syzygy combination cancelling the two leading terms."""
    lcm = _mono_lcm(f.leading_monomial(), g.leading_monomial())
    mf = f.ring.monomial(_mono_div(lcm, f.leading_monomial()), 1 / f.leading_coefficient())
    mg = g.ring.monomial(_mono_div(lcm, g.leading_monomial()), 1 / g.leading_coefficient())
    return mf * f - mg * g


def _autoreduce(basis: list[Polynomial]) -> list[Polynomial]:
    if not basis:
        return []
    ring = basis[0].ring
    ordered = sorted(basis, key=lambda f: ring.sort_key(f.leading_monomial()))
    # Divisibility implies order, so one ascending pass finds the minimal set.
    minimal: list[Polynomial] = []
    for f in ordered:
        lm = f.leading_monomial()
        if not any(_mono_divides(g.leading_monomial(), lm) for g in minimal):
            minimal.append(f)
    reduced = []
    for i, f in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = reduce(f, others) if others else f
        reduced.append(r.monic())
    reduced.sort(key=lambda f: ring.sort_key(f.leading_monomial()))
    return reduced


def buchberger(
    generators: Iterable[Polynomial], budget: GroebnerBudget | None = None
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span.

    The result is canonical: monic, fully autoreduced, sorted ascending
    by leading monomial.  Raises :class:`BudgetExceeded` when the pair
    count or the degree of a new basis element passes the budget.
    """
    budget = budget or GroebnerBudget()
    basis = [g.monic() for g in generators if not g.is_zero]
    if not basis:
        return []
    ring = basis[0].ring
    for g in basis:
        if g.ring != ring:
            raise RingError("generators must share one ring")

    pairs: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(t: int) -> None:
        lm_t = basis[t].leading_monomial()
        for i in range(t):
            lcm = _mono_lcm(basis[i].leading_monomial(), lm_t)
            heapq.heappush(pairs, (sum(lcm), i, t))
            pending.add((i, t))

    for t in range(1, len(basis)):
        push_pairs(t)

    processed = 0
    try:
        while pairs:
            processed += 1
            if processed > budget.max_pairs:
                raise BudgetExceeded(
                    f"examined more than {budget.max_pairs} S-pairs"
                )
            _, i, j = heapq.heappop(pairs)
            pending.discard((i, j))
            lm_i = basis[i].leading_monomial()
            lm_j = basis[j].leading_monomial()
            if _mono_coprime(lm_i, lm_j):
                continue
            lcm = _mono_lcm(lm_i, lm_j)
            # Chain criterion: some third element divides the lcm and both
            # of its pairs with i and j have already been treated.
            skip = False
            for k in range(len(basis)):
                if k == i or k == j:
                    continue
                if not _mono_divides(basis[k].leading_monomial(), lcm):
                    continue
                ik = (min(i, k), max(i, k))
                jk = (min(j, k), max(j, k))
                if ik not in pending and jk not in pending:
                    skip = True
                    break
            if skip:
                continue
            h = reduce(s_polynomial(basis[i], basis[j]), basis)
            if h.is_zero:
                continue
            if h.degree() > budget.max_degree:
                raise BudgetExceeded(
                    f"basis element of degree {h.degree()} exceeds "
                    f"cap {budget.max_degree}"
                )
            basis.append(h.monic())
            push_pairs(len(basis) - 1)
    except ExponentOverflow as exc:
        raise BudgetExceeded(str(exc)) from exc
    return _autoreduce(basis)


@dataclass(frozen=True)
class GroebnerBasis:
    """A completed reduced basis, frozen for reuse."""

    ring: RingContext
    polys: tuple[Polynomial, ...]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def reduce(self, p: Polynomial) -> Polynomial:
        if not self.polys:
            return p
        return reduce(p, self.polys)


class Ideal:
    """Finitely generated ideal with a lazily cached reduced basis.

    Zero generators are dropped at construction; passing nothing at all
    is an error (write the zero ideal as ``Ideal(ring, [ring.zero()])``
    so the intent is visible).  The basis cache is written only on a
    successful computation, so a budget failure can be retried with a
    bigger budget.
    """

    __slots__ = ("ring", "generators", "_basis", "_curve_orders")

    def __init__(self, ring: RingContext, generators: Iterable[Polynomial]):
        generators = tuple(generators)
        if not generators:
            raise RingError("an ideal needs at least one generator")
        for g in generators:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise RingError("every generator must be a polynomial of the ideal's ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if not g.is_zero)
        self._basis: GroebnerBasis | None = None
        # The curve search's per-curve orders of this ideal, keyed by
        # search config; see ``liptriv.curves.closure_test``.
        self._curve_orders: dict = {}

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self, budget: GroebnerBudget | None = None) -> GroebnerBasis:
        if self._basis is None:
            polys = buchberger(self.generators, budget)
            self._basis = GroebnerBasis(self.ring, tuple(polys))
        return self._basis

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


def ideal_member(
    p: Polynomial, ideal: Ideal, budget: GroebnerBudget | None = None
) -> bool:
    """Exact membership test through the reduced basis."""
    if p.ring != ideal.ring:
        raise RingError("membership test across different rings")
    if ideal.is_zero:
        return p.is_zero
    return ideal.groebner_basis(budget).reduce(p).is_zero


def membership_certificate(
    p: Polynomial, ideal: Ideal, budget: GroebnerBudget | None = None
) -> list[tuple[Polynomial, Polynomial]] | None:
    """Cofactor decomposition of ``p`` over the reduced basis.

    Returns ``[(cofactor, basis_element), ...]`` whose products sum to
    ``p`` exactly, or ``None`` when ``p`` is not in the ideal.  The pairs
    are the replayable evidence: a verifier only needs multiplication
    and addition to check them.
    """
    if p.ring != ideal.ring:
        raise RingError("membership test across different rings")
    if ideal.is_zero:
        return [] if p.is_zero else None
    basis = ideal.groebner_basis(budget)
    cofactors, remainder = divide(p, basis.polys)
    if not remainder.is_zero:
        return None
    return [(c, b) for c, b in zip(cofactors, basis.polys) if not c.is_zero]


def ideal_contains(
    outer: Ideal, inner: Ideal, budget: GroebnerBudget | None = None
) -> bool:
    """Whether every generator of ``inner`` lies in ``outer``."""
    if outer.ring != inner.ring:
        raise RingError("containment test across different rings")
    return all(ideal_member(g, outer, budget) for g in inner.generators)
