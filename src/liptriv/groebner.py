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

Every membership test, S-polynomial reduction and autoreduction goes
through :func:`divide`, which is a single-pass kernel in the style of
Monagan and Pearce's accumulator division: the polynomial under
reduction is a mutable dict of integer coefficients over one running
denominator, its monomials are kept in a list ordered by the ring's
``sort_key`` (each key computed once), and ``Fraction`` objects are
made only for the cofactor and remainder terms it returns.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Sequence

from .rings import (
    ExponentOverflow,
    Monomial,
    Polynomial,
    RingContext,
    RingError,
    _check_cap,
)

__all__ = [
    "BudgetExceeded",
    "GroebnerBudget",
    "Ideal",
    "buchberger",
    "divide",
    "ideal_member",
    "membership_certificate",
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


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _integer_terms(terms: tuple) -> tuple[int, list]:
    """``(D, [(exponents, int)])`` with ``terms == [(e, n / D)]``, ``D`` the lcm
    of the denominators."""
    denom = math.lcm(*(c.denominator for _, c in terms))
    return denom, [(e, c.numerator * (denom // c.denominator)) for e, c in terms]


def divide(
    p: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division of ``p`` by an ordered list of divisors.

    Returns ``(cofactors, remainder)`` with
    ``p == sum(c * d for c, d in zip(cofactors, divisors)) + remainder``
    and no remainder term divisible by any divisor's leading monomial.
    The identity is what certificate replay checks, so the cofactors are
    returned in full rather than discarded.  Each step divides the
    leading term by the first divisor whose leading monomial divides it.

    The polynomial under reduction is held as integers: a dict ``H`` from
    monomial to ``int`` and a nonzero ``scale`` with ``h == H / scale``.
    Each divisor ``d`` is written once as integer terms ``G`` over the
    lcm ``D`` of its denominators, with leading integer ``a``.  A step
    that cancels the leading term ``c / scale`` of ``h`` records the
    cofactor term ``c*D / (a*scale)`` and sets ``H = a'*H - c'*x^shift*G``
    and ``scale = a'*scale``, where ``t = gcd(a, c)``, ``a' = a/t`` and
    ``c' = c/t``.  ``scale`` stays exact because
    ``(a'*H - c'*x^shift*G) / (a'*scale)`` is
    ``h - (c*D / (a*scale)) * x^shift * d``, the step the rational
    algorithm takes.  When ``a'`` is 1 nothing is rescaled; otherwise
    ``H`` and ``scale`` are divided by their gcd so the integers stay
    bounded.  The leading monomial of ``h`` only falls, so cofactor and
    remainder terms come out in canonical order.  A new monomial over
    the ring's exponent cap raises ``ExponentOverflow``, as the product
    ``x^shift * d`` would.
    """
    ring = p.ring
    for d in divisors:
        if d.ring is not ring and d.ring != ring:
            raise RingError("divisors must share the dividend's ring")
        if d.is_zero:
            raise RingError("cannot divide by the zero polynomial")
    key = ring.sort_key
    leading = [d.terms[0][0] for d in divisors]
    forms: list = [None] * len(divisors)  # integer terms, built at first use
    steps: list[list] = [[] for _ in divisors]
    remainder: list = []
    scale, initial = _integer_terms(p.terms)
    acc = dict(initial)
    # Ascending; a zero left in ``acc`` keeps its entry here until popped.
    order = [(key(m), m) for m, _ in reversed(initial)]
    while order:
        m = order.pop()[1]
        c = acc.pop(m)
        if not c:
            continue
        for i, dlm in enumerate(leading):
            if all(map(le, dlm, m)):
                break
        else:
            remainder.append((m, Fraction(c, scale)))
            continue
        if forms[i] is None:
            denom, terms = _integer_terms(divisors[i].terms)
            forms[i] = (denom, terms[0][1], terms[1:])
        denom, a, tail = forms[i]
        shift = tuple(map(sub, m, dlm))
        steps[i].append((shift, Fraction(c * denom, scale * a)))
        t = math.gcd(a, c)
        a1, c1 = a // t, c // t
        if a1 != 1:
            scale *= a1
            for mono in acc:
                acc[mono] *= a1
        for e, g in tail:
            mono = tuple(map(add, e, shift))
            prev = acc.get(mono)
            if prev is None:
                _check_cap(ring, (mono,))
                acc[mono] = -c1 * g
                insort(order, (key(mono), mono))
            else:
                acc[mono] = prev - c1 * g
        if a1 != 1:
            content = math.gcd(scale, *acc.values())
            if content > 1:
                scale //= content
                for mono in acc:
                    acc[mono] //= content
    cofactors = [Polynomial._raw(ring, tuple(terms)) for terms in steps]
    return cofactors, Polynomial._raw(ring, tuple(remainder))


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
        r = divide(f, others)[1] if others else f
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
            h = divide(s_polynomial(basis[i], basis[j]), basis)[1]
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
        self._basis: tuple[Polynomial, ...] | None = None
        # The curve search's per-curve orders of this ideal, keyed by
        # search config; see ``liptriv.curves.closure_test``.
        self._curve_orders: dict = {}

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(
        self, budget: GroebnerBudget | None = None
    ) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, budget))
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
    return divide(p, ideal.groebner_basis(budget))[1].is_zero


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
    cofactors, remainder = divide(p, basis)
    if not remainder.is_zero:
        return None
    return [(c, b) for c, b in zip(cofactors, basis) if not c.is_zero]
