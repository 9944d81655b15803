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

All reduction runs in one fraction-free loop, ``_reduce``, in the style
of Monagan and Pearce's accumulator division: the polynomial under
reduction is a mutable dict of integer coefficients over one running
denominator, its monomials are kept in a list ordered by the ring's
``sort_key`` (each key computed once), and each divisor is an integer
form ``(D, a, tail)``, the divisor times ``D`` with leading integer
``a``.  :func:`divide` runs it for membership tests and makes
``Fraction`` objects only for the cofactor and remainder terms it
returns.  :func:`buchberger` runs it for every S-pair and for the
autoreduction: each basis element's integer form is made once, when
the element enters the basis, :func:`s_polynomial` combines integer
forms, and each new monic element is read off its primitive integer
remainder with one ``Fraction`` per term.  The only ``Fraction``
arithmetic left in a basis computation makes the input generators
monic.
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
    _merge,
    _require_count,
)

__all__ = [
    "BudgetExceeded",
    "GroebnerBudget",
    "Ideal",
    "buchberger",
    "divide",
    "membership_certificate",
    "s_polynomial",
]


@dataclass(frozen=True)
class GroebnerBudget:
    """Resource ceiling for one basis computation.

    Both limits must be ``int`` values of at least 1 (a ``bool`` is
    refused).
    """

    max_pairs: int = 100_000
    max_degree: int = 60

    def __post_init__(self) -> None:
        _require_count("max_pairs", self.max_pairs, 1)
        _require_count("max_degree", self.max_degree, 1)


def _require_budget(name: str, value) -> None:
    """Refuse ``value`` with ``ValueError`` unless it is a :class:`GroebnerBudget`."""
    if not isinstance(value, GroebnerBudget):
        raise ValueError(f"{name} must be a GroebnerBudget, not {value!r}")


class BudgetExceeded(RuntimeError):
    """The computation outgrew its budget; no partial answer is usable."""


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _integer_terms(terms: tuple) -> tuple[int, list]:
    """``(D, [(exponents, int)])`` with ``terms == [(e, n / D)]``, ``D`` the lcm
    of the denominators."""
    denom = math.lcm(*(c.denominator for _, c in terms))
    return denom, [(e, c.numerator * (denom // c.denominator)) for e, c in terms]


def _integer_form(d: Polynomial) -> tuple[int, int, list]:
    """``(D, a, tail)``: ``D*d`` as integer terms, its leading integer ``a``
    and the terms after the lead."""
    denom, terms = _integer_terms(d.terms)
    return denom, terms[0][1], terms[1:]


class _Forms(dict):
    """Integer forms of a divisor list by index, each made at first use."""

    def __init__(self, divisors: Sequence[Polynomial]):
        super().__init__()
        self.divisors = divisors

    def __missing__(self, i: int) -> tuple:
        form = self[i] = _integer_form(self.divisors[i])
        return form


def _reduce(
    ring: RingContext,
    scale: int,
    terms: list,
    leading: Sequence[Monomial],
    forms,
    steps: list[list] | None = None,
) -> tuple[int, list]:
    """Fully reduce ``h = terms / scale`` by divisors given as leading
    monomials and integer forms ``(D, a, tail)`` (``forms[i]``).

    ``terms`` are integer terms, leading first.  Returns ``(scale,
    remainder)``: the remainder as integer terms over the returned scale,
    leading first, no term divisible by a leading monomial.  When
    ``steps`` is given, ``steps[i]`` collects the cofactor terms of
    divisor ``i`` as ``(shift, Fraction)``.

    Each step divides the leading term of ``h`` by the first divisor
    whose leading monomial divides it, so the divisor chosen never
    depends on the scalars.  A step that cancels the leading term
    ``c / scale`` records the cofactor term ``c*D / (a*scale)`` and sets
    ``H = a'*H - c'*x^shift*G`` and ``scale = a'*scale``, where
    ``t = gcd(a, c)``, ``a' = a/t`` and ``c' = c/t``.  ``scale`` stays
    exact because ``(a'*H - c'*x^shift*G) / (a'*scale)`` is
    ``h - (c*D / (a*scale)) * x^shift * d``, the step the rational
    algorithm takes.  When ``a'`` is 1 nothing is rescaled; otherwise
    ``H``, the remainder terms found so far and ``scale`` are divided by
    their gcd so the integers stay bounded.  The leading monomial of
    ``h`` only falls, so cofactor and remainder terms come out in
    canonical order.  A new monomial over the ring's exponent cap raises
    ``ExponentOverflow``, as the product ``x^shift * d`` would.
    """
    key = ring.sort_key
    acc = dict(terms)
    # Ascending; a zero left in ``acc`` keeps its entry here until popped.
    order = [(key(m), m) for m, _ in reversed(terms)]
    rem_monos: list = []
    rem: list = []
    while order:
        m = order.pop()[1]
        c = acc.pop(m)
        if not c:
            continue
        for i, dlm in enumerate(leading):
            if all(map(le, dlm, m)):
                break
        else:
            rem_monos.append(m)
            rem.append(c)
            continue
        denom, a, tail = forms[i]
        shift = tuple(map(sub, m, dlm))
        if steps is not None:
            steps[i].append((shift, Fraction(c * denom, scale * a)))
        t = math.gcd(a, c)
        a1, c1 = a // t, c // t
        if a1 != 1:
            scale *= a1
            for mono in acc:
                acc[mono] *= a1
            rem = [r * a1 for r in rem]
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
            content = math.gcd(scale, *acc.values(), *rem)
            if content > 1:
                scale //= content
                for mono in acc:
                    acc[mono] //= content
                rem = [r // content for r in rem]
    return scale, list(zip(rem_monos, rem))


def _fractions(ring: RingContext, terms: list, scale: int) -> Polynomial:
    """The polynomial ``terms / scale``, one ``Fraction`` per term."""
    return Polynomial._raw(ring, tuple((m, Fraction(c, scale)) for m, c in terms))


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

    ``p`` is written as integer terms over the lcm of its denominators,
    each divisor's integer form is made at its first use, and the
    division runs in ``_reduce``; ``Fraction`` objects are made only for
    the cofactor and remainder terms returned.  A monomial over the
    ring's exponent cap raises ``ExponentOverflow``.
    """
    ring = p.ring
    for d in divisors:
        if d.ring is not ring and d.ring != ring:
            raise RingError("divisors must share the dividend's ring")
        if d.is_zero:
            raise RingError("cannot divide by the zero polynomial")
    steps: list[list] = [[] for _ in divisors]
    scale, remainder = _reduce(
        ring,
        *_integer_terms(p.terms),
        [d.terms[0][0] for d in divisors],
        _Forms(divisors),
        steps,
    )
    cofactors = [Polynomial._raw(ring, tuple(terms)) for terms in steps]
    return cofactors, _fractions(ring, remainder, scale)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Syzygy combination ``x^u*f/lc(f) - x^v*g/lc(g)`` cancelling the two
    leading terms, ``x^u*lm(f) == x^v*lm(g)`` their lcm.

    It is built from the integer forms ``f == (a*x^lm(f) + F) / D_f`` and
    ``g == (b*x^lm(g) + G) / D_g`` as ``(b'*x^u*F - a'*x^v*G) / (a*b')``,
    with ``t = gcd(a, b)``, ``a' = a/t`` and ``b' = b/t``: two exponent
    shifts, one merge, no ``Polynomial`` arithmetic, and one ``Fraction``
    per term of the result.  A shifted monomial over the ring's exponent
    cap raises ``ExponentOverflow``, as the product with ``x^u`` or
    ``x^v`` would.  ``buchberger`` calls this for every pair it reduces.
    """
    ring = f.ring
    if g.ring is not ring and g.ring != ring:
        raise RingError(f"mixed rings: {ring.variables} vs {g.ring.variables}")
    lm_f, lm_g = f.leading_monomial(), g.leading_monomial()
    _, a, tail_f = _integer_form(f)
    _, b, tail_g = _integer_form(g)
    lcm = _mono_lcm(lm_f, lm_g)
    u = tuple(map(sub, lcm, lm_f))
    v = tuple(map(sub, lcm, lm_g))
    t = math.gcd(a, b)
    mf, mg = b // t, -(a // t)
    left = tuple((tuple(map(add, e, u)), mf * c) for e, c in tail_f)
    right = tuple((tuple(map(add, e, v)), mg * c) for e, c in tail_g)
    _check_cap(ring, (e for e, _ in left))
    _check_cap(ring, (e for e, _ in right))
    return _fractions(ring, _merge(ring, left, right), a * mf)


def _autoreduce(
    ring: RingContext, leading: list[Monomial], forms: list[tuple]
) -> list[Polynomial]:
    """The reduced monic basis from a Groebner basis given by leading
    monomials and integer forms, sorted ascending by leading monomial."""
    ordered = sorted(range(len(leading)), key=lambda k: ring.sort_key(leading[k]))
    # Divisibility implies order, so one ascending pass finds the minimal set.
    minimal: list[int] = []
    for k in ordered:
        if not any(_mono_divides(leading[j], leading[k]) for j in minimal):
            minimal.append(k)
    reduced = []
    for k in minimal:
        others = [j for j in minimal if j != k]
        denom, a, tail = forms[k]
        _, rem = _reduce(
            ring,
            denom,
            [(leading[k], a)] + tail,
            [leading[j] for j in others],
            [forms[j] for j in others],
        )
        # The lead is minimal, so it survives and stays the lead.
        reduced.append(_fractions(ring, rem, rem[0][1]))
    return reduced


def buchberger(
    generators: Iterable[Polynomial], budget: GroebnerBudget | None = None
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span.

    The result is canonical: monic, fully autoreduced, sorted ascending
    by leading monomial.  Raises :class:`BudgetExceeded` when the pair
    count or the degree of a new basis element passes the budget, or
    when an S-pair or its reduction passes the ring's exponent cap.
    ``budget`` is a :class:`GroebnerBudget`, or ``None`` for the
    default one; anything else is refused with ``ValueError``.

    Each basis element's integer form is made once, when it enters the
    basis.  Every S-pair the criteria keep is formed by
    :func:`s_polynomial` and fully reduced by ``_reduce`` on those
    forms; a nonzero remainder is made primitive, and that is both the
    new element's integer form and, with one ``Fraction`` per term, the
    monic element itself.  The autoreduction runs on the same forms.
    """
    if budget is None:
        budget = GroebnerBudget()
    _require_budget("budget", budget)
    basis = [g.monic() for g in generators if not g.is_zero]
    if not basis:
        return []
    ring = basis[0].ring
    for g in basis:
        if g.ring != ring:
            raise RingError("generators must share one ring")
    leading = [g.terms[0][0] for g in basis]
    forms = [_integer_form(g) for g in basis]

    pairs: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(t: int) -> None:
        lm_t = leading[t]
        for i in range(t):
            lcm = _mono_lcm(leading[i], lm_t)
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
            lm_i = leading[i]
            lm_j = leading[j]
            if _mono_coprime(lm_i, lm_j):
                continue
            lcm = _mono_lcm(lm_i, lm_j)
            # Chain criterion: some third element divides the lcm and both
            # of its pairs with i and j have already been treated.
            skip = False
            for k in range(len(basis)):
                if k == i or k == j:
                    continue
                if not _mono_divides(leading[k], lcm):
                    continue
                ik = (min(i, k), max(i, k))
                jk = (min(j, k), max(j, k))
                if ik not in pending and jk not in pending:
                    skip = True
                    break
            if skip:
                continue
            s = s_polynomial(basis[i], basis[j])
            _, rem = _reduce(ring, *_integer_terms(s.terms), leading, forms)
            if not rem:
                continue
            degree = max(sum(m) for m, _ in rem)
            if degree > budget.max_degree:
                raise BudgetExceeded(
                    f"basis element of degree {degree} exceeds "
                    f"cap {budget.max_degree}"
                )
            # Primitive, with a positive lead: the new element's integer form.
            content = math.gcd(*(c for _, c in rem))
            if rem[0][1] < 0:
                content = -content
            terms = [(m, c // content) for m, c in rem]
            a = terms[0][1]
            basis.append(_fractions(ring, terms, a))
            leading.append(terms[0][0])
            forms.append((a, a, terms[1:]))
            push_pairs(len(basis) - 1)
    except ExponentOverflow as exc:
        raise BudgetExceeded(str(exc)) from exc
    return _autoreduce(ring, leading, forms)


class Ideal:
    """Finitely generated ideal with a lazily cached reduced basis.

    Zero generators are dropped at construction; passing nothing at all
    is an error (write the zero ideal as ``Ideal(ring, [ring.zero()])``
    so the intent is visible).  The basis is the only state an ideal
    keeps; its cache is written only on a successful computation, so a
    budget failure can be retried with a bigger budget.
    """

    __slots__ = ("ring", "generators", "_basis")

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

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(
        self, budget: GroebnerBudget | None = None
    ) -> tuple[Polynomial, ...]:
        """The reduced basis, computed once under ``budget`` (see
        :func:`buchberger`); ``budget`` is checked on every call, also
        when the basis is cached."""
        if budget is not None:
            _require_budget("budget", budget)
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, budget))
        return self._basis

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


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
    basis = ideal.groebner_basis(budget)
    cofactors, remainder = divide(p, basis)
    if not remainder.is_zero:
        return None
    return [(c, b) for c, b in zip(cofactors, basis) if not c.is_zero]
