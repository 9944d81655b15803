"""Groebner bases and exact ideal membership over the rationals.

The engine is Buchberger's algorithm with the pair update of Gebauer
and Möller ("On an installation of Buchberger's algorithm", J. Symb.
Comput. 6, 1988), followed by full autoreduction, so every ideal yields
the unique reduced monic basis for its ring's monomial order.
Uniqueness is what makes all downstream output deterministic.  The
update runs once as each element enters the basis, input or new: it
drops the old pairs that criterion B makes redundant, keeps one new pair
per least common multiple of leading monomials unless a coprime pair
shares it or a smaller such lcm divides it, and stops pairing the
elements whose leading monomial the new one divides.

Computations are budgeted.  A :class:`GroebnerBudget` caps how many
S-pairs may be considered and how large the total degree of any new
basis element may grow; exceeding either raises :class:`BudgetExceeded`,
a recoverable condition that callers degrade on rather than report as a
mathematical answer.  Membership tests through a completed basis are
exact in both directions.

All reduction runs in one fraction-free loop, ``_reduce``, in the style
of Monagan and Pearce's accumulator division on packed exponent vectors
("Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  It reads each ``Polynomial``'s own stored form,
``packed / denominator`` with packed monomials (``rings._Packing``), so
a product is ``+``, the order is ``<``, and divisibility and the
exponent cap are mask tests.  The polynomial under reduction is a
mutable dict of integer coefficients over one running denominator, its
monomials are kept in an ascending list, and each divisor is read as
``(D, a, tail)``, the divisor times ``D`` with leading integer ``a`` and
packed tail terms.  Remainders and new basis elements are built from
their integer terms by ``rings._from_integers``, so nothing is packed
or unpacked on the way in or out.  :func:`divide` makes ``Fraction``
objects only for the cofactor terms it returns.  In :func:`buchberger`
the path from S-pair to remainder stays in packed integers:
:func:`s_polynomial` returns the S-pair as packed integer terms, the
form ``_reduce`` takes, and the pair update compares the exponent fields
of packed leading monomials (``_Packing.lcm``, ``coprime`` and
``divides``) instead of exponent tuples.  Its input generators enter as
primitive forms without being made monic.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rings import (
    ExponentOverflow,
    Polynomial,
    RingContext,
    RingError,
    _from_integers,
    _lowest,
    _over_lcm,
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
    refused).  ``max_pairs`` counts every pair the pair update
    considers, one for each element an entering element could pair
    with, whether a criterion drops the pair or it is formed; so three
    inputs with pairwise coprime leads need 3.  ``max_degree`` bounds
    the total degree of each new basis element.  The defaults are the
    one budget of every caller that names none: ``analyze``, the catalog
    table and ``check-inclusion``.
    """

    max_pairs: int = 20_000
    max_degree: int = 48

    def __post_init__(self) -> None:
        _require_count("max_pairs", self.max_pairs, 1)
        _require_count("max_degree", self.max_degree, 1)


def _require_budget(name: str, value) -> None:
    """Refuse ``value`` with ``ValueError`` unless it is a :class:`GroebnerBudget`."""
    if not isinstance(value, GroebnerBudget):
        raise ValueError(f"{name} must be a GroebnerBudget, not {value!r}")


class BudgetExceeded(RuntimeError):
    """The computation outgrew its budget; no partial answer is usable."""


def _divisor(p: Polynomial) -> tuple:
    """``(D, a, tail)`` for nonzero ``p``: ``D*p`` with leading integer
    ``a`` and packed tail terms, read off its stored form."""
    return p.denominator, p.packed[0][1], p.packed[1:]


def _reduce(
    ring: RingContext,
    scale: int,
    terms: list,
    leading: Sequence[int],
    forms: Sequence[tuple],
    steps: list[list] | None = None,
) -> tuple[int, list]:
    """Fully reduce ``h = terms / scale`` by divisors given as packed
    leading monomials and integer forms ``(D, a, tail)`` (``forms[i]``).

    ``terms`` are packed integer terms, leading first.  Returns ``(scale,
    remainder)``: the remainder as packed integer terms over the returned
    scale, leading first, no term divisible by a leading monomial.  When
    ``steps`` is given, ``steps[i]`` collects the cofactor terms of
    divisor ``i`` as ``(packed shift, Fraction)``.

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
    ``ExponentOverflow`` as it enters, as the product ``x^shift * d``
    would, even if a later step would cancel it.
    """
    packing = ring._packing
    guard, check_cap = packing.guard, packing.check_cap
    acc = dict(terms)
    # Ascending; a zero left in ``acc`` keeps its entry here until popped.
    order = [m for m, _ in reversed(terms)]
    rem_monos: list = []
    rem: list = []
    while order:
        m = order.pop()
        c = acc.pop(m)
        if not c:
            continue
        # ``_Packing.divides``, with ``m | guard`` taken once per term.
        probe = m | guard
        for i, lead in enumerate(leading):
            if (probe - lead) & guard == guard:
                break
        else:
            rem_monos.append(m)
            rem.append(c)
            continue
        denom, a, tail = forms[i]
        shift = m - lead
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
            mono = e + shift
            prev = acc.get(mono)
            if prev is None:
                check_cap(mono)
                acc[mono] = -c1 * g
                insort(order, mono)
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

    The division runs in ``_reduce`` on the stored forms of ``p`` and of
    every divisor; ``Fraction`` objects are made only for the cofactor
    terms returned, and the remainder is built from its integer terms.
    A monomial over the ring's exponent cap raises ``ExponentOverflow``;
    a dividend or divisor that is not a ``Polynomial`` raises
    ``RingError``.
    """
    if not isinstance(p, Polynomial):
        raise RingError(f"the dividend must be a Polynomial, not {p!r}")
    ring = p.ring
    for d in divisors:
        if not isinstance(d, Polynomial):
            raise RingError(f"every divisor must be a Polynomial, not {d!r}")
        if d.ring is not ring and d.ring != ring:
            raise RingError("divisors must share the dividend's ring")
        if d.is_zero:
            raise RingError("cannot divide by the zero polynomial")
    steps: list[list] = [[] for _ in divisors]
    scale, remainder = _reduce(
        ring,
        p.denominator,
        p.packed,
        [d.packed[0][0] for d in divisors],
        [_divisor(d) for d in divisors],
        steps,
    )
    cofactors = [Polynomial._raw(ring, *_over_lcm(terms)) for terms in steps]
    return cofactors, _from_integers(ring, scale, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> tuple[int, list]:
    """Syzygy combination ``x^u*f/lc(f) - x^v*g/lc(g)`` cancelling the two
    leading terms, ``x^u*lm(f) == x^v*lm(g)`` their lcm, as ``(scale,
    terms)``: the polynomial ``terms / scale`` in lowest integer terms,
    with packed monomials leading first, the input ``_reduce`` takes.
    The zero S-polynomial has no terms.

    It is built from the stored forms ``f == (a*x^lm(f) + F) / D_f``
    and ``g == (b*x^lm(g) + G) / D_g`` as ``(b'*x^u*F - a'*x^v*G) / (a*b')``,
    with ``t = gcd(a, b)``, ``a' = a/t`` and ``b' = b/t``: the lcm is the
    field-wise max of the packed leading monomials, then two packed
    shifts and one merge, with no ``Polynomial`` arithmetic and no
    ``Fraction``.  A shifted monomial over the ring's exponent cap raises
    ``ExponentOverflow``, as the product with ``x^u`` or ``x^v`` would.
    ``buchberger`` calls this for every pair it reduces.  An argument
    that is not a nonzero ``Polynomial`` raises ``RingError``.
    """
    for p in (f, g):
        if not isinstance(p, Polynomial):
            raise RingError(f"an S-polynomial needs two Polynomials, not {p!r}")
        if not p.packed:
            raise RingError("zero polynomial has no leading monomial")
    ring = f.ring
    if g.ring is not ring and g.ring != ring:
        raise RingError(f"mixed rings: {ring.variables} vs {g.ring.variables}")
    packing = ring._packing
    (lead_f, a), tail_f = f.packed[0], f.packed[1:]
    (lead_g, b), tail_g = g.packed[0], g.packed[1:]
    lcm = packing.keyed(packing.lcm(lead_f, lead_g))
    u, v = lcm - lead_f, lcm - lead_g
    t = math.gcd(a, b)
    mf, mg = b // t, -(a // t)
    acc = {e + u: mf * c for e, c in tail_f}
    for e, c in tail_g:
        e += v
        acc[e] = acc.get(e, 0) + mg * c
    # Every shifted monomial, also one that cancels, in the order f's
    # tail and then g's.
    for e in acc:
        packing.check_cap(e)
    merged = sorted(((e, c) for e, c in acc.items() if c), reverse=True)
    return _lowest(a * mf, merged)


def _autoreduce(
    ring: RingContext, leading: list[int], forms: list[tuple]
) -> list[Polynomial]:
    """The reduced monic basis from a Groebner basis given by packed
    leading monomials and the integer forms of their monic multiples,
    sorted ascending by leading monomial."""
    divides = ring._packing.divides
    ordered = sorted(range(len(leading)), key=leading.__getitem__)
    # Divisibility implies order, so one ascending pass finds the minimal set.
    minimal: list[int] = []
    for k in ordered:
        if not any(divides(leading[j], leading[k]) for j in minimal):
            minimal.append(k)
    reduced = []
    for k in minimal:
        others = [j for j in minimal if j != k]
        denom, a, tail = forms[k]
        _, rem = _reduce(
            ring,
            denom,
            [(leading[k], a), *tail],
            [leading[j] for j in others],
            [forms[j] for j in others],
        )
        # The lead is minimal, so it survives and stays the lead.
        reduced.append(_from_integers(ring, rem[0][1], rem))
    return reduced


def buchberger(
    generators: Iterable[Polynomial], budget: GroebnerBudget | None = None
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span.

    The result is canonical: monic, fully autoreduced, sorted ascending
    by leading monomial.  Raises :class:`BudgetExceeded` when the count
    of pairs considered or the degree of a new basis element passes the
    budget, or when an S-pair, its reduction or the autoreduction passes
    the ring's exponent cap.  ``budget`` is a :class:`GroebnerBudget`, or
    ``None`` for the default one; anything else is refused with
    ``ValueError``.

    The generators enter the basis one at a time, and so does each new
    element; each entry runs the Gebauer–Möller update on the pairs:

    * criterion B drops an old pair ``(i, j)`` when the new leading
      monomial divides its lcm and differs from it in both
      ``lcm(i, new)`` and ``lcm(j, new)``;
    * the new pairs, one for each element still paired with, are grouped
      by lcm: a group goes when one of its pairs has coprime leads or its
      lcm is a proper multiple of another group's, and otherwise the
      pair with the oldest element stands for it;
    * the elements whose leading monomial the new one divides are paired
      with no later element.

    Pairs are treated by the degree of their lcm, then by index.  A
    generator enters as the primitive integer form of its monic multiple,
    read off its stored form, and is not made monic itself: an S-pair is
    the same for any nonzero multiple of its elements.  The update reads
    only packed leading monomials: each lcm is the field-wise max of two
    of them, and a pair's degree is read off its lcm only when the pair
    is kept.  Every S-pair the update keeps is formed by
    :func:`s_polynomial` as packed integer terms and fully reduced by
    ``_reduce`` on the forms of all elements; a nonzero remainder becomes
    the new monic element, a ``Polynomial`` whose stored form is primitive.
    The autoreduction runs on the same forms.  A generator that is not a
    ``Polynomial`` is refused with ``RingError``.
    """
    if budget is None:
        budget = GroebnerBudget()
    _require_budget("budget", budget)
    generators = tuple(generators)
    for g in generators:
        if not isinstance(g, Polynomial):
            raise RingError(f"every generator must be a Polynomial, not {g!r}")
    inputs = [g for g in generators if not g.is_zero]
    if not inputs:
        return []
    ring = inputs[0].ring
    for g in inputs:
        if g.ring != ring:
            raise RingError("generators must share one ring")
    packing = ring._packing
    lcm_of, divides, coprime = packing.lcm, packing.divides, packing.coprime
    basis: list[Polynomial] = []
    leading: list[int] = []
    forms: list[tuple] = []
    # Pairs not yet treated, a heap of (degree of lcm, i, j, lcm fields),
    # and the elements new ones still pair with.
    pairs: list[tuple] = []
    active: list[int] = []
    considered = 0

    def enter(poly: Polynomial, lead: int, form: tuple) -> None:
        """Add ``poly`` to the basis and update the pairs (Gebauer–Möller)."""
        nonlocal pairs, active, considered
        considered += len(active)
        if considered > budget.max_pairs:
            raise BudgetExceeded(f"considered more than {budget.max_pairs} S-pairs")
        h = len(leading)
        # Criterion B: an old pair goes when lead divides its lcm strictly,
        # i.e. unless lead shares that lcm with one of the pair's leads.
        kept = [
            pair
            for pair in pairs
            if not divides(lead, pair[3])
            or lcm_of(leading[pair[1]], lead) == pair[3]
            or lcm_of(leading[pair[2]], lead) == pair[3]
        ]
        # New pairs, grouped by lcm: the first member of a class stands for
        # it; a class with a coprime member, or whose lcm is a proper multiple
        # of another class's, goes whole.
        classes: dict[int, tuple[int, bool]] = {}
        for i in active:
            lcm = lcm_of(leading[i], lead)
            first, has_coprime = classes.get(lcm, (i, False))
            classes[lcm] = (first, has_coprime or coprime(leading[i], lead))
        for lcm, (i, has_coprime) in classes.items():
            if has_coprime or any(
                other != lcm and divides(other, lcm) for other in classes
            ):
                continue
            kept.append((packing.degree(lcm), i, h, lcm))
        heapq.heapify(kept)
        pairs = kept
        active = [i for i in active if not divides(lead, leading[i])]
        active.append(h)
        basis.append(poly)
        leading.append(lead)
        forms.append(form)

    try:
        for g in inputs:
            # The form of the monic multiple: lowest terms over the lead.
            (lead, a), tail = g.packed[0], g.packed[1:]
            a, tail = _lowest(a, tail)
            enter(g, lead, (a, a, tail))
        while pairs:
            _, i, j, _ = heapq.heappop(pairs)
            scale, terms = s_polynomial(basis[i], basis[j])
            if not terms:
                continue
            _, rem = _reduce(ring, scale, terms, leading, forms)
            if not rem:
                continue
            # Grevlex is graded: the leading term has the largest degree.
            top = packing.degree(rem[0][0])
            if top > budget.max_degree:
                raise BudgetExceeded(
                    f"basis element of degree {top} exceeds "
                    f"cap {budget.max_degree}"
                )
            # Monic, so its stored form is primitive with a positive lead.
            poly = _from_integers(ring, rem[0][1], rem)
            enter(poly, rem[0][0], _divisor(poly))
        return _autoreduce(ring, leading, forms)
    except ExponentOverflow as exc:
        raise BudgetExceeded(str(exc)) from exc


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
    and addition to check them.  As in :func:`buchberger`, a division
    that passes the ring's exponent cap raises :class:`BudgetExceeded`.
    A ``p`` that is not a ``Polynomial``, or an ``ideal`` that is not an
    :class:`Ideal`, raises ``RingError``.
    """
    if not isinstance(p, Polynomial):
        raise RingError(f"membership needs a Polynomial, not {p!r}")
    if not isinstance(ideal, Ideal):
        raise RingError(f"membership needs an Ideal, not {ideal!r}")
    if p.ring != ideal.ring:
        raise RingError("membership test across different rings")
    basis = ideal.groebner_basis(budget)
    try:
        cofactors, remainder = divide(p, basis)
    except ExponentOverflow as exc:
        raise BudgetExceeded(str(exc)) from exc
    if not remainder.is_zero:
        return None
    return [(c, b) for c, b in zip(cofactors, basis) if not c.is_zero]
