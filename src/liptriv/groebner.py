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
vectors", CASC 2007).  Inside the kernel a monomial is one ``int``
(``rings._Packing``, one per ring): the grevlex key in the high bits
and guarded exponent fields in the low bits, so a product is ``+``, the
order is ``<``, and divisibility and the exponent cap are mask tests.
:meth:`RingContext.sort_key` stays the one definition of the order; the
packed key is an additive encoding of it, kept next to it in ``rings``
with the cap rule.  The polynomial under reduction is a mutable dict of
integer coefficients over one running denominator, its monomials are
kept in an ascending list, and each divisor is an integer form
``(D, a, tail)``, the divisor times ``D`` with leading integer ``a``
and packed tail terms.

Each polynomial's integer form is made once and kept on the
``Polynomial`` itself (its ``_form`` slot, which only this module
writes): the first reduction that needs it packs it, and every element
this module builds (S-polynomials, new and reduced basis elements,
remainders) carries its form from birth.  :func:`divide` makes
``Fraction`` objects only for the cofactor and remainder terms it
returns; :func:`buchberger` reduces every S-pair on the held forms, and
its input generators enter as primitive forms without being made monic.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from operator import le
from typing import Iterable, Sequence

from .rings import (
    ExponentOverflow,
    Monomial,
    Polynomial,
    RingContext,
    RingError,
    _packing,
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


def _form_of(p: Polynomial) -> tuple[int, tuple]:
    """``(lead, (D, a, tail))`` for nonzero ``p``: its packed leading
    monomial and its integer form, ``D*p`` in lowest integer terms with
    leading integer ``a`` and packed ``tail``.  Made at the first call and
    kept on ``p``."""
    form = getattr(p, "_form", None)
    if form is None:
        pack = _packing(p.ring).pack
        denom, terms = _integer_terms(p.terms)
        tail = [(pack(e), c) for e, c in terms[1:]]
        form = p._form = (pack(terms[0][0]), (denom, terms[0][1], tail))
    return form


def _lowest(scale: int, terms: list) -> tuple[int, list]:
    """``terms / scale`` in lowest terms: ``scale`` and the coefficients
    divided by their gcd, ``scale`` positive."""
    content = math.gcd(scale, *(c for _, c in terms))
    if scale < 0:
        content = -content
    if content == 1:
        return scale, terms
    return scale // content, [(m, c // content) for m, c in terms]


def _from_integers(ring: RingContext, scale: int, terms: list) -> Polynomial:
    """The polynomial ``terms / scale``, from packed integer terms leading
    first, one ``Fraction`` per term, with its integer form kept on it."""
    if not terms:
        return ring.zero()
    scale, terms = _lowest(scale, terms)
    unpack = _packing(ring).unpack
    p = Polynomial._raw(ring, tuple((unpack(m), Fraction(c, scale)) for m, c in terms))
    p._form = (terms[0][0], (scale, terms[0][1], terms[1:]))
    return p


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
    packing = _packing(ring)
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

    The division runs in ``_reduce`` on the integer forms of ``p`` and
    of every divisor, each made once per polynomial (a basis element
    carries its form from :func:`buchberger`); ``Fraction`` objects are
    made only for the cofactor and remainder terms returned.  A monomial
    over the ring's exponent cap raises ``ExponentOverflow``.
    """
    ring = p.ring
    for d in divisors:
        if d.ring is not ring and d.ring != ring:
            raise RingError("divisors must share the dividend's ring")
        if d.is_zero:
            raise RingError("cannot divide by the zero polynomial")
    held = [_form_of(d) for d in divisors]
    scale, terms = 1, []
    if p.terms:
        lead, (scale, a, tail) = _form_of(p)
        terms = [(lead, a), *tail]
    steps: list[list] = [[] for _ in divisors]
    scale, remainder = _reduce(
        ring,
        scale,
        terms,
        [lead for lead, _ in held],
        [form for _, form in held],
        steps,
    )
    unpack = _packing(ring).unpack
    cofactors = [
        Polynomial._raw(ring, tuple((unpack(s), c) for s, c in terms))
        for terms in steps
    ]
    return cofactors, _from_integers(ring, scale, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Syzygy combination ``x^u*f/lc(f) - x^v*g/lc(g)`` cancelling the two
    leading terms, ``x^u*lm(f) == x^v*lm(g)`` their lcm.

    It is built from the held integer forms ``f == (a*x^lm(f) + F) / D_f``
    and ``g == (b*x^lm(g) + G) / D_g`` as ``(b'*x^u*F - a'*x^v*G) / (a*b')``,
    with ``t = gcd(a, b)``, ``a' = a/t`` and ``b' = b/t``: two packed
    shifts, one merge, no ``Polynomial`` arithmetic, and one ``Fraction``
    per term of the result, which carries its own integer form.  A
    shifted monomial over the ring's exponent cap raises
    ``ExponentOverflow``, as the product with ``x^u`` or ``x^v`` would.
    ``buchberger`` calls this for every pair it reduces.
    """
    ring = f.ring
    if g.ring is not ring and g.ring != ring:
        raise RingError(f"mixed rings: {ring.variables} vs {g.ring.variables}")
    packing = _packing(ring)
    lcm = packing.pack(_mono_lcm(f.leading_monomial(), g.leading_monomial()))
    lead_f, (_, a, tail_f) = _form_of(f)
    lead_g, (_, b, tail_g) = _form_of(g)
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
    return _from_integers(ring, a * mf, merged)


def _autoreduce(
    ring: RingContext, leading: list[int], forms: list[tuple]
) -> list[Polynomial]:
    """The reduced monic basis from a Groebner basis given by packed
    leading monomials and the integer forms of their monic multiples,
    sorted ascending by leading monomial."""
    divides = _packing(ring).divides
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
            [(leading[k], a)] + tail,
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
    read off its held form, and is not made monic itself: an S-pair is
    the same for any nonzero multiple of its elements.  Every S-pair the
    update keeps is formed by :func:`s_polynomial` and fully reduced by
    ``_reduce`` on the forms of all elements; a nonzero remainder becomes
    the new monic element, whose held form is primitive.  The
    autoreduction runs on the same forms.
    """
    if budget is None:
        budget = GroebnerBudget()
    _require_budget("budget", budget)
    inputs = [g for g in generators if not g.is_zero]
    if not inputs:
        return []
    ring = inputs[0].ring
    for g in inputs:
        if g.ring != ring:
            raise RingError("generators must share one ring")
    basis: list[Polynomial] = []
    leading: list[Monomial] = []
    packed: list[int] = []
    forms: list[tuple] = []
    # Pairs not yet treated, a heap of (degree of lcm, i, j, lcm), and the
    # elements new ones still pair with.
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
        lm_h = poly.terms[0][0]
        # Criterion B: an old pair goes when lm_h divides its lcm strictly,
        # i.e. unless lm_h shares that lcm with one of the pair's leads.
        kept = [
            pair
            for pair in pairs
            if not _mono_divides(lm_h, pair[3])
            or _mono_lcm(leading[pair[1]], lm_h) == pair[3]
            or _mono_lcm(leading[pair[2]], lm_h) == pair[3]
        ]
        # New pairs, grouped by lcm: the first member of a class stands for
        # it; a class with a coprime member, or whose lcm is a proper multiple
        # of another class's, goes whole.
        classes: dict[Monomial, tuple[int, bool]] = {}
        for i in active:
            lcm = _mono_lcm(leading[i], lm_h)
            first, coprime = classes.get(lcm, (i, False))
            classes[lcm] = (first, coprime or _mono_coprime(leading[i], lm_h))
        for lcm, (i, coprime) in classes.items():
            if coprime or any(
                other != lcm and _mono_divides(other, lcm) for other in classes
            ):
                continue
            kept.append((sum(lcm), i, h, lcm))
        heapq.heapify(kept)
        pairs = kept
        active = [i for i in active if not _mono_divides(lm_h, leading[i])]
        active.append(h)
        basis.append(poly)
        leading.append(lm_h)
        packed.append(lead)
        forms.append(form)

    unpack = _packing(ring).unpack
    try:
        for g in inputs:
            # The form of the monic multiple: lowest terms over the lead.
            lead, (_, a, tail) = _form_of(g)
            a, tail = _lowest(a, tail)
            enter(g, lead, (a, a, tail))
        while pairs:
            _, i, j, _ = heapq.heappop(pairs)
            s = s_polynomial(basis[i], basis[j])
            if s.is_zero:
                continue
            lead, (denom, a, tail) = _form_of(s)
            _, rem = _reduce(ring, denom, [(lead, a), *tail], packed, forms)
            if not rem:
                continue
            # Grevlex is graded: the leading term has the largest degree.
            top = sum(unpack(rem[0][0]))
            if top > budget.max_degree:
                raise BudgetExceeded(
                    f"basis element of degree {top} exceeds "
                    f"cap {budget.max_degree}"
                )
            # Monic, so its held form is primitive with a positive lead.
            poly = _from_integers(ring, rem[0][1], rem)
            enter(poly, *poly._form)
        return _autoreduce(ring, packed, forms)
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
    """
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
