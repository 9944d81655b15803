"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream (Groebner bases, ideal doubling, arc pullbacks,
jet-space linear algebra) rests on the two classes here:

* :class:`RingContext` fixes an ordered tuple of variable names.  Every
  ring orders its monomials by grevlex, the graded reverse
  lexicographic order (Cox–Little–O'Shea, *Ideals, Varieties, and
  Algorithms*, §2.2).  A ring is the unit of compatibility: polynomials
  interact only when they carry equal contexts.
* :class:`Polynomial` is an immutable sparse polynomial with
  :class:`fractions.Fraction` coefficients.  Terms are kept sorted with
  the leading term first, so leading-term queries are O(1) and equal
  polynomials have equal term tuples.

The :class:`Polynomial` constructor is for outside input: it validates,
merges and sorts whatever term stream it is given.  Arithmetic never
goes back through it.  Its operands are already canonical, so a sum or
difference is a linear merge of two sorted term tuples, a product with
a single term is an exponent shift that keeps the order (grevlex is a
monomial order), and only a general product sorts, once.  The one check
left on these paths is the ring's exponent cap.

Coefficients are exact by construction; float inputs are rejected rather
than coerced.  A small univariate companion type (:class:`UnivariatePoly`)
backs arc pullbacks, where only orders of vanishing matter.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, lshift, neg
from typing import Iterable, Union

__all__ = [
    "DEFAULT_EXPONENT_CAP",
    "ExponentOverflow",
    "Monomial",
    "PARAMETER",
    "ParseError",
    "Polynomial",
    "RingContext",
    "RingError",
    "UnivariatePoly",
    "format_polynomial",
    "format_univariate",
    "parse_polynomial",
    "parse_univariate",
    "partial_derivative",
    "primed",
]

#: Exponent vector, one entry per ring variable.
Monomial = tuple

Scalar = Union[int, Fraction]

DEFAULT_EXPONENT_CAP = 64

PRIME_SUFFIX = "'"

#: Name of the deformation parameter.  Doubling gives it no mirror: the
#: two points of a pair share it (see :func:`_has_mirror`).
PARAMETER = "t"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")


class RingError(ValueError):
    """Incompatible rings, bad exponents, or malformed construction data."""


class ParseError(RingError):
    """Text that does not conform to the polynomial grammar."""


class ExponentOverflow(RingError):
    """An exponent grew past the ring's cap.

    Distinguished from plain :class:`RingError` so budgeted callers can
    treat it as a resource limit rather than a programming error.
    """


def primed(name: str) -> str:
    """Name of the mirrored copy of a variable in a doubled ring."""
    return name + PRIME_SUFFIX


def _has_mirror(name: str) -> bool:
    """The doubling rule: every variable gets a primed mirror except
    :data:`PARAMETER`, which both points of a pair share."""
    return name != PARAMETER


def _as_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise RingError("float coefficients are not allowed; use Fraction")
    raise RingError(f"cannot use {value!r} as a coefficient")


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring over the rationals, ordered by grevlex.

    ``variables`` is a sequence of distinct names (not one string);
    the first variable is the largest.  ``doubled`` marks rings produced
    by :meth:`doubled_extension`, which appends a primed mirror of every
    variable but :data:`PARAMETER`; doubling twice is an error.
    ``exponent_cap``, a positive ``int``, bounds every exponent that can
    appear in the ring, so runaway computations fail loudly instead of
    silently growing.
    """

    variables: tuple[str, ...]
    doubled: bool = False
    exponent_cap: int = DEFAULT_EXPONENT_CAP

    def __post_init__(self) -> None:
        if isinstance(self.variables, str):
            raise RingError(f"variables must be a sequence of names, not {self.variables!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise RingError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise RingError(f"duplicate variable names in {self.variables}")
        for name in self.variables:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise RingError(f"bad variable name {name!r}")
        cap = self.exponent_cap
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise RingError(f"exponent cap must be a positive int, not {cap!r}")

    def __eq__(self, other):
        # Shared rings meet themselves far more often than an equal copy,
        # so identity is tried before the fields.  The dataclass still
        # derives ``__hash__`` from the same three fields.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.variables == other.variables
            and self.doubled == other.doubled
            and self.exponent_cap == other.exponent_cap
        )

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise RingError(f"{name!r} is not a variable of {self.variables}") from None

    @staticmethod
    def sort_key(exps: Monomial):
        """Key that sorts monomials ascending in grevlex: by total degree,
        and within one degree the monomial with the smaller exponent in
        the last variable where two differ is the larger.  This is the
        one definition of the order; :class:`_Packing` encodes it
        additively for the Groebner kernel."""
        return (sum(exps), tuple(map(neg, exps[::-1])))

    @functools.cache
    def doubled_extension(self) -> "RingContext":
        """The ring with a primed mirror appended for every variable but
        :data:`PARAMETER`, which both points of a pair share.

        Equal rings share one doubled extension, so the ring checks
        downstream meet identical objects.
        """
        if self.doubled:
            raise RingError("ring is already doubled")
        mirrored = tuple(filter(_has_mirror, self.variables))
        for v in mirrored:
            if primed(v) in self.variables:
                raise RingError(f"cannot double: the mirror {primed(v)!r} of {v!r} is already a variable")
        mirror = tuple(map(primed, mirrored))
        return RingContext(self.variables + mirror, True, self.exponent_cap)

    @functools.cache
    def half(self) -> "RingContext":
        """The original ring a doubled ring was built from; equal doubled
        rings share one."""
        n = len(self.mirror_indices())
        return RingContext(self.variables[:n], False, self.exponent_cap)

    @functools.cache
    def mirror_indices(self) -> tuple[int, ...]:
        """On a doubled ring, the index of the mirror of each variable of
        :meth:`half`, in order; :data:`PARAMETER` is its own mirror."""
        if not self.doubled:
            raise RingError("ring is not doubled")
        # A half of n variables, s of them shared, doubles to n + (n - s)
        # names of which 2 * (n - s) have mirrors: n = arity - that count / 2.
        names = self.variables
        n = len(names) - sum(map(_has_mirror, names)) // 2
        mirrors = iter(range(n, len(names)))
        return tuple(next(mirrors) if _has_mirror(v) else i for i, v in enumerate(names[:n]))

    # -- convenience constructors ------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, [((0,) * self.arity, value)])

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.arity
        exps[self.index(name)] = 1
        return Polynomial._raw(self, ((tuple(exps), Fraction(1)),))

    def monomial(self, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(self, [(tuple(exps), coeff)])


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`RingContext`.

    ``terms`` is a tuple of ``(exponents, coefficient)`` pairs sorted so
    the leading term (largest in the ring's monomial order) comes first.
    The constructor is the entry point for outside input (the parser
    among it): it merges duplicate monomials, drops zero coefficients,
    validates every exponent vector against the ring and sorts.
    Results computed from canonical polynomials are built canonical
    directly through ``_raw`` and checked only against the exponent cap
    where an exponent can grow:

    * arithmetic: a merge for ``+``/``-``, an exponent shift for a
      product with one term, one sort for a general product;
    * :meth:`RingContext.variable` and :func:`partial_derivative`,
      which keep the order as they are;
    * ``doubling.double_of``, one sort, and ``doubling._lift``, which
      prepends the parameter at exponent 0 and keeps the order as it is.

    Two slots hold what is derived from a polynomial once, on first use,
    and are otherwise left unset, so ``_raw`` pays nothing for them:
    ``_text`` the output of :func:`format_polynomial`, and ``_form`` the
    integer form with packed monomials that ``groebner`` reduces with
    (only ``groebner`` writes it).  Both are read with a default.
    """

    __slots__ = ("ring", "terms", "_form", "_text")

    def __init__(self, ring: RingContext, terms: Iterable[tuple[Monomial, Scalar]]):
        arity = ring.arity
        cap = ring.exponent_cap
        acc: dict[Monomial, Fraction] = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != arity:
                raise RingError(
                    f"exponent vector {exps} does not match arity {arity}"
                )
            if exps and min(exps) < 0:
                raise RingError(f"negative exponents in {exps}")
            if exps and max(exps) > cap:
                raise ExponentOverflow(
                    f"exponents {exps} exceed cap {cap} in ring {ring.variables}"
                )
            c = _as_scalar(coeff)
            if c:
                prev = acc.get(exps)
                total = c if prev is None else prev + c
                if total:
                    acc[exps] = total
                elif prev is not None:
                    del acc[exps]
        self.ring = ring
        self.terms = _sorted_terms(ring, acc.items())

    @classmethod
    def _raw(cls, ring: RingContext, terms: tuple) -> "Polynomial":
        # Trusted path: terms must already be canonical.
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(exps) for exps, _ in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps, _ in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise RingError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise RingError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.ring.arity)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingError(
                    f"mixed rings: {self.ring.variables} vs {other.ring.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(self.ring, _merge(self.ring, self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._raw(
            self.ring, tuple((e, -c) for e, c in self.terms)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            if not c:
                return self.ring.zero()
            return Polynomial._raw(
                self.ring, tuple((e, k * c) for e, k in self.terms)
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        a, b = self.terms, other.terms
        if len(b) == 1:
            return Polynomial._raw(ring, _shift(ring, a, *b[0]))
        if len(a) == 1:
            return Polynomial._raw(ring, _shift(ring, b, *a[0]))
        acc: dict[Monomial, Fraction] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                exps = tuple(map(add, e1, e2))
                prev = acc.get(exps)
                total = c1 * c2 if prev is None else prev + c1 * c2
                if total:
                    acc[exps] = total
                elif prev is not None:
                    del acc[exps]
        _check_cap(ring, acc)
        return Polynomial._raw(ring, _sorted_terms(ring, acc.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise RingError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def monic(self) -> "Polynomial":
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        inv = 1 / lc
        return Polynomial._raw(
            self.ring, tuple((e, c * inv) for e, c in self.terms)
        )

    # -- protocol -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def _merge(ring: RingContext, a: tuple, b: tuple) -> tuple:
    """Canonical terms of the sum of two canonical term tuples.

    One linear pass in the ring's order, each term's key computed once;
    coefficients that cancel are dropped.
    """
    if not a or not b:
        return a or b
    key = ring.sort_key
    out = []
    i = j = 0
    ka, kb = key(a[0][0]), key(b[0][0])
    while True:
        if ka > kb:
            out.append(a[i])
            i += 1
            if i == len(a):
                break
            ka = key(a[i][0])
        elif ka < kb:
            out.append(b[j])
            j += 1
            if j == len(b):
                break
            kb = key(b[j][0])
        else:
            c = a[i][1] + b[j][1]
            if c:
                out.append((a[i][0], c))
            i += 1
            j += 1
            if i == len(a) or j == len(b):
                break
            ka, kb = key(a[i][0]), key(b[j][0])
    return tuple(out) + a[i:] + b[j:]


def _sorted_terms(ring: RingContext, items: Iterable) -> tuple:
    """Distinct-monomial terms sorted leading first."""
    key = ring.sort_key
    return tuple(sorted(items, key=lambda item: key(item[0]), reverse=True))


def _shift(ring: RingContext, terms: tuple, exps: Monomial, coeff: Fraction) -> tuple:
    """Canonical terms of ``terms`` times the single term ``coeff * exps``.

    Multiplying by a monomial keeps a monomial order, so the terms stay
    sorted; nonzero coefficients stay nonzero.
    """
    shifted = tuple((tuple(map(add, e, exps)), c * coeff) for e, c in terms)
    _check_cap(ring, (e for e, _ in shifted))
    return shifted


def _require_count(name: str, value, minimum: int) -> None:
    """Refuse ``value`` with ``ValueError`` unless it is a non-``bool``
    ``int`` of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int of at least {minimum}, not {value!r}")


def _check_cap(ring: RingContext, monomials: Iterable[Monomial]) -> None:
    cap = ring.exponent_cap
    for exps in monomials:
        if max(exps) > cap:
            raise ExponentOverflow(
                f"exponents {exps} exceed cap {cap} in ring {ring.variables}"
            )


class _Packing:
    """The monomials of ``ring`` packed into single non-negative ``int``
    values, on which ``groebner`` reduces.

    Each exponent gets a field of ``w = cap.bit_length() + 1`` bits, so
    the top (guard) bit of a field lies above the cap; exponent ``i``
    sits at bit ``i*w`` of ``F = sum(e[i] << i*w)``, which has
    ``L = arity*w`` bits.  With ``B = 2**w`` and ``n = arity``, the
    grevlex key is ``K = sum(e[i] * (B**n - B**i)) == (deg << L) - F``,
    and the packed monomial is ``K << L | F``.  Both parts are linear in
    the exponents, so the product of two monomials is the sum of their
    packings, and the quotient ``m / d`` of a divisible pair is ``m - d``.

    For exponents up to ``2*cap`` (a product of two monomials within the
    cap) no field carries into the next, and ``<`` on packings is
    :meth:`RingContext.sort_key`'s order: ``K`` compares total degrees
    first and then the exponents from the last variable down, smaller
    exponent larger, because every exponent difference is below ``B``.
    For exponents within the cap, ``d`` divides ``m`` when no field of
    ``(m | guard) - d`` borrows from its guard bit; a monomial passes the
    cap when adding ``over`` (``2**(w-1) - 1 - cap`` in every field)
    sets a guard bit.
    """

    __slots__ = ("ring", "low", "shifts", "field", "guard", "over")

    def __init__(self, ring: RingContext):
        cap = ring.exponent_cap
        width = cap.bit_length() + 1
        self.ring = ring
        self.low = ring.arity * width
        self.shifts = tuple(range(0, self.low, width))
        self.field = (1 << width) - 1
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.over = sum(((1 << (width - 1)) - 1 - cap) << s for s in self.shifts)

    def pack(self, exps: Monomial) -> int:
        fields = sum(map(lshift, exps, self.shifts))
        return (((sum(exps) << self.low) - fields) << self.low) | fields

    def unpack(self, packed: int) -> Monomial:
        """The exponents of a packed monomial, or of a packed quotient."""
        field = self.field
        return tuple([(packed >> s) & field for s in self.shifts])

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def check_cap(self, packed: int) -> None:
        """Raise what :func:`_check_cap` raises for the unpacked monomial
        when ``packed`` passes the cap."""
        if (packed + self.over) & self.guard:
            _check_cap(self.ring, (self.unpack(packed),))


@functools.cache
def _packing(ring: RingContext) -> _Packing:
    return _Packing(ring)


# -- formatting -------------------------------------------------------


def _format_magnitude(ring: RingContext, exps: Monomial, coeff: Scalar) -> str:
    """``|coeff|`` times the monomial, read off the coefficient's integers."""
    numerator, denominator = abs(coeff.numerator), coeff.denominator
    mag = str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    if not any(exps):
        return mag
    parts = [] if mag == "1" else [mag]
    for name, e in zip(ring.variables, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Render with the leading term first, e.g. ``y^3 - 3/2*x*y^2``.

    Polynomials are immutable, so the text is made once per object and
    kept in its ``_text`` slot.
    """
    text = getattr(p, "_text", None)
    if text is None:
        text = p._text = _format_terms(p)
    return text


def _format_terms(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(p.terms):
        body = _format_magnitude(p.ring, exps, coeff)
        if i == 0:
            pieces.append(f"-{body}" if coeff.numerator < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff.numerator < 0 else f" + {body}")
    return "".join(pieces)


# -- parsing ----------------------------------------------------------

#: One factor of a term: a rational number, or a variable name with an
#: optional integer power.  Each pattern skips the whitespace before it.
_FACTOR_RE = re.compile(
    rf"\s*(?:(\d+)(?:/(\d+))?|({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?)"
)
_SIGN_RE = re.compile(r"\s*([-+])")
_STAR_RE = re.compile(r"\s*\*")

#: How many ``(text, ring)`` parses :func:`parse_polynomial` keeps.
_PARSE_MEMO_SIZE = 4096


def _digits(text: str) -> int:
    """The ``int`` a digit run spells; past Python's limit on the digits
    it converts, a :class:`ParseError` instead of its ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number of {len(text)} digits is too long") from None


def parse_polynomial(text: str, ring: RingContext) -> Polynomial:
    """Parse ``text`` into a polynomial of ``ring``.

    A polynomial is an optional sign and then terms joined by exactly
    one ``+`` or ``-``.  A term is one or more factors, written next to
    each other (``2x``, ``x y``) or joined by ``*``.  A factor is a
    coefficient (``3``, ``3/2``) or a variable of the ring with an
    optional power of digits (``y^3``); the coefficients of a term
    multiply.  Whitespace may stand between any two of these.

    Text that is not a ``str``, or breaks this grammar, raises
    :class:`ParseError`: unknown variable names, a zero denominator,
    decimals and signed or fractional powers among it, and so does a
    digit run longer than Python converts to an ``int``.  An exponent
    past the ring's cap raises :class:`ExponentOverflow`.

    Polynomials are immutable, so the ``_PARSE_MEMO_SIZE`` most
    recently used parses are kept by ``(text, ring)`` for the whole
    process, and a repeated text is not parsed again.  Text that raises
    is not kept, so it raises on every call.
    """
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a str, not {type(text).__name__}")
    return _parse(text, ring)


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse(text: str, ring: RingContext) -> Polynomial:
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty polynomial text")
    variables = ring.variables
    terms: list[tuple[Monomial, Fraction]] = []
    sign = _SIGN_RE.match(text)
    negative = sign is not None and sign[1] == "-"
    pos = sign.end() if sign else 0
    coeff, exps = Fraction(1), [0] * ring.arity
    while True:
        factor = _FACTOR_RE.match(text, pos)
        if factor is None:
            raise ParseError(f"expected a factor at position {pos}")
        number, denominator, name, power = factor.groups()
        if name is not None:
            if name not in variables:
                raise ParseError(f"unknown variable {name!r}; ring has {variables}")
            exps[variables.index(name)] += 1 if power is None else _digits(power)
        elif denominator is None:
            coeff *= _digits(number)
        elif _digits(denominator):
            coeff *= Fraction(_digits(number), _digits(denominator))
        else:
            raise ParseError(f"zero denominator in {factor[0].strip()!r}")
        # After a factor comes the end, ``*`` and a factor, a sign and a
        # new term, or a juxtaposed factor.
        pos = factor.end()
        if pos == end:
            terms.append((tuple(exps), -coeff if negative else coeff))
            return Polynomial(ring, terms)
        star = _STAR_RE.match(text, pos)
        if star is not None:
            pos = star.end()
            continue
        sign = _SIGN_RE.match(text, pos)
        if sign is not None:
            terms.append((tuple(exps), -coeff if negative else coeff))
            negative = sign[1] == "-"
            pos = sign.end()
            coeff, exps = Fraction(1), [0] * ring.arity


# -- structural operations --------------------------------------------


def partial_derivative(p: Polynomial, name: str) -> Polynomial:
    """Formal partial derivative with respect to the named variable.

    Built canonical directly: lowering one exponent of every surviving
    term keeps a monomial order and keeps the monomials distinct, and
    ``coeff * e`` is nonzero over the rationals.
    """
    idx = p.ring.index(name)
    terms = []
    for exps, coeff in p.terms:
        e = exps[idx]
        if e:
            lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            terms.append((lowered, coeff * e))
    return Polynomial._raw(p.ring, tuple(terms))


# -- univariate arcs ---------------------------------------------------

_ARC_PARAMETER = "s"  # the arc variable in every parsed and printed curve

#: The one-variable ring every arc is parsed and printed in.
_ARC_RING = RingContext((_ARC_PARAMETER,))


class UnivariatePoly:
    """Dense univariate polynomial used for arc pullbacks.

    ``coeffs[i]`` is the coefficient of degree ``i``; trailing zeros are
    trimmed, so the zero polynomial has an empty tuple.

    The constructor is for outside input: it validates every
    coefficient as a ``Fraction`` and trims.  A product of two
    polynomials is built through ``_raw`` instead: it accumulates from
    the plain integer ``0`` in whatever exact type its operands carry,
    and its lead is the product of two nonzero leads, so there is
    nothing to trim or check.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "UnivariatePoly":
        # Trusted path: exact coefficients, last one nonzero.
        u = object.__new__(cls)
        u.coeffs = coeffs
        return u

    @classmethod
    def zero(cls) -> "UnivariatePoly":
        return cls(())

    @classmethod
    def constant(cls, value: Scalar) -> "UnivariatePoly":
        return cls((value,))

    @classmethod
    def monomial(cls, coeff: Scalar, degree: int) -> "UnivariatePoly":
        if degree < 0:
            raise RingError("degree must be non-negative")
        return cls((0,) * degree + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def order_of_vanishing(self):
        """Degree of the lowest nonzero term; ``math.inf`` for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return math.inf

    def __add__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return UnivariatePoly(merged)

    def __mul__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UnivariatePoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, i):
                if b:
                    out[j] += a * b
        return UnivariatePoly._raw(tuple(out))

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return format_univariate(self)

    def __repr__(self):
        return f"UnivariatePoly({format_univariate(self)!r})"


def parse_univariate(text: str) -> UnivariatePoly:
    """Parse an arc in the variable ``s``, e.g. ``2*s^2 + s``."""
    p = parse_polynomial(text, _ARC_RING)
    coeffs = [0] * (p.degree() + 1)
    for (i,), c in p.terms:
        coeffs[i] = c
    return UnivariatePoly(coeffs)


def format_univariate(u: UnivariatePoly) -> str:
    # Highest degree first is the arc ring's term order; the exponent
    # cap only bounds parsing, so a longer arc still prints.
    terms = tuple(((i,), c) for i, c in reversed(tuple(enumerate(u.coeffs))) if c)
    return format_polynomial(Polynomial._raw(_ARC_RING, terms))

