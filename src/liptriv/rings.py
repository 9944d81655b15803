"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream (Groebner bases, ideal doubling, arc pullbacks,
jet-space linear algebra) rests on the two classes here:

* :class:`RingContext` fixes an ordered tuple of variable names.  Every
  ring orders its monomials by grevlex, the graded reverse
  lexicographic order (Cox–Little–O'Shea, *Ideals, Varieties, and
  Algorithms*, §2.2).  A ring is the unit of compatibility: polynomials
  interact only when they carry equal contexts.
* :class:`Polynomial` is an immutable sparse polynomial with rational
  coefficients, stored as one integer form: ``packed`` integer terms
  over a positive ``denominator``, in lowest terms, leading term first.
  Each monomial is packed into one ``int`` (:class:`_Packing`, one per
  ring, after Monagan and Pearce, "Polynomial division using dynamic
  arrays, heaps, and packed exponent vectors", CASC 2007), so a product
  of monomials is ``+``, the order is ``<``, and divisibility and the
  exponent cap are mask tests.  Equal polynomials have equal forms.

The :class:`Polynomial` constructor is for outside input: it validates,
merges, packs and sorts whatever term stream it is given.  Arithmetic
never goes back through it: a sum is one pass over both forms, a
product with a single term shifts packed monomials, which keeps the
order (grevlex is a monomial order), and only a general product sorts,
once.  The one check left on these paths is the ring's exponent cap.

Coefficients are exact by construction; float inputs are rejected rather
than coerced.  A small univariate companion type (:class:`UnivariatePoly`)
backs arc pullbacks, where only orders of vanishing matter.
"""

from __future__ import annotations

import functools
import math
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lshift, neg
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
#: two points of a pair share it (see :meth:`RingContext.doubled_extension`).
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
    the first variable is the largest.  ``exponent_cap``, a positive
    ``int`` below ``2**63`` (the widest packed field holds 64 bits),
    bounds every exponent that can appear in the ring, so runaway
    computations fail loudly instead of silently growing.

    ``mirrors`` is set by :meth:`doubled_extension` alone and is empty on
    every other ring: on a doubled ring, the index of the mirror of each
    variable of the ring it was doubled from, in order, with
    :data:`PARAMETER` its own mirror.
    """

    variables: tuple[str, ...]
    exponent_cap: int = DEFAULT_EXPONENT_CAP
    mirrors: tuple[int, ...] = field(default=(), init=False)

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
        if isinstance(cap, bool) or not isinstance(cap, int) or not 0 < cap < 1 << 63:
            raise RingError(f"exponent cap must be a positive int below 2**63, not {cap!r}")

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
            and self.mirrors == other.mirrors
            and self.exponent_cap == other.exponent_cap
        )

    @property
    def doubled(self) -> bool:
        """Whether the ring came from :meth:`doubled_extension`."""
        return bool(self.mirrors)

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
        additively for every stored :class:`Polynomial`."""
        return (sum(exps), tuple(map(neg, exps[::-1])))

    @functools.cached_property
    def _packing(self) -> "_Packing":
        """The packing of this ring's monomials, made once per ring."""
        return _Packing(self)

    @functools.cached_property
    def _monomial_texts(self) -> dict[int, str]:
        """The text of every packed monomial :func:`format_polynomial`
        has printed on this ring, made once per monomial."""
        return {}

    @functools.cache
    def doubled_extension(self) -> "RingContext":
        """The ring with a primed mirror appended for every variable but
        :data:`PARAMETER`, which both points of a pair share; the map is
        recorded in ``mirrors`` as each name is appended.  Doubling twice
        is an error.

        Equal rings share one doubled extension, so the ring checks
        downstream meet identical objects.
        """
        if self.doubled:
            raise RingError("ring is already doubled")
        names = list(self.variables)
        mirrors = []
        for i, v in enumerate(self.variables):
            if v == PARAMETER:
                mirrors.append(i)
                continue
            if primed(v) in self.variables:
                raise RingError(f"cannot double: the mirror {primed(v)!r} of {v!r} is already a variable")
            mirrors.append(len(names))
            names.append(primed(v))
        ring = RingContext(tuple(names), self.exponent_cap)
        object.__setattr__(ring, "mirrors", tuple(mirrors))
        return ring

    # -- convenience constructors ------------------------------------

    @functools.cached_property
    def _zero(self) -> "Polynomial":
        """The ring's one zero polynomial, made once per ring."""
        return Polynomial._raw(self, 1, ())

    def zero(self) -> "Polynomial":
        return self._zero

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, [((0,) * self.arity, value)])

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.arity
        exps[self.index(name)] = 1
        return Polynomial._raw(self, 1, ((self._packing.pack(exps), 1),))

    def monomial(self, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(self, [(tuple(exps), coeff)])


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`RingContext`.

    Its one stored form is ``packed / denominator``: ``packed`` holds
    ``(packed monomial, int)`` pairs, the leading term (largest in the
    ring's monomial order) first, and ``denominator`` is a positive
    ``int`` sharing no factor with all of them.  The constructor is the
    entry point for outside input (the parser among it): it merges
    duplicate monomials, drops zero coefficients, validates every
    exponent vector against the ring, packs and sorts.  Results computed
    from canonical polynomials are built directly through ``_raw`` or
    :func:`_from_integers` (arithmetic, :meth:`RingContext.variable`,
    :func:`partial_derivative`, the doubles of ``doubling``), and checked
    only against the exponent cap where an exponent can grow.

    Two slots hold what is derived once, on first use, and are otherwise
    left unset, so ``_raw`` pays nothing for them: ``_terms`` the
    :attr:`terms` view, and ``_text`` the output of
    :func:`format_polynomial`.
    """

    __slots__ = ("ring", "denominator", "packed", "_terms", "_text")

    def __init__(self, ring: RingContext, terms: Iterable[tuple[Monomial, Scalar]]):
        arity = ring.arity
        acc: dict[Monomial, Fraction] = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != arity:
                raise RingError(
                    f"exponent vector {exps} does not match arity {arity}"
                )
            if min(exps) < 0:
                raise RingError(f"negative exponents in {exps}")
            _check_cap(ring, (exps,))
            c = _as_scalar(coeff)
            if c:
                prev = acc.get(exps)
                total = c if prev is None else prev + c
                if total:
                    acc[exps] = total
                elif prev is not None:
                    del acc[exps]
        pack = ring._packing.pack
        self.ring = ring
        self.denominator, self.packed = _over_lcm(
            sorted(((pack(e), c) for e, c in acc.items()), reverse=True)
        )

    @classmethod
    def _raw(cls, ring: RingContext, denominator: int, packed: tuple) -> "Polynomial":
        # Trusted path: the form must already be canonical and lowest.
        p = object.__new__(cls)
        p.ring = ring
        p.denominator = denominator
        p.packed = packed
        return p

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """``(exponents, Fraction)`` pairs, leading first: a view of the
        form, made on first read and kept."""
        try:
            return self._terms
        except AttributeError:
            unpack, d = self.ring._packing.unpack, self.denominator
            terms = self._terms = tuple(
                (unpack(m), Fraction(c) if d == 1 else Fraction(c, d)) for m, c in self.packed
            )
            return terms

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_constant(self) -> bool:
        # The constant monomial packs to 0, the least of all.
        return not self.packed or not self.packed[0][0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        # Grevlex is graded: the leading term has the largest degree.
        return self.ring._packing.degree(self.packed[0][0])

    def leading_monomial(self) -> Monomial:
        if not self.packed:
            raise RingError("zero polynomial has no leading monomial")
        return self.ring._packing.unpack(self.packed[0][0])

    def leading_coefficient(self) -> Fraction:
        if not self.packed:
            raise RingError("zero polynomial has no leading coefficient")
        return Fraction(self.packed[0][1], self.denominator)

    def constant_term(self) -> Fraction:
        if self.packed and not self.packed[-1][0]:
            return Fraction(self.packed[-1][1], self.denominator)
        return Fraction(0)

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
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, -1)

    def __neg__(self):
        return Polynomial._raw(
            self.ring, self.denominator, tuple((m, -c) for m, c in self.packed)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            terms = [(m, k * c.numerator) for m, k in self.packed] if c else []
            return _from_integers(self.ring, self.denominator * c.denominator, terms)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        a, b = self.packed, other.packed
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # A shift keeps the order; nonzero coefficients stay nonzero.
            ((shift, factor),) = b
            terms = [(m + shift, c * factor) for m, c in a]
        else:
            acc: dict[int, int] = {}
            get = acc.get
            for m1, c1 in a:
                for m2, c2 in b:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
            terms = sorted(((m, c) for m, c in acc.items() if c), reverse=True)
        check_cap = ring._packing.check_cap
        for m, _ in terms:
            check_cap(m)
        return _from_integers(ring, self.denominator * other.denominator, terms)

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
        if not self.packed:
            raise RingError("zero polynomial has no leading coefficient")
        lead = self.packed[0][1]
        if lead == self.denominator:
            return self
        # ``packed / lead``: the lead over itself is 1.
        return _from_integers(self.ring, lead, self.packed)

    # -- protocol -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.denominator == other.denominator
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.ring, self.denominator, self.packed))

    def __bool__(self):
        return bool(self.packed)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def _over_lcm(terms: list) -> tuple[int, tuple]:
    """``(D, ((m, n), ...))`` with ``terms == [(m, n / D)]`` for terms with
    ``Fraction`` coefficients, ``D`` the lcm of their denominators.  No
    factor is common to ``D`` and every ``n``, so the form is lowest."""
    denominator = math.lcm(*(c.denominator for _, c in terms))
    return denominator, tuple((m, c.numerator * (denominator // c.denominator)) for m, c in terms)


def _lowest(scale: int, terms):
    """``terms / scale`` in lowest terms: ``scale`` and the integer
    coefficients divided by their gcd, ``scale`` positive."""
    if scale == 1:
        return scale, terms
    content = math.gcd(scale, *(c for _, c in terms))
    if scale < 0:
        content = -content
    if content == 1:
        return scale, terms
    return scale // content, [(m, c // content) for m, c in terms]


def _from_integers(ring: RingContext, scale: int, terms) -> Polynomial:
    """The polynomial ``terms / scale``, from nonzero packed integer
    terms leading first and a nonzero ``scale``, made lowest."""
    if not terms:
        return ring.zero()
    scale, terms = _lowest(scale, terms)
    return Polynomial._raw(ring, scale, tuple(terms))


def _sum(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """``a + sign*b`` on the common denominator: ``a``'s terms in a dict,
    ``b``'s added in, cancelled terms dropped, one sort."""
    da, db = a.denominator, b.denominator
    denominator = math.lcm(da, db)
    fa, fb = denominator // da, sign * (denominator // db)
    acc = dict(a.packed) if fa == 1 else {m: c * fa for m, c in a.packed}
    get = acc.get
    for m, c in b.packed:
        acc[m] = get(m, 0) + c * fb
    terms = sorted(((m, c) for m, c in acc.items() if c), reverse=True)
    return _from_integers(a.ring, denominator, terms)


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


#: The field widths in bits, narrowest first, each with the ``struct``
#: code that reads one field.
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _Packing:
    """The monomials of ``ring`` packed into single non-negative ``int``
    values, the form every :class:`Polynomial` stores.

    Each exponent gets a field of ``w`` bits, the narrowest width of
    :data:`_FIELD_CODES` above ``cap.bit_length()``, so the top (guard)
    bit of a field lies above the cap and :meth:`unpack` is one
    ``struct`` call on the bytes of the fields; exponent ``i``
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

    The pair update of ``groebner`` works on the fields ``F`` alone,
    and its operations, too, hold only for exponents within the cap:
    :meth:`lcm` is the field-wise max, chosen by the same borrow test as
    :meth:`divides`, and :meth:`coprime` compares the masks of the
    nonzero fields, a field being nonzero when adding ``2**(w-1) - 1``
    sets its guard bit.  All of them and :meth:`degree` read fields and
    whole packings alike; :meth:`keyed` puts the key back on fields.
    """

    __slots__ = ("ring", "width", "low", "shifts", "guard", "over", "fields", "nonzero", "decode")

    def __init__(self, ring: RingContext):
        cap = ring.exponent_cap
        width = next(w for w in _FIELD_CODES if w > cap.bit_length())
        self.ring = ring
        self.width = width
        self.low = ring.arity * width
        self.shifts = tuple(range(0, self.low, width))
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.over = sum(((1 << (width - 1)) - 1 - cap) << s for s in self.shifts)
        self.fields = (1 << self.low) - 1
        self.nonzero = self.guard - sum(1 << s for s in self.shifts)
        self.decode = struct.Struct(f"<{ring.arity}{_FIELD_CODES[width]}").unpack

    def pack(self, exps: Monomial) -> int:
        fields = sum(map(lshift, exps, self.shifts))
        return (((sum(exps) << self.low) - fields) << self.low) | fields

    def unpack(self, packed: int) -> Monomial:
        """The exponents of a packed monomial, or of a packed quotient."""
        return self.decode((packed & self.fields).to_bytes(self.low >> 3, "little"))

    def degree(self, packed: int) -> int:
        """The total degree of a packed monomial, or of its fields."""
        return sum(self.unpack(packed))

    def keyed(self, fields: int) -> int:
        """The packed monomial whose exponent fields are ``fields``."""
        low = self.low
        return (((self.degree(fields) << low) - fields) << low) | fields

    def moved(self, packed: int, source: "_Packing", offset: int) -> int:
        """The packed monomial with the exponents of ``packed``, a monomial
        of ``source``'s ring, moved up ``offset`` variables and every other
        exponent 0.  The rings share the cap; the key is read off
        ``packed`` without unpacking, since ``K + F`` is the degree times
        ``2**source.low``."""
        fields = packed & source.fields
        moved = fields << offset * self.width
        low = self.low
        key = (((packed >> source.low) + fields) << (low - source.low)) - moved
        return (key << low) | moved

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        """The exponent fields of the lcm of ``a`` and ``b``, packed
        monomials or fields: the larger field of the two in each place."""
        guard = self.guard
        a &= self.fields
        b &= self.fields
        # A field keeps its guard bit where a >= b; spread it down the field.
        ge = ((a | guard) - b) & guard
        ge -= ge >> (self.width - 1)
        return (a & ge) | (b & ~ge)

    def coprime(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b``, packed monomials or fields, share no
        variable."""
        nonzero = self.nonzero
        return not ((a + nonzero) & (b + nonzero) & self.guard)

    def check_cap(self, packed: int) -> None:
        """Raise what :func:`_check_cap` raises for the unpacked monomial
        when ``packed`` passes the cap."""
        if (packed + self.over) & self.guard:
            _check_cap(self.ring, (self.unpack(packed),))


# -- formatting -------------------------------------------------------


def format_polynomial(p: Polynomial) -> str:
    """Render with the leading term first, e.g. ``y^3 - 3/2*x*y^2``.

    The text is read off the integer form.  Polynomials are immutable,
    so it is made once per object and kept in its ``_text`` slot; the
    text of each packed monomial is made once per ring and kept in
    :attr:`RingContext._monomial_texts`.
    """
    text = getattr(p, "_text", None)
    if text is None:
        ring, d = p.ring, p.denominator
        texts, unpack = ring._monomial_texts, ring._packing.unpack
        terms = []
        for m, c in p.packed:
            mono = texts.get(m)
            if mono is None:
                mono = texts[m] = _monomial_text(ring, unpack(m))
            terms.append((mono, c, d))
        text = p._text = _format_terms(terms)
    return text


def _monomial_text(ring: RingContext, exps: Monomial) -> str:
    """``x*y^2`` for the exponents ``(1, 2)``; the empty text for 1."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(ring.variables, exps) if e
    )


def _format_terms(terms: Iterable) -> str:
    """The text of ``(monomial text, numerator, denominator)`` terms,
    leading first, with positive denominators."""
    pieces = []
    for mono, numerator, denominator in terms:
        content = math.gcd(numerator, denominator)
        magnitude, denominator = abs(numerator) // content, denominator // content
        mag = str(magnitude) if denominator == 1 else f"{magnitude}/{denominator}"
        if mono:
            mag = mono if mag == "1" else f"{mag}*{mono}"
        if pieces:
            pieces.append(f" - {mag}" if numerator < 0 else f" + {mag}")
        else:
            pieces.append(f"-{mag}" if numerator < 0 else mag)
    return "".join(pieces) or "0"


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

    Built on the integer form directly: lowering one exponent of every
    surviving term keeps a monomial order and keeps the monomials
    distinct, and a packed monomial lowers by subtracting the packed
    variable.
    """
    ring = p.ring
    idx, unpack = ring.index(name), ring._packing.unpack
    unit = ring.variable(name).packed[0][0]
    terms = []
    for m, c in p.packed:
        e = unpack(m)[idx]
        if e:
            terms.append((m - unit, c * e))
    return _from_integers(ring, p.denominator, terms)


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
    # Highest degree first is the arc ring's term order.  The exponent
    # cap only bounds parsing and packing, so a longer arc still prints.
    terms = [
        (_monomial_text(_ARC_RING, (i,)), c.numerator, c.denominator)
        for i, c in enumerate(u.coeffs)
        if c
    ]
    return _format_terms(reversed(terms))
