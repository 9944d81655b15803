"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream (Groebner bases, ideal doubling, arc pullbacks,
jet-space linear algebra) rests on the two classes here:

* :class:`RingContext` fixes an ordered tuple of variable names and a
  monomial order.  It is the unit of compatibility: polynomials interact
  only when they carry equal contexts.
* :class:`Polynomial` is an immutable sparse polynomial with
  :class:`fractions.Fraction` coefficients.  Terms are kept sorted with
  the leading term first, so leading-term queries are O(1) and equal
  polynomials have equal term tuples.

The :class:`Polynomial` constructor is for outside input: it validates,
merges and sorts whatever term stream it is given.  Arithmetic never
goes back through it.  Its operands are already canonical, so a sum or
difference is a linear merge of two sorted term tuples, a product with
a single term is an exponent shift that keeps the order (grevlex and
lex are monomial orders), and only a general product sorts, once.  The
one check left on these paths is the ring's exponent cap.

Coefficients are exact by construction; float inputs are rejected rather
than coerced.  A small univariate companion type (:class:`UnivariatePoly`)
backs arc pullbacks, where only orders of vanishing matter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Mapping, Union

__all__ = [
    "DEFAULT_EXPONENT_CAP",
    "ExponentOverflow",
    "Monomial",
    "ParseError",
    "Polynomial",
    "RingContext",
    "RingError",
    "UnivariatePoly",
    "format_polynomial",
    "format_univariate",
    "inject_into",
    "parse_polynomial",
    "parse_univariate",
    "partial_derivative",
    "polynomial_to_univariate",
    "primed",
    "substitute",
]

#: Exponent vector, one entry per ring variable.
Monomial = tuple

Scalar = Union[int, Fraction]

DEFAULT_EXPONENT_CAP = 64

PRIME_SUFFIX = "'"

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
    """An ordered polynomial ring over the rationals.

    ``order`` is ``"grevlex"`` (graded reverse lexicographic, the default)
    or ``"lex"``.  ``doubled`` marks rings produced by
    :meth:`doubled_extension`, which appends a primed mirror of every
    variable; doubling twice is an error.  ``exponent_cap`` bounds every
    exponent that can appear in the ring, so runaway computations fail
    loudly instead of silently growing.
    """

    variables: tuple[str, ...]
    order: str = "grevlex"
    doubled: bool = False
    exponent_cap: int = DEFAULT_EXPONENT_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise RingError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise RingError(f"duplicate variable names in {self.variables}")
        for name in self.variables:
            if not _NAME_RE.fullmatch(name):
                raise RingError(f"bad variable name {name!r}")
        if self.order not in ("grevlex", "lex"):
            raise RingError(f"unknown monomial order {self.order!r}")
        if self.exponent_cap < 1:
            raise RingError("exponent cap must be positive")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise RingError(f"{name!r} is not a variable of {self.variables}") from None

    def sort_key(self, exps: Monomial):
        """Key that sorts monomials ascending in this ring's order."""
        if self.order == "grevlex":
            return (sum(exps), tuple(map(neg, exps[::-1])))
        return exps

    def doubled_extension(self) -> "RingContext":
        """The ring with a primed mirror appended for every variable."""
        if self.doubled:
            raise RingError("ring is already doubled")
        mirror = tuple(primed(v) for v in self.variables)
        return RingContext(self.variables + mirror, self.order, True, self.exponent_cap)

    def half(self) -> "RingContext":
        """The original ring a doubled ring was built from."""
        if not self.doubled:
            raise RingError("ring is not doubled")
        n = self.arity // 2
        return RingContext(self.variables[:n], self.order, False, self.exponent_cap)

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
        return Polynomial(self, [(tuple(exps), 1)])

    def monomial(self, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(self, [(tuple(exps), coeff)])


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`RingContext`.

    ``terms`` is a tuple of ``(exponents, coefficient)`` pairs sorted so
    the leading term (largest in the ring's monomial order) comes first.
    The constructor is the entry point for outside input: it merges
    duplicate monomials, drops zero coefficients, validates every
    exponent vector against the ring and sorts.  Arithmetic results are
    built canonical directly (a merge for ``+``/``-``, an exponent shift
    for a product with one term, one sort for a general product) and
    are checked only against the exponent cap.
    """

    __slots__ = ("ring", "terms")

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

    def variables_present(self) -> frozenset[str]:
        names = set()
        for exps, _ in self.terms:
            for name, e in zip(self.ring.variables, exps):
                if e:
                    names.add(name)
        return frozenset(names)

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

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

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

    One linear pass in the ring's order; coefficients that cancel are
    dropped.
    """
    key = ring.sort_key
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = key(a[i][0]), key(b[j][0])
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append(b[j])
            j += 1
        else:
            c = a[i][1] + b[j][1]
            if c:
                out.append((a[i][0], c))
            i += 1
            j += 1
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


def _check_cap(ring: RingContext, monomials: Iterable[Monomial]) -> None:
    cap = ring.exponent_cap
    for exps in monomials:
        if max(exps) > cap:
            raise ExponentOverflow(
                f"exponents {exps} exceed cap {cap} in ring {ring.variables}"
            )


# -- formatting -------------------------------------------------------


def _format_magnitude(ring: RingContext, exps: Monomial, coeff: Fraction) -> str:
    mag = abs(coeff)
    if not any(exps):
        return str(mag)
    parts = [] if mag == 1 else [str(mag)]
    for name, e in zip(ring.variables, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Render with the leading term first, e.g. ``y^3 - 3/2*x*y^2``."""
    if p.is_zero:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(p.terms):
        body = _format_magnitude(p.ring, exps, coeff)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


# -- parsing ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<op>[-+*^]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None)

    def next(self):
        token = self.peek()
        self.pos += 1
        return token


def parse_polynomial(text: str, ring: RingContext) -> Polynomial:
    """Parse ``text`` into a polynomial of ``ring``.

    The grammar accepts rational coefficients (``3``, ``3/2``), powers
    (``y^3``), explicit products (``2*x*y``), and juxtaposition
    (``2x``).  Terms are separated by exactly one ``+`` or ``-``.
    Unknown variable names and non-integer exponents are rejected.
    """
    stream = _TokenStream(_tokenize(text))
    if stream.peek() == (None, None):
        raise ParseError("empty polynomial text")
    terms: list[tuple[Monomial, Fraction]] = []
    sign = Fraction(1)
    kind, value = stream.peek()
    if kind == "op" and value in "+-":
        stream.next()
        if value == "-":
            sign = Fraction(-1)
    while True:
        exps, coeff = _parse_term(stream, ring)
        terms.append((exps, sign * coeff))
        kind, value = stream.peek()
        if kind is None:
            break
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected '+' or '-' before {value!r}")
        stream.next()
        sign = Fraction(1) if value == "+" else Fraction(-1)
    return Polynomial(ring, terms)


def _parse_term(stream: _TokenStream, ring: RingContext) -> tuple[Monomial, Fraction]:
    coeff = Fraction(1)
    exps = [0] * ring.arity
    saw_factor = False
    while True:
        kind, value = stream.peek()
        if kind == "op" and value == "*":
            if not saw_factor:
                raise ParseError("'*' without a preceding factor")
            stream.next()
            kind, value = stream.peek()
            if kind not in ("number", "name"):
                raise ParseError("'*' must be followed by a factor")
        if kind == "number":
            stream.next()
            if "/" in value:
                num, den = value.split("/")
                if int(den) == 0:
                    raise ParseError(f"zero denominator in {value!r}")
                coeff *= Fraction(int(num), int(den))
            else:
                coeff *= int(value)
            saw_factor = True
        elif kind == "name":
            stream.next()
            idx = ring.index(value) if value in ring.variables else None
            if idx is None:
                raise ParseError(
                    f"unknown variable {value!r}; ring has {ring.variables}"
                )
            power = 1
            kind2, value2 = stream.peek()
            if kind2 == "op" and value2 == "^":
                stream.next()
                kind3, value3 = stream.next()
                if kind3 != "number" or "/" in value3:
                    raise ParseError(f"exponent after '^' must be an integer")
                power = int(value3)
            exps[idx] += power
            saw_factor = True
        else:
            break
    if not saw_factor:
        raise ParseError("expected a term")
    return tuple(exps), coeff


# -- structural operations --------------------------------------------


def partial_derivative(p: Polynomial, name: str) -> Polynomial:
    """Formal partial derivative with respect to the named variable."""
    idx = p.ring.index(name)
    terms = []
    for exps, coeff in p.terms:
        e = exps[idx]
        if e:
            lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            terms.append((lowered, coeff * e))
    return Polynomial(p.ring, terms)


def substitute(
    p: Polynomial,
    images: Mapping[str, Union[Polynomial, Scalar]],
    target: RingContext | None = None,
) -> Polynomial:
    """Apply the ring map sending each named variable to its image.

    Every variable that actually occurs in ``p`` must have an image.
    Polynomial images must all live in one ring, which becomes the
    target; scalar images are allowed, and if every image is scalar the
    target defaults to ``p.ring`` (or the explicit ``target``).
    """
    for name in images:
        if name not in p.ring.variables:
            raise RingError(f"{name!r} is not a variable of {p.ring.variables}")
    if target is None:
        for img in images.values():
            if isinstance(img, Polynomial):
                target = img.ring
                break
        else:
            target = p.ring
    resolved: dict[str, Polynomial] = {}
    for name, img in images.items():
        if isinstance(img, Polynomial):
            if img.ring != target:
                raise RingError("substitution images live in different rings")
            resolved[name] = img
        else:
            resolved[name] = target.constant(_as_scalar(img))
    missing = p.variables_present() - set(resolved)
    if missing:
        raise RingError(f"no image given for {sorted(missing)}")

    powers: dict[str, list[Polynomial]] = {
        name: [target.one(), img] for name, img in resolved.items()
    }
    total = target.zero()
    for exps, coeff in p.terms:
        factor = target.constant(coeff)
        for name, e in zip(p.ring.variables, exps):
            if not e:
                continue
            cache = powers[name]
            while len(cache) <= e:
                cache.append(cache[-1] * cache[1])
            factor = factor * cache[e]
        total = total + factor
    return total


def inject_into(p: Polynomial, target: RingContext) -> Polynomial:
    """Re-express ``p`` in ``target``, matching variables by name.

    Only variables that actually occur need to exist in the target, so a
    polynomial can move into any ring that contains its support.
    """
    if p.ring == target:
        return p
    position: dict[int, int] = {}
    for i, name in enumerate(p.ring.variables):
        if name in target.variables:
            position[i] = target.index(name)
    terms = []
    for exps, coeff in p.terms:
        new = [0] * target.arity
        for i, e in enumerate(exps):
            if not e:
                continue
            if i not in position:
                raise RingError(
                    f"{p.ring.variables[i]!r} does not exist in {target.variables}"
                )
            new[position[i]] = e
        terms.append((tuple(new), coeff))
    return Polynomial(target, terms)


# -- univariate arcs ---------------------------------------------------


class UnivariatePoly:
    """Dense univariate polynomial used for arc pullbacks.

    ``coeffs[i]`` is the coefficient of degree ``i``; trailing zeros are
    trimmed, so the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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

    def __sub__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return UnivariatePoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            return UnivariatePoly(tuple(k * c for k in self.coeffs))
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UnivariatePoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return UnivariatePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise RingError("exponent must be a non-negative integer")
        result = UnivariatePoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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


def parse_univariate(text: str, parameter: str = "s") -> UnivariatePoly:
    ring = RingContext((parameter,))
    return polynomial_to_univariate(parse_polynomial(text, ring))


def format_univariate(u: UnivariatePoly, parameter: str = "s") -> str:
    ring = RingContext((parameter,), exponent_cap=max(DEFAULT_EXPONENT_CAP, len(u.coeffs)))
    p = Polynomial(ring, [((i,), c) for i, c in enumerate(u.coeffs)])
    return format_polynomial(p)


def polynomial_to_univariate(p: Polynomial) -> UnivariatePoly:
    """Collapse a polynomial supported on one variable to dense form."""
    present = p.variables_present()
    if len(present) > 1:
        raise RingError(f"polynomial involves several variables: {sorted(present)}")
    if not present:
        return UnivariatePoly((p.constant_term(),))
    idx = p.ring.index(next(iter(present)))
    coeffs = [Fraction(0)] * (max(exps[idx] for exps, _ in p.terms) + 1)
    for exps, coeff in p.terms:
        coeffs[exps[idx]] += coeff
    return UnivariatePoly(coeffs)
