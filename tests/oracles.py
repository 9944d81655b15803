"""Brute-force ideal-membership oracle used to cross-check the basis
engine.

The oracle shares nothing with the division or Buchberger code: it
answers "is p = sum q_i * g_i solvable with deg q_i <= cap" by writing
the cofactors with unknown coefficients and solving the resulting
linear system over the rationals with dense Gaussian elimination.  A
returned certificate is a proof of membership that any reader can
check by multiplying out; ``None`` only means no certificate exists
within the degree cap.

:func:`reference_divide` is the textbook multivariate division the
engine used before its integer accumulator kernel: it rebuilds the
remainder with ``Polynomial`` arithmetic at every step.  It is kept as
the independent replay that ``groebner.divide`` must agree with.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from liptriv.rings import Polynomial, RingError


def monomials_up_to(arity: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree at most ``degree``."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(arity), d):
            exps = [0] * arity
            for idx in combo:
                exps[idx] += 1
            out.append(tuple(exps))
    return out


def _solve_exact(rows, rhs):
    """Solve ``rows * x = rhs`` over Fraction; None when inconsistent.

    Free variables are set to zero, so any solution is returned, not a
    distinguished one.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    solution = [Fraction(0)] * n
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = a[row_idx][n]
    return solution


def brute_force_certificate(p, generators, cofactor_degree):
    """Cofactors ``q_i`` with ``p = sum q_i g_i``, or None.

    Exhaustive within the cap: if a representation with every cofactor
    of degree at most ``cofactor_degree`` exists, it is found.
    """
    ring = p.ring
    gens = list(generators)
    if not gens:
        return [] if p.is_zero else None
    cof_monos = monomials_up_to(ring.arity, cofactor_degree)
    columns = []  # one column per (generator, cofactor monomial)
    support = set(m for m, _ in p.terms)
    for g in gens:
        for mono in cof_monos:
            shifted = {}
            for exps, coeff in g.terms:
                key = tuple(a + b for a, b in zip(exps, mono))
                shifted[key] = shifted.get(key, Fraction(0)) + coeff
            columns.append(shifted)
            support.update(shifted)
    support = sorted(support)
    row_of = {m: i for i, m in enumerate(support)}
    rows = [[Fraction(0)] * len(columns) for _ in support]
    for j, col in enumerate(columns):
        for mono, coeff in col.items():
            rows[row_of[mono]][j] = coeff
    rhs = [Fraction(0)] * len(support)
    for mono, coeff in p.terms:
        rhs[row_of[mono]] = coeff
    solution = _solve_exact(rows, rhs)
    if solution is None:
        return None
    cofactors = []
    per_gen = len(cof_monos)
    for i in range(len(gens)):
        chunk = solution[i * per_gen : (i + 1) * per_gen]
        terms = [
            (mono, value)
            for mono, value in zip(cof_monos, chunk)
            if value
        ]
        cofactors.append(Polynomial(ring, terms))
    return cofactors


def recombine(cofactors, generators):
    """Multiply a certificate back out."""
    gens = list(generators)
    total = gens[0].ring.zero() if gens else None
    for q, g in zip(cofactors, gens):
        total = total + q * g
    return total


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def reference_divide(p, divisors):
    """Multivariate division of ``p`` by an ordered list of divisors.

    Returns ``(cofactors, remainder)`` with
    ``p == sum(c * d for c, d in zip(cofactors, divisors)) + remainder``
    and no remainder term divisible by any divisor's leading monomial.
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
