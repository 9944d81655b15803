"""Brute-force ideal-membership oracle used to cross-check the basis
engine.

:func:`reference_terms`, :func:`reference_sum`, :func:`reference_scale`
and :func:`reference_product` are polynomial arithmetic on plain
``{exponents: Fraction}`` dicts, zero coefficients dropped.  They share
no code with ``Polynomial``, whose arithmetic runs on packed integer
forms, so ``Polynomial`` results must agree with them.

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

:func:`reference_buchberger` is the ``Fraction`` Buchberger the engine
used before it reduced S-pairs on the integer accumulator: S-polynomials
by ``Polynomial`` products, every reduction and the autoreduction
through :func:`reference_divide`.  It keeps the engine's pair order, its
Gebauer–Möller pair update (written out over plain lists, every lcm
recomputed) and its budget checks, so ``groebner.buchberger`` must
return the same reduced basis and raise ``BudgetExceeded`` at the same
budgets.

:func:`reference_format_polynomial` is ``rings.format_polynomial`` as it
was before it read each coefficient's numerator and denominator: it
prints ``abs(coeff)`` through ``Fraction.__str__`` and tests the sign
with ``<``.  Both must print every polynomial alike.

:func:`reference_insert_row` is the echelon insertion jet elimination
used before it went fraction free: it normalises every pivot row to a
leading ``1`` with ``Fraction`` arithmetic.  ``tangent._insert_row``
must report the same pivots for every row stream.

:func:`reference_normal_space` is ``tangent.normal_space_basis`` as it
was before one elimination gave both the normal space and its stability
check: two ``Fraction`` eliminations through
:func:`reference_insert_row`, one at the jet degree and one a degree
higher, each with the class-group column order alone, and ``stable``
says their representatives agree.

:func:`reference_streaming_pivots` is the loop ``tangent._eliminate``
ran before it peeled unit columns: every tangent row of the jet, one
entry or many, streams through ``tangent._insert_row`` in the same
order.  The pivot columns of ``_eliminate`` must be the same.

:func:`diagonal_collapse` restricts a polynomial on a doubled ring to
the diagonal ``z = z'``, folding it onto :func:`half_ring`.  Every
generator of a difference ideal must collapse to zero; the engine
guarantees that by construction and no longer checks it, so the tests
check it here.

:func:`difference_ideal` doubles any components on the doubled
extension of their ring, the parameter ``t`` among them, term by term
through the validating constructor.  It replays the engine's
``double_of``, which doubles only from a source ring into the unfolding
ring by moving packed exponents, on the family components of
:func:`matrix_route`.

:func:`matrix_route` is the family ``base + t*direction`` as a matrix,
built by :func:`substitute` and ``MatrixGerm`` arithmetic.  The engine
never forms it: it doubles the germ and the direction and combines the
doubles, so the family ideal must equal the difference ideal of these
components.

:func:`full_double_ideal` is the family ideal as the engine built it
before both points of a pair shared the parameter: the parameter gets a
mirror ``t'`` too, and ``t - t'`` ties the two copies back together.
A polynomial without ``t'`` lies in it exactly when it lies in
``unfolding_double_ideal(u)``, since the ideals that contain ``t - t'``
correspond one to one with the ideals of the ring without ``t'``.

:func:`reference_pullback_dense` is ``curves.pullback_dense`` as it was
before it moved to integer arithmetic and power tables: every term
starts from its ``Fraction`` coefficient and multiplies its arcs in one
at a time, by :func:`reference_univariate_mul`, the schoolbook
``Fraction`` product ``UnivariatePoly`` used before its trusted path.

:func:`substitute` applies a general ring map by plain ``Polynomial``
arithmetic.  The engine never needs one, since it doubles by moving
packed exponents in ``doubling`` and pulls back along arcs through
``curves``; the tests use it to state the identities those must satisfy.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Union

from liptriv.doubling import MatrixGerm, component_positions
from liptriv.groebner import BudgetExceeded, GroebnerBudget, Ideal
from liptriv.rings import (
    ExponentOverflow,
    Polynomial,
    RingContext,
    RingError,
    UnivariatePoly,
)
from liptriv.tangent import _columns, _insert_row, _scaled_terms, tangent_generators


def reference_terms(terms) -> dict:
    """The ``{exponents: Fraction}`` dict of a stream of ``(exponents,
    coefficient)`` terms: equal monomials summed, zeros dropped."""
    out: dict = {}
    for exps, coeff in terms:
        exps = tuple(exps)
        out[exps] = out.get(exps, 0) + Fraction(coeff)
    return {exps: coeff for exps, coeff in out.items() if coeff}


def reference_sum(a: dict, b: dict) -> dict:
    return reference_terms([*a.items(), *b.items()])


def reference_scale(a: dict, scalar) -> dict:
    return reference_terms((exps, coeff * scalar) for exps, coeff in a.items())


def reference_product(a: dict, b: dict) -> dict:
    return reference_terms(
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        for e1, c1 in a.items()
        for e2, c2 in b.items()
    )


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
            h = Polynomial(ring, h.terms[1:])
    return cofactors, Polynomial(ring, remainder_terms)


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reference_s_polynomial(f, g):
    """Syzygy combination cancelling the two leading terms."""
    lcm = _mono_lcm(f.leading_monomial(), g.leading_monomial())
    mf = f.ring.monomial(_mono_div(lcm, f.leading_monomial()), 1 / f.leading_coefficient())
    mg = g.ring.monomial(_mono_div(lcm, g.leading_monomial()), 1 / g.leading_coefficient())
    return mf * f - mg * g


def _reference_autoreduce(basis):
    if not basis:
        return []
    ring = basis[0].ring
    ordered = sorted(basis, key=lambda f: ring.sort_key(f.leading_monomial()))
    # Divisibility implies order, so one ascending pass finds the minimal set.
    minimal = []
    for f in ordered:
        lm = f.leading_monomial()
        if not any(_mono_divides(g.leading_monomial(), lm) for g in minimal):
            minimal.append(f)
    reduced = []
    for i, f in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = reference_divide(f, others)[1] if others else f
        reduced.append(r.monic())
    reduced.sort(key=lambda f: ring.sort_key(f.leading_monomial()))
    return reduced


def reference_buchberger(generators, budget=None):
    """Reduced Groebner basis of the ideal the generators span.

    The result is canonical: monic, fully autoreduced, sorted ascending
    by leading monomial.  Raises ``BudgetExceeded`` when the count of
    pairs the Gebauer–Möller update considers or the degree of a new
    basis element passes the budget.
    """
    budget = budget or GroebnerBudget()
    inputs = [g.monic() for g in generators if not g.is_zero]
    if not inputs:
        return []
    ring = inputs[0].ring
    for g in inputs:
        if g.ring != ring:
            raise RingError("generators must share one ring")

    basis = []
    pairs = []
    active = []
    considered = 0

    def enter(h):
        # The Gebauer–Möller update, written out over lists of pairs.
        nonlocal pairs, active, considered
        considered += len(active)
        if considered > budget.max_pairs:
            raise BudgetExceeded(f"considered more than {budget.max_pairs} S-pairs")
        t = len(basis)
        lm_h = h.leading_monomial()
        lead = [g.leading_monomial() for g in basis]
        old = []
        for i, j in pairs:
            lcm = _mono_lcm(lead[i], lead[j])
            if (
                _mono_divides(lm_h, lcm)
                and _mono_lcm(lead[i], lm_h) != lcm
                and _mono_lcm(lead[j], lm_h) != lcm
            ):
                continue  # criterion B
            old.append((i, j))
        new = []
        for i in active:
            lcm = _mono_lcm(lead[i], lm_h)
            same = [k for k in active if _mono_lcm(lead[k], lm_h) == lcm]
            if same[0] != i:
                continue  # the class's first member stands for it
            if any(_mono_coprime(lead[k], lm_h) for k in same):
                continue
            if any(
                _mono_divides(_mono_lcm(lead[k], lm_h), lcm)
                and _mono_lcm(lead[k], lm_h) != lcm
                for k in active
            ):
                continue
            new.append((i, t))
        pairs = old + new
        active = [i for i in active if not _mono_divides(lm_h, lead[i])] + [t]
        basis.append(h)

    def degree(pair):
        i, j = pair
        return sum(_mono_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())), i, j

    try:
        for g in inputs:
            enter(g)
        while pairs:
            pair = min(pairs, key=degree)
            pairs.remove(pair)
            i, j = pair
            h = reference_divide(reference_s_polynomial(basis[i], basis[j]), basis)[1]
            if h.is_zero:
                continue
            if h.degree() > budget.max_degree:
                raise BudgetExceeded(
                    f"basis element of degree {h.degree()} exceeds "
                    f"cap {budget.max_degree}"
                )
            enter(h.monic())
        return _reference_autoreduce(basis)
    except ExponentOverflow as exc:
        raise BudgetExceeded(str(exc)) from exc


def _reference_format_magnitude(ring, exps, coeff):
    mag = abs(coeff)
    if not any(exps):
        return str(mag)
    parts = [] if mag == 1 else [str(mag)]
    for name, e in zip(ring.variables, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def reference_format_polynomial(p):
    """Render with the leading term first, e.g. ``y^3 - 3/2*x*y^2``."""
    if p.is_zero:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(p.terms):
        body = _reference_format_magnitude(p.ring, exps, coeff)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


def reference_insert_row(pivots: dict, row: dict) -> bool:
    """Echelon insertion; returns whether the row added a pivot.

    Rows map integer column numbers to nonzero coefficients, and the
    columns are numbered in elimination order, so the pivot is simply
    the smallest column of the row.  The pivot column set depends only
    on the row space and the column order, never on the order rows
    arrive in, so streaming is safe.
    """
    while row:
        lead = min(row)
        if lead not in pivots:
            inv = 1 / row[lead]
            pivots[lead] = {c: v * inv for c, v in row.items()}
            return True
        coeff = row[lead]
        for c, v in pivots[lead].items():
            nv = row.get(c, 0) - coeff * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return False


def _reference_normal_space_at(F, degree):
    """Rank, column count and representatives ``(position index,
    monomial)`` of the normal space in the jet at ``degree``."""
    ring = F.ring
    monos = sorted(monomials_up_to(ring.arity, degree), key=ring.sort_key)
    rank_of = {mono: mi for mi, mono in enumerate(monos)}
    positions = component_positions(F.shape, F.symmetric)

    def class_group(p):
        i, j = positions[p]
        return 0 if i != j else 1 + (F.nrows - 1 - i)

    order = sorted(
        ((p, mi) for p in range(len(positions)) for mi in range(len(monos))),
        key=lambda col: (class_group(col[0]), -col[1], col[0]),
    )
    number = {col: k for k, col in enumerate(order)}
    pivots: dict = {}
    for g in tangent_generators(F):
        for mono in monos:
            row = {}
            for p, component in enumerate(g.components):
                for exps, c in component.terms:
                    shifted = tuple(a + b for a, b in zip(exps, mono))
                    if sum(shifted) <= degree:
                        row[number[(p, rank_of[shifted])]] = c
            reference_insert_row(pivots, row)
    reps = [col for col in order if number[col] not in pivots]
    reps.sort(key=lambda col: (sum(monos[col[1]]), col[0], col[1]))
    return len(pivots), len(order), [(p, monos[mi]) for p, mi in reps]


def reference_normal_space(F, degree):
    """The normal space of ``F`` in the jet at ``degree`` as a dict with
    ``rank``, ``column_count``, ``codimension``, ``basis_labels``,
    ``basis`` and ``stable``, from two eliminations."""
    rank, column_count, reps = _reference_normal_space_at(F, degree)
    _, _, reps_next = _reference_normal_space_at(F, degree + 1)
    positions = component_positions(F.shape, F.symmetric)
    zero = F.ring.zero()
    basis, labels = [], []
    for p, mono in reps:
        i, j = positions[p]
        poly = F.ring.monomial(mono)
        components = [poly if q == p else zero for q in range(len(positions))]
        basis.append(MatrixGerm(F.shape, components, F.symmetric))
        unit = f"E({i + 1},{j + 1})"
        labels.append(f"{poly}*{unit}" if any(mono) else unit)
    return {
        "rank": rank,
        "column_count": column_count,
        "codimension": column_count - rank,
        "basis_labels": tuple(labels),
        "basis": tuple(basis),
        "stable": reps == reps_next,
    }


def reference_streaming_pivots(F, degree):
    """The pivot table of the tangent rows of ``F`` in the jet at
    ``degree``, every row streamed through ``_insert_row`` from the
    largest monomial down, every generator's row for one monomial before
    the next."""
    monos, codes, _, column = _columns(F.ring, F.shape, F.symmetric, degree)
    generators = []
    for g in tangent_generators(F):
        terms = [
            (column[p], code, d, c)
            for p, component in enumerate(_scaled_terms(g.components, degree))
            for code, d, c in component
        ]
        if terms:
            generators.append((min(d for _, _, d, _ in terms), terms))
    pivots: dict = {}
    for mono, shift in zip(reversed(monos), reversed(codes)):
        room = degree - sum(mono)
        for g_order, terms in generators:
            if g_order <= room:
                row = {cols[code + shift]: c for cols, code, d, c in terms if d <= room}
                _insert_row(pivots, row)
    return pivots


def half_ring(ring):
    """The ring a doubled ``ring`` was doubled from: its first variables,
    one for each entry of its mirror map."""
    if not ring.doubled:
        raise RingError("only a doubled ring has a half")
    return RingContext(ring.variables[: len(ring.mirrors)], ring.exponent_cap)


def difference_ideal(components):
    """The ideal of the doubles ``h(z) - h(z')`` of ``components``, in
    order, on the doubled extension of their one ring: each term beside
    its copy on the mirrors (``v'``, found by name, and ``t`` for ``t``)
    with the opposite sign, through the validating ``Polynomial``
    constructor, which cancels constants and terms in ``t`` alone.
    Zero doubles drop out."""
    source = components[0].ring
    ring = source.doubled_extension()
    mirrors = [ring.index(v if v == "t" else v + "'") for v in source.variables]
    pad = (0,) * (ring.arity - source.arity)

    def double(h):
        terms = []
        for e, c in h.terms:
            mirrored = [0] * ring.arity
            for i, a in zip(mirrors, e):
                mirrored[i] = a
            terms += [(e + pad, c), (tuple(mirrored), -c)]
        return Polynomial(ring, terms)

    return Ideal(ring, map(double, components))


def diagonal_collapse(p):
    """Substitute every primed variable by its original, folding back
    to the source ring through the validating ``Polynomial``
    constructor.  Differences of doubles collapse to zero."""
    ring = p.ring
    half = half_ring(ring)
    n = half.arity
    # the mirror v' of a source variable v, past the source variables
    source = list(range(n)) + [half.index(v[:-1]) for v in ring.variables[n:]]
    terms = []
    for e, c in p.terms:
        exps = [0] * n
        for i, a in zip(source, e):
            exps[i] += a
        terms.append((tuple(exps), c))
    return Polynomial(half, terms)


def full_double_ideal(u):
    """``t - t'`` and ``h(t, z) - h(t', z')`` for every component ``h`` of
    the unfolding ``u``, on the ring ``t, z, t', z'`` that mirrors every
    variable, parameter included; built with the validating
    ``Polynomial`` constructor."""
    family = matrix_route(u.base, u.direction)
    source = family.ring
    ring = RingContext(source.variables + tuple(v + "'" for v in source.variables))
    zeros = (0,) * source.arity

    def double(h):
        return Polynomial(
            ring,
            [(e + zeros, c) for e, c in h.terms] + [(zeros + e, -c) for e, c in h.terms],
        )

    return Ideal(ring, [double(source.variable("t")), *map(double, family.components)])


def matrix_route(base: MatrixGerm, direction: MatrixGerm) -> MatrixGerm:
    """``lift(base) + lift(direction).scale(t)`` by ``MatrixGerm``
    arithmetic, on the ring ``t, x, y, ...``."""
    ring = RingContext(("t",) + base.ring.variables, exponent_cap=base.ring.exponent_cap)
    images = {name: ring.variable(name) for name in base.ring.variables}

    def lift(germ):
        return germ.map_entries(lambda e: substitute(e, images, ring))

    return lift(base) + lift(direction).scale(ring.variable("t"))


def reference_univariate_mul(a, b):
    """Schoolbook product of two ``UnivariatePoly``, accumulated in
    ``Fraction`` and built with the validating constructor."""
    if a.is_zero or b.is_zero:
        return UnivariatePoly.zero()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += Fraction(x) * Fraction(y)
    return UnivariatePoly(out)


def reference_pullback_dense(p, curve):
    """Substitute the curve's arcs into ``p`` term by term, one arc
    factor at a time, in ``Fraction`` arithmetic."""
    total = UnivariatePoly.zero()
    for exps, coeff in p.terms:
        factor = UnivariatePoly.constant(coeff)
        for comp, e in zip(curve.components, exps):
            for _ in range(e):
                factor = reference_univariate_mul(factor, comp)
        total = total + factor
    return total


def substitute(
    p: Polynomial,
    images: Mapping[str, Union[Polynomial, int, Fraction]],
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
            resolved[name] = target.constant(img)
    present = {
        name for exps, _ in p.terms for name, e in zip(p.ring.variables, exps) if e
    }
    missing = present - set(resolved)
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
