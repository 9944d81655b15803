"""``groebner.divide`` against the textbook division it replaced.

``divide`` reduces on an integer accumulator; ``tests.oracles.
reference_divide`` rebuilds the remainder with ``Polynomial`` arithmetic
at every step.  On random dividends and divisors in grevlex, lex and
doubled rings, with rational, negative and non-monic coefficients,
divisors whose monic forms have non-unit denominators and divisors that
share a leading monomial, both must return identical cofactors and
remainder, and the result must be a division: ``p == sum(q_i * d_i) +
r`` with no remainder term divisible by a divisor's leading monomial.
A ring with a small exponent cap checks that both raise the same
``ExponentOverflow``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.groebner import divide
from liptriv.rings import ExponentOverflow, Polynomial
from tests.oracles import reference_divide

RINGS = [
    RingContext(("x", "y", "z")),
    RingContext(("x", "y", "z"), order="lex"),
    RingContext(("x", "y"), order="lex").doubled_extension(),
    RingContext(("x", "y")).doubled_extension(),
    RingContext(("x", "y"), exponent_cap=4),
]

# Non-unit numerators and denominators, so monic divisors keep fractions.
coefficients = st.fractions(min_value=-7, max_value=7, max_denominator=6)


def monomials(ring, max_exp=3):
    return st.tuples(*(st.integers(0, max_exp) for _ in range(ring.arity)))


def polys(ring, max_terms=5):
    term = st.tuples(monomials(ring), coefficients)
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


@st.composite
def divisors(draw, ring):
    """Nonzero divisors; some repeat an earlier divisor's leading monomial."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        if out and draw(st.booleans()):
            lead = draw(st.sampled_from(out)).leading_monomial()
            below = [
                t
                for t in draw(st.lists(st.tuples(monomials(ring), coefficients), max_size=4))
                if ring.sort_key(t[0]) < ring.sort_key(lead)
            ]
            scale = draw(coefficients.filter(bool))
            out.append(Polynomial(ring, [(lead, scale)] + below))
        else:
            out.append(draw(polys(ring).filter(lambda p: not p.is_zero)))
    return out


@st.composite
def division_problems(draw):
    ring = draw(st.sampled_from(RINGS))
    ds = draw(divisors(ring))
    p = draw(polys(ring))
    if ring.exponent_cap == 4:
        # every divisor divides x^4*y^4, and most shifted tails pass the cap
        p = p + Polynomial(ring, [((4, 4), draw(coefficients.filter(bool)))])
    elif draw(st.booleans()):
        # a combination of the divisors, so the division runs many steps
        for d in ds:
            p = p + draw(polys(ring, max_terms=3)) * d
    return p, ds


def _run(fn, p, ds):
    try:
        return fn(p, ds)
    except ExponentOverflow as exc:
        return ("overflow", str(exc))


@settings(max_examples=400, deadline=None)
@given(division_problems())
def test_divide_matches_reference(problem):
    p, ds = problem
    got = _run(divide, p, ds)
    assert got == _run(reference_divide, p, ds)
    if got[0] == "overflow":
        return
    cofactors, remainder = got
    assert len(cofactors) == len(ds)
    for q in cofactors + [remainder]:
        assert q.ring == p.ring
        assert q.terms == Polynomial(p.ring, q.terms).terms
        assert all(isinstance(c, Fraction) for _, c in q.terms)
    total = remainder
    for q, d in zip(cofactors, ds):
        total = total + q * d
    assert total == p
    leads = [d.leading_monomial() for d in ds]
    for exps, _ in remainder.terms:
        assert not any(all(a <= b for a, b in zip(lm, exps)) for lm in leads)


def test_monic_denominators_and_shared_leads():
    ring = RINGS[0]
    x, y, z = (ring.variable(v) for v in ring.variables)
    ds = [3 * x * y - Fraction(1, 2) * z, -2 * x * y + y, 5 * y * y - 7 * x]
    p = Fraction(2, 3) * x**3 * y**2 - x * y * z + y**3 + 4
    cofactors, remainder = divide(p, ds)
    assert (cofactors, remainder) == reference_divide(p, ds)
    assert sum((q * d for q, d in zip(cofactors, ds)), remainder) == p
    assert not remainder.is_zero
