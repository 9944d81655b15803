"""Cross-checks of the basis engine against two independent arbiters:
the brute-force cofactor oracle in :mod:`tests.oracles` and sympy's
Groebner machinery, which must agree on membership and on the reduced
basis itself; and known answers for the diagonal-collapse oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from liptriv import RingContext
from liptriv.doubling import double_of, unfolding_ring
from liptriv.groebner import Ideal, membership_certificate
from liptriv.rings import ExponentOverflow, Polynomial
from tests.oracles import (
    brute_force_certificate,
    diagonal_collapse,
    monomials_up_to,
    recombine,
)

RING = RingContext(("x", "y", "z"))
SYMPY_VARS = sympy.symbols("x y z")


def to_sympy(p):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for var, e in zip(SYMPY_VARS, exps):
            term *= var**e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr):
    terms = sympy.Poly(expr, *SYMPY_VARS).terms()
    return Polynomial(RING, [(e, Fraction(int(c.p), int(c.q))) for e, c in terms])


def random_poly(rng, degree, arity=3, sparsity=4):
    monos = monomials_up_to(arity, degree)
    terms = []
    for mono in rng.sample(monos, min(sparsity, len(monos))):
        coeff = rng.randint(-3, 3)
        if coeff:
            terms.append((mono, Fraction(coeff)))
    return Polynomial(RING, terms)


def random_instances(count):
    """Half constructed members (with known cofactor degrees), half
    random elements that are usually not members."""
    rng = random.Random(0xC0FFEE)
    instances = []
    while len(instances) < count:
        n_gens = rng.randint(1, 3)
        gens = [random_poly(rng, rng.randint(1, 3)) for _ in range(n_gens)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        if len(instances) % 2 == 0:
            cofactors = [random_poly(rng, 2, sparsity=3) for _ in gens]
            p = RING.zero()
            for q, g in zip(cofactors, gens):
                p = p + q * g
            instances.append(("member", p, gens, 2))
        else:
            p = random_poly(rng, 3)
            instances.append(("random", p, gens, 2))
    return instances


INSTANCES = random_instances(220)


class TestOracleAgainstKnownAnswers:
    def test_certifies_trivial_membership(self):
        x = RING.variable("x")
        cert = brute_force_certificate(x * x, [x], 1)
        assert cert is not None
        assert recombine(cert, [x]) == x * x

    def test_refuses_nonmember(self):
        x, y = RING.variable("x"), RING.variable("y")
        assert brute_force_certificate(x + y, [x * x, y * y], 4) is None

    def test_zero_always_member(self):
        x = RING.variable("x")
        cert = brute_force_certificate(RING.zero(), [x], 2)
        assert cert is not None
        assert recombine(cert, [x]).is_zero



class TestDiagonalCollapse:
    XY = RingContext(("x", "y"))
    DXY = XY.doubled_extension()

    def test_merges_colliding_monomials(self):
        x, y = self.DXY.variable("x"), self.DXY.variable("y")
        xp, yp = self.DXY.variable("x'"), self.DXY.variable("y'")
        p = x * yp * 3 + xp * y * Fraction(1, 2) - x * y + xp * yp * 2 + x
        got = diagonal_collapse(p)
        assert got.terms == Polynomial(self.XY, [((1, 1), Fraction(9, 2)), ((1, 0), 1)]).terms

    def test_full_cancellation(self):
        x, xp, yp = self.DXY.variable("x"), self.DXY.variable("x'"), self.DXY.variable("y'")
        p = (x - xp) * (x - xp) * yp  # three monomials that all fold to x^2*y
        assert diagonal_collapse(p).is_zero
        double = double_of(Polynomial(self.XY, [((2, 3), 5), ((0, 1), -1)]))
        assert double.ring is unfolding_ring(self.XY)
        assert diagonal_collapse(double).is_zero

    def test_keeps_the_cap(self):
        ring = RingContext(("x",), exponent_cap=3).doubled_extension()
        p = Polynomial(ring, [((2, 2), 1)])
        with pytest.raises(ExponentOverflow):
            diagonal_collapse(p)

def check_instance(kind, p, gens, cap):
    ideal = Ideal(RING, gens)
    pairs = membership_certificate(p, ideal)
    engine_says = pairs is not None

    # sympy as an independent full-strength arbiter, both directions
    sympy_gens = [to_sympy(g) for g in gens]
    basis = sympy.groebner(sympy_gens, *SYMPY_VARS, order="grevlex")
    sympy_says = basis.reduce(to_sympy(p))[1] == 0
    assert engine_says == sympy_says

    # the reduced basis itself: sympy's, made monic, in ascending order
    theirs = sorted(
        (from_sympy(q).monic() for q in basis.exprs),
        key=lambda q: RING.sort_key(q.leading_monomial()),
    )
    assert list(ideal.groebner_basis()) == theirs

    # the bounded oracle can only certify membership, never refute it
    cert = brute_force_certificate(p, gens, cap)
    if cert is not None:
        assert engine_says
        assert recombine(cert, gens) == p

    if kind == "member":
        # built as sum(q_i g_i) with deg q_i <= cap: the oracle must
        # find some certificate and the engine must agree
        assert engine_says
        assert cert is not None

    if engine_says:
        total = RING.zero()
        for cofactor, basis_poly in pairs:
            total = total + cofactor * basis_poly
        assert total == p


@pytest.mark.parametrize(
    "kind,p,gens,cap",
    INSTANCES,
    ids=[f"{i:03d}-{inst[0]}" for i, inst in enumerate(INSTANCES)],
)
def test_engine_matches_oracles(kind, p, gens, cap):
    check_instance(kind, p, gens, cap)
