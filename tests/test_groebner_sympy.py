"""Differential oracle: ``buchberger`` against ``sympy.groebner``.

For the doubled family ideal of every catalog family at k, l <= 3, with
the catalog's own ``random_direction``, the reduced grevlex basis from
``buchberger`` must equal sympy's.  sympy returns primitive integer
polynomials, so each of its elements is scaled to be monic under
grevlex before comparing.  Primed variables are renamed, because a
sympy symbol cannot contain ``'``.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from liptriv import buchberger, normal_form, random_direction  # noqa: E402
from liptriv.doubling import build_unfolding, unfolding_double_ideal  # noqa: E402


def cells():
    for k in range(1, 4):
        for l in range(2, 4):
            yield 1, k, l
    for index in (2, 3, 4):
        for k in range(2, 4):
            yield index, k, None
    yield 5, None, None
    yield 6, None, None


def family_ideal(index, k, l):
    nf = normal_form(index, k=k, l=l)
    theta = nf.theta(random_direction(nf))
    return unfolding_double_ideal(build_unfolding(nf.matrix, theta))


def as_terms(poly, gens) -> dict:
    """sympy polynomial as {exponents: Fraction}, scaled monic under grevlex."""
    p = sympy.Poly(poly, *gens)
    lc = Fraction(int(p.LC(order="grevlex")))
    return {
        tuple(e): Fraction(int(c.p), int(c.q)) / lc for e, c in p.terms()
    }


@pytest.mark.parametrize("index, k, l", list(cells()), ids=lambda v: str(v))
def test_reduced_basis_matches_sympy(index, k, l):
    ideal = family_ideal(index, k, l)
    ring = ideal.ring
    names = [v.replace("'", "_p") for v in ring.variables]
    gens = sympy.symbols(names)
    generators = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.prod(g**e for g, e in zip(gens, exps))
            for exps, c in p.terms
        )
        for p in ideal.generators
    ]
    expected = sympy.groebner(generators, *gens, order="grevlex")
    ours = {tuple(sorted(dict(p.terms).items())) for p in buchberger(ideal.generators)}
    theirs = {tuple(sorted(as_terms(q, gens).items())) for q in expected.exprs}
    assert ours == theirs
