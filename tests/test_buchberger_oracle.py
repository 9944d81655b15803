"""``groebner.buchberger`` against the ``Fraction`` Buchberger it replaced.

``buchberger`` forms and reduces S-pairs on integer forms;
``tests.oracles.reference_buchberger`` runs the same pair order, criteria
and budget checks with ``Polynomial`` arithmetic and the textbook
division.  On the doubled family ideal of every catalog cell at k, l <= 4
and on random ideals with non-monic rational generators, both must
return the same reduced basis, or both must raise ``BudgetExceeded``
with the same message.  On five ideals, the smallest ``max_pairs`` and
the smallest ``max_degree`` the oracle needs must be the engine's too.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext, normal_form, random_direction
from liptriv import groebner
from liptriv.catalog import catalog_parameters
from liptriv.doubling import build_unfolding, unfolding_double_ideal
from liptriv.groebner import BudgetExceeded, GroebnerBudget, buchberger
from liptriv.rings import Polynomial, parse_polynomial
from tests.oracles import reference_buchberger

XYZ = RingContext(("x", "y", "z"))

# Non-unit numerators and denominators up to 7, so monic forms keep fractions.
coefficients = st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(bool)

# Small enough that most random ideals finish; the rest must trip alike.
BUDGET = GroebnerBudget(max_pairs=30, max_degree=6)

# Far above what any ideal here needs (at most 153 pairs and degree 10),
# but finite, so a broken engine fails instead of running on.
LIMITS = {"max_pairs": 400, "max_degree": 48}


def family_ideal(index, k, l):
    nf = normal_form(index, k=k, l=l)
    theta = nf.theta(random_direction(nf))
    return unfolding_double_ideal(build_unfolding(nf.matrix, theta))


def _run(fn, generators, budget=None):
    try:
        return [p.terms for p in fn(generators, budget)]
    except BudgetExceeded as exc:
        return ("budget", str(exc))


@pytest.mark.parametrize("index, k, l", catalog_parameters(4, 4), ids=str)
def test_family_ideal_matches_reference(index, k, l):
    generators = family_ideal(index, k, l).generators
    budget = GroebnerBudget(**LIMITS)
    got = _run(buchberger, generators, budget)
    assert got[0] != "budget"
    assert got == _run(reference_buchberger, generators, budget)


@st.composite
def ideals(draw):
    monomial = st.tuples(*(st.integers(0, 2) for _ in range(XYZ.arity)))
    term = st.tuples(monomial, coefficients)
    poly = st.lists(term, min_size=1, max_size=4).map(lambda ts: Polynomial(XYZ, ts))
    gens = draw(st.lists(poly.filter(lambda p: not p.is_zero), min_size=2, max_size=4))
    return gens


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_random_ideal_matches_reference(generators):
    got = _run(buchberger, generators, BUDGET)
    assert got == _run(reference_buchberger, generators, BUDGET)
    if got[0] != "budget":
        for terms in got:
            assert terms[0][1] == 1
            assert all(isinstance(c, Fraction) for _, c in terms)


def _fixed_ideal():
    return [
        parse_polynomial(text, XYZ)
        for text in ("3*x^2*y - 1/2*z^2", "2/3*x*y^2 + 5*y*z - 7", "4*x*z^2 - 3/5*y")
    ]


BUDGET_IDEALS = {
    # Each needs more than one pair and more than degree 1.
    "family-1-k3-l4": lambda: family_ideal(1, 3, 4).generators,
    "family-2-k3": lambda: family_ideal(2, 3, None).generators,
    "family-3-k4": lambda: family_ideal(3, 4, None).generators,
    "family-5": lambda: family_ideal(5, None, None).generators,
    "rational": _fixed_ideal,
}


def _smallest(fn, generators, field):
    """Smallest value of the budget field ``field`` with which ``fn``
    completes; the other field stays at ``LIMITS``.  Completing is monotone
    in each limit, so a doubling search and a bisection find it."""

    def completes(value):
        try:
            fn(generators, GroebnerBudget(**{**LIMITS, field: value}))
        except BudgetExceeded:
            return False
        return True

    hi = 1
    while not completes(hi):
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if completes(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


@pytest.mark.parametrize("field", ["max_pairs", "max_degree"])
@pytest.mark.parametrize("name", sorted(BUDGET_IDEALS))
def test_smallest_budget_matches_reference(name, field):
    generators = BUDGET_IDEALS[name]()
    need = _smallest(reference_buchberger, generators, field)
    assert need > 1
    at = GroebnerBudget(**{**LIMITS, field: need})
    below = GroebnerBudget(**{**LIMITS, field: need - 1})
    assert _run(buchberger, generators, at) == _run(reference_buchberger, generators, at)
    assert _run(buchberger, generators, below) == _run(reference_buchberger, generators, below)
    with pytest.raises(BudgetExceeded):
        buchberger(generators, below)


def test_basis_forms_are_primitive(monkeypatch):
    """Every divisor form ``_reduce`` sees in ``buchberger`` is a monic
    element written over its leading integer: ``(a, a, tail)`` with
    ``a > 0`` and content 1, so the integers stay as small as the
    element allows."""
    seen = []
    reduce = groebner._reduce

    def spy(ring, scale, terms, leading, forms, steps=None):
        seen.extend(forms)
        return reduce(ring, scale, terms, leading, forms, steps)

    monkeypatch.setattr(groebner, "_reduce", spy)
    gens = [
        parse_polynomial(text, XYZ)
        for text in ("6*x^2*y - 4*z^2", "10*x*y^2 + 4*y*z - 8", "4*x*z^2 - 6*y")
    ]
    assert [p.terms for p in buchberger(gens)] == [
        p.terms for p in reference_buchberger(gens)
    ]
    assert seen
    for denom, a, tail in seen:
        assert denom == a > 0
        assert math.gcd(a, *(c for _, c in tail)) == 1
