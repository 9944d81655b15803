"""Builders that skip the validating ``Polynomial`` constructor, and the
objects shared per ring.

Each trusted builder must produce exactly the terms the validating
constructor makes from the same term stream.  Shared rings and diagonal
ideals must be one object per ring, and a budget failure on the shared
diagonal ideal must leave it computable later.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.doubling import (
    MatrixGerm,
    build_unfolding,
    diagonal_ideal,
    double_of,
    unfolding_double_ideal,
    unfolding_ring,
)
from liptriv.groebner import BudgetExceeded, GroebnerBudget, membership_certificate
from liptriv.rings import Polynomial, partial_derivative
from tests.oracles import half_ring

XY = RingContext(("x", "y"))
DXY = XY.doubled_extension()
UXY = unfolding_ring(XY)  # t, x, y, x', y'

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def term_lists(arity, max_exp=4, max_terms=6):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(arity)))
    return st.lists(st.tuples(exps, coefficients), max_size=max_terms)


def polys(ring, **kw):
    return term_lists(ring.arity, **kw).map(lambda ts: Polynomial(ring, ts))


def assert_canonical(p, expected_terms):
    assert p.terms == Polynomial(p.ring, expected_terms).terms
    assert all(type(c) is Fraction and c for _, c in p.terms)


class TestTrustedBuilders:
    @settings(max_examples=300, deadline=None)
    @given(polys(XY), st.sampled_from(XY.variables))
    def test_partial_derivative(self, p, name):
        i = XY.index(name)
        expected = [
            (e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in p.terms if e[i]
        ]
        assert_canonical(partial_derivative(p, name), expected)

    @pytest.mark.parametrize("ring", [XY, DXY], ids=["grevlex", "doubled"])
    def test_variable(self, ring):
        for i, name in enumerate(ring.variables):
            exps = tuple(int(j == i) for j in range(ring.arity))
            assert_canonical(ring.variable(name), [(exps, 1)])

    @settings(max_examples=300, deadline=None)
    @given(polys(XY), coefficients)
    def test_double_of_with_constant_terms(self, p, constant):
        # Each term at z in the slots after t, and at z' past them; the
        # constant cancels.
        p = p + constant
        zeros = (0,) * XY.arity
        expected = [((0,) + e + zeros, c) for e, c in p.terms]
        expected += [((0,) + zeros + e, -c) for e, c in p.terms]
        double = double_of(p)
        assert double.ring is UXY == RingContext(("t", "x", "y")).doubled_extension()
        assert_canonical(double, expected)
        assert all(any(e) for e, _ in double.terms)

    def test_double_of_constant_is_zero(self):
        assert double_of(XY.constant(Fraction(7, 2))).is_zero


class TestSharedPerRing:
    def test_doubled_extension_is_shared(self):
        assert XY.doubled_extension() is XY.doubled_extension()
        assert RingContext(("u", "v")).doubled_extension() is RingContext(("u", "v")).doubled_extension()

    def test_half_is_shared(self):
        # An equal half doubles back to the very same ring.
        doubled = RingContext(("u", "w")).doubled_extension()
        assert half_ring(doubled) == RingContext(("u", "w"))
        assert half_ring(doubled).doubled_extension() is doubled
        assert doubled.mirror_indices() is doubled.mirror_indices()

    def test_unfolding_ring_is_shared(self):
        germ = MatrixGerm((1, 2), (XY.variable("x"), XY.variable("y")))
        first = unfolding_double_ideal(build_unfolding(germ, germ)).ring
        again = unfolding_double_ideal(build_unfolding(germ, germ.scale(2))).ring
        assert first is again is UXY
        assert half_ring(first) == RingContext(("t", "x", "y"))
        copy = MatrixGerm((1, 1), (RingContext(("x", "y")).variable("x"),))
        assert unfolding_double_ideal(build_unfolding(copy, copy)).ring is first

    def test_equal_distinct_rings_compare_and_hash_equal(self):
        a = RingContext(("u", "v"), exponent_cap=99)
        b = RingContext(("u", "v"), exponent_cap=99)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        for other in (
            RingContext(("u", "w"), exponent_cap=99),
            RingContext(("u", "v")),
            a.doubled_extension(),
        ):
            assert a != other and not a == other
        assert a != ("u", "v")

    def test_diagonal_ideal_is_shared(self):
        assert diagonal_ideal(DXY) is diagonal_ideal(DXY)
        assert diagonal_ideal(DXY) is diagonal_ideal(XY.doubled_extension())

    def test_budget_failure_leaves_the_shared_basis_unset(self):
        # A ring no other test doubles, so the shared ideal starts fresh.
        ring = RingContext(("p", "q", "r")).doubled_extension()
        ideal = diagonal_ideal(ring)
        difference = ring.variable("q") - ring.variable("q'")
        with pytest.raises(BudgetExceeded):
            membership_certificate(difference, ideal, GroebnerBudget(max_pairs=1))
        assert ideal._basis is None
        pairs = membership_certificate(difference, diagonal_ideal(ring), GroebnerBudget())
        assert pairs is not None
        assert diagonal_ideal(ring)._basis is not None
