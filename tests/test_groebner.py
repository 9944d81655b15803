"""Basis computation, division, membership, budgets, certificates."""

import pytest

from liptriv import RingContext
from liptriv.groebner import (
    BudgetExceeded,
    GroebnerBudget,
    Ideal,
    buchberger,
    divide,
    ideal_member,
    membership_certificate,
    s_polynomial,
)
from liptriv.rings import ExponentOverflow, parse_polynomial

XY = RingContext(("x", "y"))


def polys(*texts, ring=XY):
    return [parse_polynomial(t, ring) for t in texts]


class TestDivision:
    def test_division_identity(self):
        p = parse_polynomial("x^3*y - 2*x*y^2 + y + 5", XY)
        divisors = polys("x*y - 1", "y^2 - 1")
        quotients, remainder = divide(p, divisors)
        recombined = remainder
        for q, d in zip(quotients, divisors):
            recombined = recombined + q * d
        assert recombined == p

    def test_remainder_has_no_divisible_leading_monomial(self):
        p = parse_polynomial("x^2*y + x*y^2 + y^2", XY)
        divisors = polys("x*y - 1", "y^2 - 1")
        r = divide(p, divisors)[1]
        assert r == parse_polynomial("x + y + 1", XY)

    def test_exponent_cap_holds_through_division(self):
        # cancelling y^4 shifts the tail -x by x^4: x^5 is past the cap
        ring = RingContext(("x", "y"), exponent_cap=4)
        p, d = polys("x^4*y^4", "y^4 - x", ring=ring)
        with pytest.raises(ExponentOverflow):
            divide(p, [d])

    def test_exponent_cap_in_division_is_a_budget_failure(self):
        ring = RingContext(("x", "y"), exponent_cap=4)
        with pytest.raises(BudgetExceeded):
            buchberger(polys("y^4 - x", "x^4*y^4 + x^3", ring=ring))

    def test_s_polynomial_cancels_leading_terms(self):
        f, g = polys("x^2 - y", "x*y - 1")
        s = s_polynomial(f, g)
        assert s == parse_polynomial("x - y^2", XY)


class TestBuchberger:
    def test_textbook_basis(self):
        # closing <x^2 - y, x*y - 1> under S-pairs adds y^2 - x
        basis = buchberger(polys("x^2 - y", "x*y - 1"))
        assert [str(p) for p in basis] == ["y^2 - x", "x*y - 1", "x^2 - y"]

    def test_basis_is_monic_and_sorted(self):
        basis = buchberger(polys("2*x^2 - 2*y", "3*x*y - 3"))
        for p in basis:
            assert p.leading_coefficient() == 1

    def test_principal_ideal_reduces_to_generator(self):
        basis = buchberger(polys("2*x^2 - 4*y"))
        assert [str(p) for p in basis] == ["x^2 - 2*y"]

    def test_coprime_leading_monomials_kept_verbatim(self):
        # pairwise coprime leading monomials: already a reduced basis
        basis = buchberger(polys("x^2 + y", "y^3 + x"))
        assert {str(p) for p in basis} == {"x^2 + y", "y^3 + x"}

    def test_whole_ring_collapses_to_one(self):
        basis = buchberger(polys("x", "x + 1"))
        assert [str(p) for p in basis] == ["1"]

    def test_budget_max_pairs_raises(self):
        gens = polys("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
        with pytest.raises(BudgetExceeded):
            buchberger(gens, GroebnerBudget(max_pairs=1, max_degree=48))

    def test_budget_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            GroebnerBudget(max_pairs=0, max_degree=48)

    def test_budget_max_degree_raises(self):
        gens = polys("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
        with pytest.raises(BudgetExceeded):
            buchberger(gens, GroebnerBudget(max_pairs=10_000, max_degree=1))


class TestIdeal:
    def test_groebner_basis_cached(self):
        ideal = Ideal(XY, polys("x^2 - y", "x*y - 1"))
        first = ideal.groebner_basis()
        assert ideal.groebner_basis() is first

    def test_membership_positive(self):
        ideal = Ideal(XY, polys("x^2 - y", "x*y - 1"))
        # x*(x^2 - y) - ... lands in the ideal by construction
        member = parse_polynomial("x^3 - x*y + y^3 - 1", XY)
        assert ideal_member(member, ideal)

    def test_membership_negative(self):
        ideal = Ideal(XY, polys("x^2", "y^2"))
        assert not ideal_member(parse_polynomial("x*y", XY), ideal)
        assert not ideal_member(parse_polynomial("x + y", XY), ideal)

    def test_zero_is_member(self):
        ideal = Ideal(XY, polys("x"))
        assert ideal_member(XY.zero(), ideal)

    def test_certificate_recombines(self):
        ideal = Ideal(XY, polys("x^2 - y", "x*y - 1"))
        # x^2*(x^2 - y) - y*(x*y - 1)
        p = parse_polynomial("x^4 - x^2*y - x*y^2 + y", XY)
        pairs = membership_certificate(p, ideal)
        assert pairs is not None
        total = XY.zero()
        for cofactor, basis_poly in pairs:
            total = total + cofactor * basis_poly
        assert total == p

    def test_certificate_none_for_nonmember(self):
        ideal = Ideal(XY, polys("x^2", "y^2"))
        assert membership_certificate(parse_polynomial("x*y", XY), ideal) is None

    def test_ideal_contains(self):
        outer = Ideal(XY, polys("x", "y"))
        inner = Ideal(XY, polys("x^2 + y^3", "x*y"))
        assert all(ideal_member(g, outer) for g in inner.generators)
        assert not all(ideal_member(g, inner) for g in outer.generators)

    def test_budget_propagates_through_membership(self):
        ideal = Ideal(XY, polys("x^3 - 2*x*y", "x^2*y - 2*y^2 + x"))
        with pytest.raises(BudgetExceeded):
            ideal_member(
                parse_polynomial("x", XY),
                ideal,
                GroebnerBudget(max_pairs=1, max_degree=48),
            )
