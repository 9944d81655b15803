"""Basis computation, division, membership, budgets, certificates."""

import pytest

from liptriv import RingContext, groebner
from liptriv.groebner import (
    BudgetExceeded,
    GroebnerBudget,
    Ideal,
    buchberger,
    divide,
    membership_certificate,
    s_polynomial,
)
from liptriv.rings import (
    ExponentOverflow,
    RingError,
    _from_integers,
    _Packing,
    parse_polynomial,
)

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
XYZ_CAP2 = RingContext(("x", "y", "z"), exponent_cap=2)
XYZ_CAP3 = RingContext(("x", "y", "z"), exponent_cap=3)


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

    def test_exponent_cap_in_a_membership_is_a_budget_failure(self):
        ring = RingContext(("x", "y"), exponent_cap=4)
        p, d = polys("x^4*y^4", "y^4 - x", ring=ring)
        with pytest.raises(BudgetExceeded):
            membership_certificate(p, Ideal(ring, [d]))

    def test_exponent_cap_in_s_pair_is_a_budget_failure(self):
        # the pair's lcm x^4*y shifts the tail y^4 of the first generator
        # to y^5, past the cap, before any division step
        ring = RingContext(("x", "y"), exponent_cap=4)
        f, g = polys("x^4 + y^4", "x*y - 1", ring=ring)
        with pytest.raises(ExponentOverflow):
            s_polynomial(f, g)
        with pytest.raises(BudgetExceeded):
            buchberger([f, g])

    def test_over_cap_monomial_that_would_cancel_still_overflows(self):
        # Dividing x*z^2 - y*z^2 by x*z + z^2 enters -z^3, past the cap 2;
        # the next step, by y*z + z^2, would cancel it.  With room for z^3
        # the division ends exactly, every cofactor within the cap 2.
        texts = ("x*z^2 - y*z^2", "y*z + z^2", "x*z + z^2")
        p, *divisors = polys(*texts, ring=XYZ_CAP2)
        with pytest.raises(ExponentOverflow, match=r"\(0, 0, 3\)"):
            divide(p, divisors)
        p, *divisors = polys(*texts, ring=XYZ_CAP3)
        cofactors, remainder = divide(p, divisors)
        assert [str(c) for c in cofactors] == ["-z", "z"]
        assert remainder.is_zero

    def test_over_cap_monomial_that_would_cancel_is_a_budget_failure(self):
        # The one S-pair, x*z^2 - y*z^2, reduces through the same -z^3;
        # with room for it the inputs are the reduced basis.
        texts = ["y*z + z^2", "x*z + z^2"]
        with pytest.raises(BudgetExceeded, match=r"\(0, 0, 3\)"):
            buchberger(polys(*texts, ring=XYZ_CAP2))
        assert [str(p) for p in buchberger(polys(*texts, ring=XYZ_CAP3))] == texts

    def test_exponent_cap_in_autoreduction_is_a_budget_failure(self):
        # The leads y^2 and x^2*z^2 are coprime, so no S-pair is formed;
        # autoreducing y^2*z^2 by y^2 - x*z enters x*z^3, past the cap 2.
        texts = ["y^2 - x*z", "x^2*z^2 + y^2*z^2"]
        with pytest.raises(BudgetExceeded, match=r"\(1, 0, 3\)"):
            buchberger(polys(*texts, ring=XYZ_CAP2))
        assert [str(p) for p in buchberger(polys(*texts, ring=XYZ_CAP3))] == [
            "y^2 - x*z",
            "x^2*z^2 + x*z^3",
        ]

    def test_s_polynomial_cancels_leading_terms(self):
        f, g = polys("x^2 - y", "x*y - 1")
        s = _from_integers(XY, *s_polynomial(f, g))
        assert s == parse_polynomial("x - y^2", XY)

    def test_s_polynomial_refuses_zero_and_non_polynomials(self):
        (f,) = polys("x^2 - y")
        with pytest.raises(RingError, match="zero polynomial"):
            s_polynomial(XY.zero(), f)
        with pytest.raises(RingError, match="zero polynomial"):
            s_polynomial(f, XY.zero())
        with pytest.raises(RingError, match="Polynomials"):
            s_polynomial(f, 3)

    def test_non_polynomial_divisor_or_dividend_is_refused(self):
        p, d = polys("x^2 - y", "x*y - 1")
        with pytest.raises(RingError, match="divisor"):
            divide(p, [2])
        with pytest.raises(RingError, match="divisor"):
            divide(p, [d, "y"])
        with pytest.raises(RingError, match="dividend"):
            divide(3, [d])


class TestBuchberger:
    def test_non_polynomial_generator_is_refused(self):
        (p,) = polys("x^2 - y")
        with pytest.raises(RingError, match="generator"):
            buchberger([p, 3])
        with pytest.raises(RingError, match="generator"):
            buchberger([0, p])

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_pairs", True),
            ("max_pairs", 2.5),
            ("max_pairs", "3"),
            ("max_degree", 0),
            ("max_degree", 2.5),
            ("max_degree", True),
        ],
    )
    def test_budget_limits_must_be_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            GroebnerBudget(**{field: value})

    @pytest.mark.parametrize("budget", [5, 0, False, (10, 4), "default"])
    def test_budget_must_be_a_groebner_budget(self, budget):
        # 0 and False are not the default budget; only None is.
        gens = polys("x^2 - y", "x*y - 1")
        with pytest.raises(ValueError, match="GroebnerBudget"):
            buchberger(gens, budget)

    @pytest.mark.parametrize("budget", [5, 0, False])
    def test_cached_basis_still_checks_the_budget(self, budget):
        ideal = Ideal(XY, polys("x^2 - y", "x*y - 1"))
        ideal.groebner_basis()
        zero = Ideal(XY, [XY.zero()])
        for target in (ideal, zero):
            with pytest.raises(ValueError, match="GroebnerBudget"):
                target.groebner_basis(budget)
            with pytest.raises(ValueError, match="GroebnerBudget"):
                membership_certificate(parse_polynomial("x", XY), target, budget)

    def test_none_budget_is_the_default(self):
        gens = polys("x^2 - y", "x*y - 1")
        assert buchberger(gens, None) == buchberger(gens, GroebnerBudget())

    def test_budget_max_degree_raises(self):
        gens = polys("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
        with pytest.raises(BudgetExceeded):
            buchberger(gens, GroebnerBudget(max_pairs=10_000, max_degree=1))


class TestPairUpdate:
    """Each rule of the Gebauer–Möller update, on monomial inputs.

    The inputs enter in order.  Every S-polynomial of two monomials is
    zero, so no element is added and the S-pairs formed are exactly the
    pairs the update kept.
    """

    @pytest.fixture
    def formed(self, monkeypatch):
        pairs = []
        s_poly = groebner.s_polynomial

        def spy(f, g):
            pairs.append((str(f), str(g)))
            return s_poly(f, g)

        monkeypatch.setattr(groebner, "s_polynomial", spy)
        return pairs

    def test_criterion_b_drops_an_old_pair(self, formed):
        # y divides lcm(x*y, y*z) = x*y*z, and lcm(x*y, y) and lcm(y*z, y)
        # both differ from it: the pair of the first two goes.
        assert [str(p) for p in buchberger(polys("x*y", "y*z", "y", ring=XYZ))] == ["y"]
        assert sorted(formed) == [("x*y", "y"), ("y*z", "y")]

    def test_a_proper_multiple_of_a_new_lcm_is_dropped(self, formed):
        # lcm(x*z^2, x*y) = x*y*z^2 is a proper multiple of
        # lcm(x*z, x*y) = x*y*z, so x*z^2 does not pair with x*y.
        buchberger(polys("x*z", "x*z^2", "x*y", ring=XYZ))
        assert formed == [("x*z", "x*z^2"), ("x*z", "x*y")]

    def test_an_equal_lcm_class_is_formed_once(self, formed):
        # lcm(x*z, x*y) == lcm(y*z, x*y) == x*y*z: one pair stands for both.
        # The old pair shares that lcm with them, so criterion B keeps it.
        buchberger(polys("x*z", "y*z", "x*y", ring=XYZ))
        assert formed == [("x*z", "y*z"), ("x*z", "x*y")]

    def test_a_class_with_a_coprime_member_is_dropped(self, formed):
        # lcm(y, x) == lcm(x*y, x) == x*y, and y is coprime to x.
        buchberger(polys("y", "x*y", "x"))
        assert formed == [("y", "x*y")]

    def test_an_element_the_new_lead_divides_pairs_no_more(self, formed):
        # x divides x*y, so x*y pairs with nothing after x enters.  Both
        # pair with x*y*z at lcm x*y*z; only x is left to stand for them.
        gens = polys("x*y", "x", "x*y*z", ring=XYZ)
        buchberger(gens)
        assert formed == [("x*y", "x"), ("x", "x*y*z")]
        # Considered: none for the first, one for x, one for x*y*z.
        buchberger(gens, GroebnerBudget(max_pairs=2))
        with pytest.raises(BudgetExceeded, match="more than 1 S-pairs"):
            buchberger(gens, GroebnerBudget(max_pairs=1))

    def test_max_pairs_counts_pairs_the_criteria_drop(self, formed):
        # Three coprime leads: no pair is formed, but three are considered.
        gens = polys("x", "y", "z", ring=XYZ)
        assert buchberger(gens, GroebnerBudget(max_pairs=3)) == gens[::-1]
        assert formed == []
        with pytest.raises(BudgetExceeded, match="more than 2 S-pairs"):
            buchberger(gens, GroebnerBudget(max_pairs=2))


class TestIdeal:
    def test_groebner_basis_cached(self):
        ideal = Ideal(XY, polys("x^2 - y", "x*y - 1"))
        first = ideal.groebner_basis()
        assert ideal.groebner_basis() is first

    def test_divide_packs_and_unpacks_nothing(self, monkeypatch):
        # Division reads the stored forms of the dividend and the divisors
        # and builds its cofactors and remainder from packed integer
        # terms, so no monomial is packed or unpacked on the way in or out.
        basis = Ideal(XY, polys("x^2 - y", "x*y - 1")).groebner_basis()
        p, *divisors = polys("x^3*y - 2*x*y^2 + y + 5", "x*y - 1", "y^2 - 1")
        calls = []
        for name in ("pack", "unpack"):
            original = getattr(_Packing, name)

            def spy(packing, value, original=original, name=name):
                calls.append(name)
                return original(packing, value)

            monkeypatch.setattr(_Packing, name, spy)
        results = [(divide(p, basis), basis), (divide(p, divisors), divisors)]
        assert calls == []
        monkeypatch.undo()
        for (cofactors, remainder), divs in results:
            assert not remainder.is_zero
            assert sum((c * d for c, d in zip(cofactors, divs)), remainder) == p

    def test_membership_refuses_non_polynomials_and_non_ideals(self):
        ideal = Ideal(XY, polys("x^2 - y"))
        (p,) = polys("x^2 - y")
        with pytest.raises(RingError, match="Polynomial"):
            membership_certificate(3, ideal)
        with pytest.raises(RingError, match="Ideal"):
            membership_certificate(p, [p])
        assert membership_certificate(p, ideal) is not None

    def test_membership_positive(self):
        ideal = Ideal(XY, polys("x^2 - y", "x*y - 1"))
        # x*(x^2 - y) - ... lands in the ideal by construction
        member = parse_polynomial("x^3 - x*y + y^3 - 1", XY)
        assert membership_certificate(member, ideal) is not None

    def test_membership_negative(self):
        ideal = Ideal(XY, polys("x^2", "y^2"))
        assert membership_certificate(parse_polynomial("x*y", XY), ideal) is None
        assert membership_certificate(parse_polynomial("x + y", XY), ideal) is None

    def test_zero_is_member(self):
        ideal = Ideal(XY, polys("x"))
        assert membership_certificate(XY.zero(), ideal) is not None

    def test_zero_ideal_holds_only_zero(self):
        zero = Ideal(XY, [XY.zero()])
        assert membership_certificate(XY.zero(), zero) == []
        assert membership_certificate(parse_polynomial("x", XY), zero) is None

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
        assert all(membership_certificate(g, outer) is not None for g in inner.generators)
        assert not all(membership_certificate(g, inner) is not None for g in outer.generators)

    def test_budget_propagates_through_membership(self):
        ideal = Ideal(XY, polys("x^3 - 2*x*y", "x^2*y - 2*y^2 + x"))
        with pytest.raises(BudgetExceeded):
            membership_certificate(
                parse_polynomial("x", XY),
                ideal,
                GroebnerBudget(max_pairs=1, max_degree=48),
            )
