"""Kernel tests: rings, monomial orders, parsing, exact arithmetic."""

from fractions import Fraction

import pytest

from liptriv import RingContext
from liptriv.rings import (
    DEFAULT_EXPONENT_CAP,
    ExponentOverflow,
    ParseError,
    Polynomial,
    RingError,
    parse_polynomial,
    partial_derivative,
    primed,
    substitute,
)

XY = RingContext(("x", "y"))


def poly(text, ring=XY):
    return parse_polynomial(text, ring)


class TestRingContext:
    def test_variables_and_order(self):
        assert XY.variables == ("x", "y")
        assert XY.order == "grevlex"
        assert XY.arity == 2

    def test_lex_available(self):
        ring = RingContext(("x", "y"), order="lex")
        assert ring.order == "lex"

    def test_duplicate_variables_rejected(self):
        with pytest.raises(RingError):
            RingContext(("x", "x"))

    def test_unknown_order_rejected(self):
        with pytest.raises(RingError):
            RingContext(("x",), order="deglex")

    def test_doubled_extension_appends_primed_copies(self):
        doubled = XY.doubled_extension()
        assert doubled.variables == ("x", "y", "x'", "y'")
        assert doubled.doubled
        assert doubled.half() == XY

    def test_primed_name(self):
        assert primed("x") == "x'"


class TestMonomialOrder:
    def test_grevlex_breaks_degree_ties_by_reversed_last_variable(self):
        # with x > y: x*y^2 > y^3 under grevlex
        assert poly("x*y^2 - y^3").leading_monomial() == (1, 2)

    def test_grevlex_degree_first(self):
        assert poly("y^3 + x^2").leading_monomial() == (0, 3)

    def test_lex_ignores_degree(self):
        ring = RingContext(("x", "y"), order="lex")
        assert poly("x + y^5", ring).leading_monomial() == (1, 0)

    def test_doubled_ring_prefers_unprimed(self):
        doubled = XY.doubled_extension()
        p = parse_polynomial("x - x'", doubled)
        assert p.leading_monomial() == (1, 0, 0, 0)

    def test_terms_sorted_descending(self):
        p = poly("1 + x + y + x*y")
        monos = [m for m, _ in p.terms]
        assert monos == sorted(monos, key=XY.sort_key, reverse=True)


class TestArithmetic:
    def test_exact_rational_coefficients(self):
        p = poly("1/3*x") + poly("1/6*x")
        assert p == poly("1/2*x")

    def test_float_coefficients_rejected(self):
        with pytest.raises(RingError):
            Polynomial(XY, [((1, 0), 0.5)])

    def test_product(self):
        assert poly("x + y") * poly("x - y") == poly("x^2 - y^2")

    def test_zero_annihilates(self):
        assert (poly("x") - poly("x")).is_zero

    def test_power(self):
        assert poly("x + 1") ** 2 == poly("x^2 + 2*x + 1")

    def test_scalar_fraction(self):
        assert poly("x") * Fraction(3, 2) == poly("3/2*x")

    def test_cross_ring_addition_rejected(self):
        other = RingContext(("u",))
        with pytest.raises(RingError):
            poly("x") + parse_polynomial("u", other)

    def test_exponent_cap_enforced(self):
        p = poly("x^32")
        with pytest.raises(ExponentOverflow):
            p * p * p  # 96 > 64

    def test_default_cap_value(self):
        assert DEFAULT_EXPONENT_CAP == 64
        assert XY.exponent_cap == 64


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["x^2*y - 3*y + 1/2", "-x + y'", "y^3 - 3/2*x*y^2", "0", "t*y - t'*y'"],
    )
    def test_roundtrip(self, text):
        ring = RingContext(("t", "x", "y")).doubled_extension()
        p = parse_polynomial(text, ring)
        assert parse_polynomial(str(p), ring) == p

    def test_implicit_coefficient_juxtaposition(self):
        assert poly("2x") == poly("2*x")
        assert poly("2s^2", RingContext(("s",))) == poly(
            "2*s^2", RingContext(("s",))
        )

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            poly("z + 1")

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            poly("x ++ y")

    def test_decimal_literal_rejected(self):
        with pytest.raises(ParseError):
            poly("0.5*x")

    def test_leading_term_printed_first(self):
        assert str(poly("1 + y^3 + x")) == "y^3 + x + 1"


class TestCalculusAndSubstitution:
    def test_partial_derivative(self):
        assert partial_derivative(poly("x^2*y + y"), "x") == poly("2*x*y")

    def test_derivative_of_constant_is_zero(self):
        assert partial_derivative(poly("7"), "x").is_zero

    def test_substitute_is_evaluation(self):
        p = poly("x^2 + y")
        image = substitute(
            p, {"x": poly("y"), "y": poly("1")}, XY
        )
        assert image == poly("y^2 + 1")

    def test_substitute_into_other_ring(self):
        s_ring = RingContext(("s",))
        s = parse_polynomial("s", s_ring)
        p = poly("x*y - y")
        image = substitute(p, {"x": s**2, "y": s}, s_ring)
        assert image == parse_polynomial("s^3 - s", s_ring)
