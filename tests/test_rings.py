"""Kernel tests: rings, the monomial order, parsing, exact arithmetic."""

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liptriv import RingContext, rings
from liptriv.doubling import unfolding_ring
from liptriv.rings import (
    DEFAULT_EXPONENT_CAP,
    ExponentOverflow,
    ParseError,
    Polynomial,
    RingError,
    UnivariatePoly,
    format_polynomial,
    format_univariate,
    parse_polynomial,
    partial_derivative,
    primed,
)
from tests.oracles import half_ring, reference_format_polynomial, substitute

XY = RingContext(("x", "y"))
DOUBLED = RingContext(("t", "x", "y")).doubled_extension()


def poly(text, ring=XY):
    return parse_polynomial(text, ring)


class TestRingContext:
    def test_variables_and_order(self):
        assert XY.variables == ("x", "y")
        assert XY.arity == 2
        assert XY.sort_key((1, 0)) > XY.sort_key((0, 1))  # x > y

    def test_duplicate_variables_rejected(self):
        with pytest.raises(RingError):
            RingContext(("x", "x"))

    def test_bare_string_of_variables_rejected(self):
        with pytest.raises(RingError):
            RingContext("xy")

    @pytest.mark.parametrize("name", [1, None, "2x", ""])
    def test_bad_variable_name_rejected(self, name):
        with pytest.raises(RingError):
            RingContext(("x", name))

    @pytest.mark.parametrize("cap", [True, False, 2.5, "3", 0, -1, None, 1 << 63])
    def test_exponent_cap_must_be_a_positive_int(self, cap):
        with pytest.raises(RingError):
            RingContext(("x",), exponent_cap=cap)

    def test_doubled_extension_appends_primed_copies(self):
        doubled = XY.doubled_extension()
        assert doubled.variables == ("x", "y", "x'", "y'")
        assert doubled.doubled
        assert half_ring(doubled) == XY

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from("abuvwxyz"), unique=True, max_size=5),
        st.one_of(st.none(), st.integers(0, 5)),
    )
    def test_mirrors_name_each_variables_primed_copy(self, names, t_at):
        # t anywhere or nowhere: t is its own mirror, every other
        # variable is mirrored by its primed name.
        if t_at is not None:
            names.insert(min(t_at, len(names)), "t")
        assume(names)
        ring = RingContext(names)
        doubled = ring.doubled_extension()
        assert ring.mirrors == () and not ring.doubled and doubled.doubled
        assert len(doubled.mirrors) == len(names)
        for i, v in enumerate(names):
            assert doubled.variables[i] == v
            target = v if v == "t" else primed(v)
            assert doubled.mirrors[i] == doubled.variables.index(target)
        assert doubled.arity == 2 * len(names) - ("t" in names)
        assert doubled != RingContext(doubled.variables)
        with pytest.raises(RingError, match="already doubled"):
            doubled.doubled_extension()

    def test_primed_name(self):
        assert primed("x") == "x'"


class TestMonomialOrder:
    def test_grevlex_breaks_degree_ties_by_reversed_last_variable(self):
        # with x > y: x*y^2 > y^3 under grevlex
        assert poly("x*y^2 - y^3").leading_monomial() == (1, 2)

    def test_grevlex_degree_first(self):
        assert poly("y^3 + x^2").leading_monomial() == (0, 3)

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

    def test_one_zero_per_ring(self):
        # Parses are shared between equal rings, so x's ring may be an
        # equal copy of XY; each ring object keeps its own zero.
        x = poly("x")
        zero = x.ring.zero()
        assert zero is x.ring.zero()
        assert x - x is zero
        assert x * 0 is zero
        assert str(zero) == "0" and zero.terms == ()
        assert DOUBLED.zero() is not zero and DOUBLED.zero().ring is DOUBLED

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
        ["x^2*y - 3*y + 1/2", "-x + y'", "y^3 - 3/2*x*y^2", "0", "t*y - t*y'"],
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

    MALFORMED = [
        "x ++ y",
        "x*",
        "*x",
        "x^",
        "x^-1",
        "x^2/3",
        "x^2^3",
        "1/0",
        "-",
        "   ",
        "x2",
        "0.5*x",
    ]

    def test_malformed_rejected(self):
        for text in self.MALFORMED:
            with pytest.raises(ParseError):
                poly(text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2 3x", "6*x"),
            ("x x", "x^2"),
            ("x ^ 2", "x^2"),
            ("+x", "x"),
            ("2\t*\nx\n^\t2\t-\n y", "2*x^2 - y"),
            ("x'^2y'", "x'^2*y'"),
        ],
    )
    def test_accepted_spellings(self, text, expected):
        assert poly(text, DOUBLED) == poly(expected, DOUBLED)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
        reason="this Python converts digit runs of any length",
    )
    @pytest.mark.parametrize("text", ["{}", "{}*x", "1/{}", "x^{}"])
    def test_digit_run_past_int_limit_rejected(self, text):
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        with pytest.raises(ParseError, match="too long"):
            poly(text.format(digits))

    def test_exponent_past_cap_overflows(self):
        with pytest.raises(ExponentOverflow):
            poly("x^65")
        with pytest.raises(ExponentOverflow):
            poly("x^40 x^40")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 4) for _ in range(DOUBLED.arity))),
                st.fractions(min_value=-9, max_value=9, max_denominator=7),
            ),
            max_size=6,
        )
    )
    def test_printed_text_parses_back(self, terms):
        p = Polynomial(DOUBLED, terms)
        assert str(p) == reference_format_polynomial(p)
        assert parse_polynomial(str(p), DOUBLED) == p

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 4) for _ in range(DOUBLED.arity))),
                st.fractions(min_value=-9, max_value=9, max_denominator=7),
            ),
            max_size=6,
        )
    )
    def test_printed_text_is_made_once(self, terms):
        p = Polynomial(DOUBLED, terms)
        text = str(p)
        assert format_polynomial(p) is text
        assert text == format_polynomial(Polynomial._raw(DOUBLED, p.denominator, p.packed))
        assert parse_polynomial(text, DOUBLED) == p
        # Derived polynomials are new objects with texts of their own.
        assert str(-p) == reference_format_polynomial(-p)

    @pytest.mark.parametrize(
        "ring", [XY.doubled_extension(), unfolding_ring(XY)], ids=["doubled", "unfolding"]
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fresh_equal_polynomials_print_alike(self, ring, data):
        # The second polynomial has no text of its own yet, so its text
        # is made from the monomial texts the first one left on the ring.
        terms = data.draw(
            st.lists(
                st.tuples(
                    st.tuples(*(st.integers(0, 4) for _ in range(ring.arity))),
                    st.fractions(min_value=-9, max_value=9, max_denominator=7),
                ),
                max_size=6,
            )
        )
        first, fresh = Polynomial(ring, terms), Polynomial(ring, terms)
        assert fresh == first and fresh is not first
        assert str(first) == reference_format_polynomial(first)
        assert str(fresh) == reference_format_polynomial(fresh) == str(first)
        assert str(-fresh) == reference_format_polynomial(-fresh)

    def test_decimal_literal_rejected(self):
        with pytest.raises(ParseError):
            poly("0.5*x")

    def test_leading_term_printed_first(self):
        assert str(poly("1 + y^3 + x")) == "y^3 + x + 1"

    def test_integer_coefficients_of_an_arc(self):
        # A product arc may carry plain ints; they print like Fractions.
        assert format_univariate(UnivariatePoly._raw((3, 0, -1, 1))) == "s^3 - s^2 + 3"
        assert format_univariate(UnivariatePoly._raw((-1,))) == "-1"

    def test_arc_far_past_the_cap_prints(self):
        # Printing an arc packs nothing: a degree past what the arc ring's
        # exponent fields hold still prints, however far it goes.
        assert format_univariate(UnivariatePoly.monomial(1, 200)) == "s^200"
        arc = UnivariatePoly((Fraction(-1, 2),) + (0,) * 999 + (3,))
        assert format_univariate(arc) == "3*s^1000 - 1/2"


class TestParseMemo:
    @pytest.mark.parametrize("text", [["x"], {"x": 1}, None, b"x", 2])
    def test_non_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="must be a str"):
            parse_polynomial(text, XY)

    def test_repeated_text_is_parsed_once(self):
        assert parse_polynomial("x*y - 1/2", XY) is parse_polynomial("x*y - 1/2", XY)

    @pytest.mark.parametrize(
        "text, error", [("x ++ y", ParseError), ("q", ParseError), ("x^65", ExponentOverflow)]
    )
    def test_bad_text_raises_on_every_call(self, text, error):
        for _ in range(3):
            with pytest.raises(error):
                parse_polynomial(text, XY)

    def test_same_text_on_two_rings(self):
        capped = RingContext(("x", "y"), exponent_cap=4)
        swapped = RingContext(("y", "x"))
        p, q, r = (parse_polynomial("x^2 + y", ring) for ring in (XY, capped, swapped))
        assert (p.ring, q.ring, r.ring) == (XY, capped, swapped)
        assert p != q and p != r and q != r
        assert p.terms == q.terms != r.terms
        with pytest.raises(ExponentOverflow):
            parse_polynomial("x^5", capped)
        assert parse_polynomial("x^5", XY).degree() == 5

    def test_memo_keeps_at_most_its_bound(self):
        bound = rings._PARSE_MEMO_SIZE
        for n in range(bound + 100):
            parse_polynomial(f"{n + 1}*x", XY)
        assert rings._parse.cache_info().currsize <= bound == rings._parse.cache_info().maxsize


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
