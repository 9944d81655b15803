"""Doubles, diagonal ideals, unfoldings, and the printed generator
displays for the bundled catalog families."""

from fractions import Fraction

import pytest

from liptriv import (
    RingContext,
    normal_form,
    parse_matrix_germ,
    unfolding_double_ideal,
)
from liptriv.doubling import (
    build_unfolding,
    diagonal_collapse,
    diagonal_ideal,
    double_ideal,
    double_of,
    format_matrix_germ,
    merged_parameter_view,
)
from liptriv.rings import RingError, parse_polynomial

XY = RingContext(("x", "y"))
DXY = XY.doubled_extension()


def poly(text, ring=XY):
    return parse_polynomial(text, ring)


class TestDoubleOf:
    def test_monomial(self):
        assert double_of(poly("x*y^2")) == parse_polynomial(
            "x*y^2 - x'*y'^2", DXY
        )

    def test_constants_cancel(self):
        assert double_of(poly("7")).is_zero

    def test_sum_carries_through(self):
        p, q = poly("x^2"), poly("y - 3")
        assert double_of(p + q) == double_of(p) + double_of(q)

    def test_double_vanishes_on_diagonal(self):
        d = double_of(poly("x^3*y - 2*x + y^2"))
        assert diagonal_collapse(d).is_zero

    def test_already_doubled_rejected(self):
        with pytest.raises(RingError):
            double_of(parse_polynomial("x - x'", DXY))


class TestDiagonalIdeal:
    def test_generators_are_variable_differences(self):
        ideal = diagonal_ideal(DXY)
        assert {str(g) for g in ideal.generators} == {"x - x'", "y - y'"}

    def test_generators_already_reduced_basis(self):
        # pairwise coprime leading monomials: Buchberger adds nothing
        ideal = diagonal_ideal(DXY)
        basis = ideal.groebner_basis()
        assert {str(p) for p in basis} == {
            str(g) for g in ideal.generators
        }

    def test_every_double_is_a_member(self):
        from liptriv.groebner import membership_certificate

        ideal = diagonal_ideal(DXY)
        assert membership_certificate(double_of(poly("x^2*y + y^3 - 4*x")), ideal) is not None

    def test_non_diagonal_generator_rejected(self):
        with pytest.raises(RingError):
            double_ideal([poly("x"), poly("y")]).__class__(
                DXY, [parse_polynomial("x + x'", DXY)]
            )


class TestUnfolding:
    def test_total_is_base_plus_t_direction(self):
        base = parse_matrix_germ("sym: y^2, x ; x, y^3", XY)
        direction = parse_matrix_germ("sym: y, 0 ; 0, 0", XY)
        u = build_unfolding(base, direction)
        assert u.parameter == "t"
        assert u.extended_ring.variables == ("t", "x", "y")
        assert format_matrix_germ(u.total) == "sym: t*y + y^2, x ; x, y^3"

    def test_parameter_collision_rejected(self):
        ring = RingContext(("t", "x"))
        g = parse_matrix_germ("sym: t, x ; x, t", ring)
        with pytest.raises(RingError):
            build_unfolding(g, g)

    def test_shape_mismatch_rejected(self):
        base = parse_matrix_germ("sym: y^2, x ; x, y^3", XY)
        with pytest.raises(RingError):
            build_unfolding(base, parse_matrix_germ("x ; y", XY))

    def test_difference_ideal_contains_parameter_double(self):
        base = parse_matrix_germ("sym: y^2, x ; x, y^2", XY)
        direction = parse_matrix_germ("sym: y, 0 ; 0, 0", XY)
        ideal = unfolding_double_ideal(build_unfolding(base, direction))
        assert ideal.ring.variables == ("t", "x", "y", "t'", "x'", "y'")
        assert "t - t'" in {str(g) for g in ideal.generators}


def merged_strings(nf, coeffs):
    u = build_unfolding(nf.matrix, nf.theta(coeffs))
    view = merged_parameter_view(unfolding_double_ideal(u), u.parameter)
    return {str(g) for g in view}


def theta_double_strings(nf, coeffs):
    u = build_unfolding(nf.matrix, nf.theta(coeffs))
    theta = u.total.derivative(u.parameter)
    components = [c for c in theta.component_list() if not c.is_zero]
    ideal = double_ideal(components)
    return {str(g) for g in ideal.generators}


def expect(ring, *texts):
    return {str(parse_polynomial(t, ring)) for t in texts}


class TestCatalogGeneratorDisplays:
    """The printed generating sets for each family's difference ideals,
    instantiated at distinct prime coefficients so a misplaced factor
    cannot cancel."""

    def setup_method(self):
        self.ring = RingContext(("t", "x", "y")).doubled_extension()

    def test_family_1_family_ideal(self):
        nf = normal_form(1, k=3, l=4)
        coeffs = {"a0": 11, "a1": 2, "a2": 3, "b0": 13, "b1": 5, "b2": 7}
        assert merged_strings(nf, coeffs) == expect(
            self.ring,
            "x - x'",
            "y^3 - y'^3 + 2*t*y - 2*t*y' + 3*t*y^2 - 3*t*y'^2",
            "y^4 - y'^4 + 5*t*y - 5*t*y' + 7*t*y^2 - 7*t*y'^2",
        )

    def test_family_1_direction_ideal(self):
        nf = normal_form(1, k=3, l=4)
        coeffs = {"a0": 11, "a1": 2, "a2": 3, "b0": 13, "b1": 5, "b2": 7}
        assert theta_double_strings(nf, coeffs) == expect(
            self.ring,
            "2*y - 2*y' + 3*y^2 - 3*y'^2",
            "5*y - 5*y' + 7*y^2 - 7*y'^2",
        )

    def test_family_2_family_ideal(self):
        nf = normal_form(2, k=4)
        coeffs = {"a": 11, "b": 13, "c": 2, "d0": 17, "d1": 3, "d2": 5}
        assert merged_strings(nf, coeffs) == expect(
            self.ring,
            "x - x'",
            "2*t*y - 2*t*y'",
            "y^2 - y'^2 + x^4 - x'^4 + 3*t*x - 3*t*x' + 5*t*x^2 - 5*t*x'^2",
        )

    def test_family_2_direction_ideal(self):
        nf = normal_form(2, k=4)
        coeffs = {"a": 11, "b": 13, "c": 2, "d0": 17, "d1": 3, "d2": 5}
        assert theta_double_strings(nf, coeffs) == expect(
            self.ring,
            "2*y - 2*y'",
            "3*x - 3*x' + 5*x^2 - 5*x'^2",
        )

    def test_family_3_family_ideal(self):
        nf = normal_form(3, k=3)
        coeffs = {"a": 11, "a0": 13, "a1": 2, "b0": 17, "b1": 3, "b2": 5}
        assert merged_strings(nf, coeffs) == expect(
            self.ring,
            "x - x' + 2*t*y - 2*t*y'",
            "x*y - x'*y' + y^3 - y'^3 + 3*t*y - 3*t*y' + 5*t*y^2 - 5*t*y'^2",
        )

    def test_family_3_direction_ideal(self):
        nf = normal_form(3, k=3)
        coeffs = {"a": 11, "a0": 13, "a1": 2, "b0": 17, "b1": 3, "b2": 5}
        assert theta_double_strings(nf, coeffs) == expect(
            self.ring,
            "2*y - 2*y'",
            "3*y - 3*y' + 5*y^2 - 5*y'^2",
        )

    def test_family_4_family_ideal(self):
        nf = normal_form(4, k=3)
        coeffs = {
            "a": 11, "a1": 2, "a2": 3, "b": 13, "b0": 17, "b1": 5, "b2": 7,
        }
        assert merged_strings(nf, coeffs) == expect(
            self.ring,
            "x - x' + 2*t*y - 2*t*y' + 3*t*y^2 - 3*t*y'^2",
            "y^3 - y'^3",
            "x*y - x'*y' + 5*t*x - 5*t*x' + 7*t*x^2 - 7*t*x'^2",
        )

    def test_family_4_direction_ideal(self):
        nf = normal_form(4, k=3)
        coeffs = {
            "a": 11, "a1": 2, "a2": 3, "b": 13, "b0": 17, "b1": 5, "b2": 7,
        }
        assert theta_double_strings(nf, coeffs) == expect(
            self.ring,
            "2*y - 2*y' + 3*y^2 - 3*y'^2",
            "5*x - 5*x' + 7*x^2 - 7*x'^2",
        )

    def test_family_5_family_ideal(self):
        nf = normal_form(5)
        coeffs = {"a1": 11, "a2": 13, "a3": 2, "a4": 3, "a5": 5, "a6": 7}
        assert merged_strings(nf, coeffs) == expect(
            self.ring,
            "y^2 - y'^2",
            "x - x' + 2*t*y - 2*t*y' + 3*t*y^2 - 3*t*y'^2",
            "x^2 - x'^2 + 5*t*y - 5*t*y' + 7*t*y^2 - 7*t*y'^2",
        )

    def test_family_5_direction_ideal(self):
        nf = normal_form(5)
        coeffs = {"a1": 11, "a2": 13, "a3": 2, "a4": 3, "a5": 5, "a6": 7}
        assert theta_double_strings(nf, coeffs) == expect(
            self.ring,
            "2*y - 2*y' + 3*y^2 - 3*y'^2",
            "5*y - 5*y' + 7*y^2 - 7*y'^2",
        )

    def test_family_6_family_ideal(self):
        nf = normal_form(6)
        coeffs = {
            "a1": 11, "a2": 13, "a3": 17, "a4": 2, "a5": 3, "a6": 5, "a7": 7,
        }
        assert merged_strings(nf, coeffs) == expect(
            self.ring,
            "x - x' + 3*t*y - 3*t*y'",
            "5*t*y - 5*t*y' + 7*t*y^2 - 7*t*y'^2",
            "x^2 - x'^2 + y^3 - y'^3 + 2*t*y - 2*t*y'",
        )

    def test_family_6_direction_ideal(self):
        nf = normal_form(6)
        coeffs = {
            "a1": 11, "a2": 13, "a3": 17, "a4": 2, "a5": 3, "a6": 5, "a7": 7,
        }
        assert theta_double_strings(nf, coeffs) == expect(
            self.ring,
            "3*y - 3*y'",
            "5*y - 5*y' + 7*y^2 - 7*y'^2",
            "2*y - 2*y'",
        )

    def test_merged_view_is_display_only(self):
        # the working ideal keeps both parameter copies distinct
        nf = normal_form(5)
        u = build_unfolding(nf.matrix, nf.theta({"a3": 1}))
        ideal = unfolding_double_ideal(u)
        assert "t - t'" in {str(g) for g in ideal.generators}
        merged = merged_parameter_view(ideal, "t")
        assert "t - t'" not in {str(g) for g in merged}
