"""Catalog construction, coefficient handling, and verdict rules."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from liptriv import LIPSCHITZ, NOT_LIPSCHITZ, normal_form, random_direction
from liptriv.catalog import (
    CATALOG_INDICES,
    CatalogError,
    catalog_parameters,
    family_parameters,
)
from liptriv.doubling import format_matrix_germ


class TestConstruction:
    def test_indices(self):
        assert CATALOG_INDICES == (1, 2, 3, 4, 5, 6)

    def test_family_parameters(self):
        assert family_parameters(1) == ("k", "l")
        assert family_parameters(2) == ("k",)
        assert family_parameters(5) == ()

    @pytest.mark.parametrize(
        "index,params,text",
        [
            (1, {"k": 2, "l": 3}, "sym: y^2, x ; x, y^3"),
            (2, {"k": 3}, "sym: x, 0 ; 0, x^3 + y^2"),
            (3, {"k": 2}, "sym: x, 0 ; 0, x*y + y^2"),
            (4, {"k": 2}, "sym: x, y^2 ; y^2, x*y"),
            (5, {}, "sym: x, y^2 ; y^2, x^2"),
            (6, {}, "sym: x, 0 ; 0, y^3 + x^2"),
        ],
    )
    def test_matrices(self, index, params, text):
        assert format_matrix_germ(normal_form(index, **params).matrix) == text

    def test_bad_index(self):
        with pytest.raises(CatalogError):
            normal_form(7)

    def test_missing_parameter(self):
        with pytest.raises(CatalogError):
            normal_form(2)

    def test_unexpected_parameter(self):
        with pytest.raises(CatalogError):
            normal_form(5, k=3)

    def test_row1_constraints(self):
        with pytest.raises(CatalogError):
            normal_form(1, k=0, l=2)
        with pytest.raises(CatalogError):
            normal_form(1, k=2, l=1)
        normal_form(1, k=1, l=2)

    def test_rows_2_to_4_need_k_at_least_2(self):
        for index in (2, 3, 4):
            with pytest.raises(CatalogError):
                normal_form(index, k=1)

    def test_range_error_names_every_minimum(self):
        with pytest.raises(CatalogError, match="family 1 needs k >= 1 and l >= 2"):
            normal_form(1, k=1, l=1)
        with pytest.raises(CatalogError, match="family 3 needs k >= 2"):
            normal_form(3, k=0)

    def test_discriminant_labels(self):
        assert normal_form(1, k=2, l=3).discriminant == "A6"
        assert normal_form(2, k=3).discriminant == "D5"
        assert normal_form(3, k=3).discriminant == "D6"
        assert normal_form(4, k=3).discriminant == "D7"
        assert normal_form(5).discriminant == "E6"
        assert normal_form(6).discriminant == "E7"

    def test_family_one_keeps_both_discriminant_conventions(self):
        # the table subscript and the codimension count disagree by 2
        nf = normal_form(1, k=2, l=3)
        assert nf.discriminant == "A6"
        assert nf.alternate_discriminant == "A4"
        assert normal_form(3, k=3).alternate_discriminant is None


class TestTheta:
    def test_named_coefficients_land_in_slots(self):
        nf = normal_form(1, k=2, l=3)
        theta = nf.theta({"a1": Fraction(3, 2), "b0": 1})
        assert format_matrix_germ(theta) == "sym: 3/2*y, 0 ; 0, 1"

    def test_unknown_name_rejected(self):
        nf = normal_form(1, k=2, l=3)
        with pytest.raises(CatalogError):
            nf.theta({"c": 1})

    def test_float_rejected(self):
        nf = normal_form(5)
        with pytest.raises(CatalogError):
            nf.theta({"a3": 0.5})

    @pytest.mark.parametrize("raw", ["1/0", "abc", None, True, False, 1j])
    def test_values_fraction_refuses_are_catalog_errors(self, raw):
        nf = normal_form(5)
        with pytest.raises(CatalogError, match="a3"):
            nf.theta({"a3": raw})
        with pytest.raises(CatalogError, match="a3"):
            nf.expected_verdict({"a3": raw})

    def test_string_fractions_accepted(self):
        nf = normal_form(5)
        theta = nf.theta({"a3": "2/3"})
        assert format_matrix_germ(theta) == "sym: 2/3*y, 0 ; 0, 0"

    def test_zero_theta_is_constant_zero(self):
        nf = normal_form(2, k=2)
        theta = nf.theta({})
        assert theta.is_constant
        assert all(e.is_zero for row in theta.entries for e in row)


class TestVerdictRules:
    def test_row1_equal_parameters_nonconstant_refuted(self):
        nf = normal_form(1, k=2, l=2)
        assert nf.expected_verdict({"a1": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a0": 1}) == LIPSCHITZ

    def test_row1_low_index_refuted_high_index_open(self):
        nf = normal_form(1, k=4, l=2)  # r = 2
        assert nf.expected_verdict({"a1": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a3": 1}) is None  # necessity is one-sided
        assert nf.expected_verdict({"a0": 5}) == LIPSCHITZ

    def test_row2_only_c_matters(self):
        nf = normal_form(2, k=3)
        assert nf.expected_verdict({"c": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a": 1, "b": 2, "d1": 3}) == LIPSCHITZ

    def test_row3_constant_only(self):
        nf = normal_form(3, k=3)
        assert nf.expected_verdict({"a1": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"b2": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a": 1, "a0": 2, "b0": 3}) == LIPSCHITZ

    def test_row4_only_y_direction_matters(self):
        nf = normal_form(4, k=3)
        assert nf.expected_verdict({"a1": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"b1": 1, "b2": 2}) == LIPSCHITZ

    def test_row5_linear_y_terms(self):
        nf = normal_form(5)
        assert nf.expected_verdict({"a3": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a5": 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a4": 1, "a6": 1}) == LIPSCHITZ

    def test_row6_constant_only(self):
        nf = normal_form(6)
        for name in ("a4", "a5", "a6", "a7"):
            assert nf.expected_verdict({name: 1}) == NOT_LIPSCHITZ
        assert nf.expected_verdict({"a1": 1, "a2": 2, "a3": 3}) == LIPSCHITZ


class TestProbeCurves:
    def test_components_cover_doubled_extended_ring(self):
        nf = normal_form(5)
        curve = nf.probe_curve()
        # t, x, y, x', y': both points share the parameter's arc
        assert len(curve.components) == 5


class TestRandomDirection:
    def test_deterministic_for_fixed_seed(self):
        nf = normal_form(4, k=3)
        assert random_direction(nf) == random_direction(nf)
        assert random_direction(nf, seed=1) == random_direction(nf, seed=1)

    def test_never_empty(self):
        for index, params in [
            (1, {"k": 1, "l": 2}),
            (2, {"k": 2}),
            (5, {}),
        ]:
            for seed in range(12):
                nf = normal_form(index, **params)
                values = random_direction(nf, seed=seed)
                assert any(v != 0 for v in values.values())

    def test_coefficients_bounded(self):
        nf = normal_form(6)
        for seed in range(12):
            for v in random_direction(nf, seed=seed).values():
                assert -2 <= v <= 2


class TestGrid:
    def test_order_matches_golden_table(self):
        fixture = Path(__file__).with_name("golden_table.json")
        cells = json.loads(fixture.read_text())["plain"]
        seen = []
        for entry in cells:
            key = (entry["cell"]["family"], entry["cell"]["k"], entry["cell"]["l"])
            if key not in seen:
                seen.append(key)
        assert catalog_parameters(4, 4) == seen

    def test_smallest_grid(self):
        assert catalog_parameters(2, 2) == [
            (1, 1, 2), (1, 2, 2), (2, 2, None), (3, 2, None), (4, 2, None),
            (5, None, None), (6, None, None),
        ]

    @pytest.mark.parametrize(
        "max_k,max_l,family", [(-2, 1, 1), (0, 4, 1), (1, 4, 2), (4, 1, 1)]
    )
    def test_limit_below_a_minimum_rejected(self, max_k, max_l, family):
        with pytest.raises(CatalogError, match=f"family {family} needs"):
            catalog_parameters(max_k, max_l)
