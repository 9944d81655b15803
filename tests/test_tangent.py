"""Tangent modules, normal space bases, and span ranks in the quotient."""

import random
from fractions import Fraction

import pytest

from liptriv import (
    RingContext,
    normal_form,
    normal_space_basis,
    parse_matrix_germ,
)
from liptriv.rings import RingError
from liptriv.tangent import (
    entries_cut_reduced_origin,
    quotient_image_rank,
    tangent_generators,
)

XY = RingContext(("x", "y"))


def germ(text, ring=XY):
    return parse_matrix_germ(text, ring)


def basis_label_set(index, **params):
    nf = normal_form(index, **params)
    return normal_space_basis(nf.matrix), nf


class TestTangentGenerators:
    def test_partials_come_first(self):
        F = germ("sym: y^2, x ; x, y^3")
        gens = tangent_generators(F)
        assert str(gens[0]) == "sym: 0, 1 ; 1, 0"  # d/dx
        assert str(gens[1]) == "sym: 2*y, 0 ; 0, 3*y^2"  # d/dy

    def test_congruence_action_count(self):
        # 2 partials + n^2 congruence directions
        F = germ("sym: y^2, x ; x, y^3")
        assert len(tangent_generators(F)) == 2 + 4

    def test_congruence_preserves_symmetry(self):
        F = germ("sym: y^2, x ; x, y^3")
        for g in tangent_generators(F):
            assert g.symmetric


class TestTwoSidedAction:
    """General (``gen:``) germs get the two-sided action ``A F B``."""

    def test_generator_count(self):
        # 2 partials + n^2 left + m^2 right elementary directions
        F = germ("gen: x, y^2 ; y, x")
        assert len(tangent_generators(F)) == 2 + 4 + 4

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_one_by_one_power(self, k):
        result = normal_space_basis(germ(f"gen: x^{k}", RingContext(("x",))))
        assert result.codimension == k - 1
        expected = ["E(1,1)"] + [
            f"{'x' if i == 1 else f'x^{i}'}*E(1,1)" for i in range(1, k - 1)
        ]
        assert list(result.basis_labels) == expected
        assert result.stable is True

    @pytest.mark.parametrize(
        "text,labels",
        [
            ("gen: x^2 + y^3", ("E(1,1)", "y*E(1,1)")),
            ("gen: x, y^2 ; y, x", ("E(1,1)", "E(1,2)", "E(2,1)")),
        ],
    )
    def test_labels(self, text, labels):
        result = normal_space_basis(germ(text))
        assert result.basis_labels == labels
        assert result.stable is True


class TestNormalSpaceBasis:
    def test_row1_small_case_labels(self):
        result, _ = basis_label_set(1, k=2, l=3)
        assert result.codimension == 4
        assert set(result.basis_labels) == {
            "E(1,1)", "E(2,2)", "y*E(1,1)", "y*E(2,2)"
        }
        assert result.stable

    def test_basis_elements_match_labels(self):
        result, _ = basis_label_set(1, k=2, l=3)
        by_label = dict(zip(result.basis_labels, result.basis))
        assert str(by_label["y*E(1,1)"]) == "sym: y, 0 ; 0, 0"
        assert str(by_label["E(2,2)"]) == "sym: 0, 0 ; 0, 1"

    def test_e6_dimension(self):
        result, _ = basis_label_set(5)
        assert result.codimension == 6

    def test_e7_dimension(self):
        result, _ = basis_label_set(6)
        assert result.codimension == 7

    def test_jet_degree_saturates(self):
        nf = normal_form(2, k=2)
        small = normal_space_basis(nf.matrix, jet_degree=6)
        large = normal_space_basis(nf.matrix, jet_degree=9)
        assert small.basis_labels == large.basis_labels

    def test_infinite_codimension_reported_unstable(self):
        zero_germ = germ("sym: 0, 0 ; 0, 0")
        result = normal_space_basis(zero_germ, jet_degree=3)
        assert result.stable is False


class TestEntriesCutReducedOrigin:
    def test_row1_linear_case(self):
        # entries y, x generate the maximal ideal
        nf = normal_form(1, k=1, l=3)
        assert entries_cut_reduced_origin(nf.matrix)

    def test_row1_quadratic_case(self):
        nf = normal_form(1, k=2, l=3)
        assert not entries_cut_reduced_origin(nf.matrix)

    def test_three_by_three_linear_entries(self):
        ring = RingContext(("x", "y", "z"))
        F = parse_matrix_germ(
            "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", ring
        )
        assert entries_cut_reduced_origin(F)


class TestQuotientImageRank:
    def test_full_basis_has_full_rank(self):
        nf = normal_form(3, k=3)
        result = normal_space_basis(nf.matrix)
        rank = quotient_image_rank(nf.matrix, result.basis)
        assert rank == result.codimension == 6

    def test_dependent_set_drops_rank(self):
        # d/dx of the family-3 germ is E(1,1) + y*E(2,2), so that pair of
        # classes is linearly dependent in the quotient
        nf = normal_form(3, k=3)
        germs = [
            germ("sym: 1, 0 ; 0, 0"),
            germ("sym: 0, 0 ; 0, y"),
        ]
        assert quotient_image_rank(nf.matrix, germs) == 1

    def test_zero_class_contributes_nothing(self):
        nf = normal_form(3, k=3)
        partial = nf.matrix.derivative("x")
        assert quotient_image_rank(nf.matrix, [partial]) == 0

    @pytest.mark.parametrize(
        "F",
        [
            normal_form(6).matrix,
            normal_form(1, k=3, l=2).matrix,
            parse_matrix_germ(
                "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", RingContext(("x", "y", "z"))
            ),
        ],
        ids=["family 6", "family 1", "3x3"],
    )
    def test_tangent_combinations_have_zero_class(self, F):
        # Built through Polynomial arithmetic, independently of the jet
        # rows: monomial multiples of tangent generators must reduce to
        # zero against the elimination's pivot rows, and adding them to a
        # normal-space representative must not change its class.
        ring = F.ring
        gens = tangent_generators(F)
        rng = random.Random(1)
        zero = F.map_entries(lambda e: ring.zero())
        basis = normal_space_basis(F).basis
        for _ in range(6):
            combo = zero
            for g in gens:
                exps = [rng.randint(0, 2) for _ in ring.variables]
                weight = ring.monomial(exps, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                combo = combo + g.map_entries(lambda e: e * weight)
            assert quotient_image_rank(F, [combo]) == 0
            rep = rng.choice(basis)
            assert quotient_image_rank(F, [rep + combo]) == 1

    def test_ring_mismatch_rejected(self):
        nf = normal_form(3, k=3)
        other = RingContext(("u", "v"))
        with pytest.raises(RingError):
            quotient_image_rank(
                nf.matrix, [parse_matrix_germ("sym: u, 0 ; 0, 0", other)]
            )
