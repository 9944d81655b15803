"""Tangent modules, normal space bases, and span ranks in the quotient."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import (
    RingContext,
    normal_form,
    normal_space_basis,
    parse_matrix_germ,
)
from liptriv.rings import RingError
from liptriv.tangent import (
    _insert_row,
    _integer_row,
    entries_cut_reduced_origin,
    quotient_image_rank,
    tangent_generators,
)
from tests.oracles import reference_insert_row, reference_normal_space
from tests.test_golden_normal import grid as golden_grid

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


def elementary(size, a, b):
    """The ``size`` x ``size`` matrix unit E(a,b), as rows of polynomials."""
    return [
        [XY.one() if (i, j) == (a, b) else XY.zero() for j in range(size)]
        for i in range(size)
    ]


def product(A, B):
    """Plain matrix product of two lists of polynomial rows."""
    inner, width = range(len(B)), range(len(B[0]))
    return [
        [sum((A[i][r] * B[r][j] for r in inner), XY.zero()) for j in width]
        for i in range(len(A))
    ]


def rows(g):
    return [list(row) for row in g.entries]


class TestElementaryActions:
    """Each generator after the partials is an explicit matrix product."""

    def test_rectangular_germ_left_then_right_products(self):
        # 2 x 3: the left units are 2 x 2, the right units 3 x 3
        F = germ("gen: x, y^2, x*y ; y, x, y")
        gens = tangent_generators(F)
        assert len(gens) == 2 + 4 + 9
        left = [product(elementary(2, a, b), rows(F)) for a in range(2) for b in range(2)]
        right = [product(rows(F), elementary(3, a, b)) for a in range(3) for b in range(3)]
        assert [rows(g) for g in gens[2:]] == left + right
        assert not any(g.symmetric for g in gens)

    def test_symmetric_generator_is_left_plus_transposed_right(self):
        F = germ("sym: y^2, x ; x, y^3")
        gens = tangent_generators(F)
        for a in range(2):
            for b in range(2):
                EF = product(elementary(2, a, b), rows(F))
                FEt = product(rows(F), elementary(2, b, a))
                expected = [[p + q for p, q in zip(r, s)] for r, s in zip(EF, FEt)]
                assert rows(gens[2 + 2 * a + b]) == expected


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


def oracle_germs():
    """Criterion 1's grid and the 3x3 germ, then general, rectangular and
    infinite-codimension germs."""
    germs = [matrix for _, matrix in golden_grid()]
    germs += [
        germ(text)
        for text in (
            "gen: x, y^2 ; y, x",
            "gen: x^2 + y^3",
            "gen: x, y^2, x*y ; y, x^2, 0",
            "sym: 0, 0 ; 0, 0",
        )
    ]
    return germs


class TestAgainstTwoEliminations:
    """One elimination a degree higher gives what two eliminations gave,
    at every jet degree up to one past the default, unstable jets too."""

    @pytest.mark.parametrize("F", oracle_germs(), ids=str)
    def test_every_jet_degree(self, F):
        default = normal_space_basis(F).jet_degree
        for degree in range(1, default + 2):
            result = normal_space_basis(F, jet_degree=degree)
            expected = reference_normal_space(F, degree)
            assert result.jet_degree == degree
            assert {key: getattr(result, key) for key in expected} == expected


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


class TestJetDegree:
    """Both entry points share one jet-degree check."""

    F = germ("sym: x, y ; y, x^2")

    @pytest.mark.parametrize("degree", [0, -1])
    def test_quotient_image_rank_rejects(self, degree):
        with pytest.raises(RingError, match="jet degree must be positive"):
            quotient_image_rank(self.F, [germ("sym: 1, 0 ; 0, 0")], jet_degree=degree)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_normal_space_basis_rejects(self, degree):
        with pytest.raises(RingError, match="jet degree must be positive"):
            normal_space_basis(self.F, jet_degree=degree)

    @pytest.mark.parametrize("degree", [True, False, 2.5, 3.0, "3"])
    def test_quotient_image_rank_rejects_non_int(self, degree):
        with pytest.raises(RingError, match="jet degree must be an int"):
            quotient_image_rank(self.F, [germ("sym: 1, 0 ; 0, 0")], jet_degree=degree)

    @pytest.mark.parametrize("degree", [True, False, 2.5, 3.0, "3"])
    def test_normal_space_basis_rejects_non_int(self, degree):
        with pytest.raises(RingError, match="jet degree must be an int"):
            normal_space_basis(self.F, jet_degree=degree)

    def test_smallest_jet_accepted(self):
        result = normal_space_basis(self.F, jet_degree=1)
        assert quotient_image_rank(self.F, result.basis, jet_degree=1) == result.codimension


COLUMNS = 8

rationals = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.integers(1, 6),
)
sparse_rows = st.dictionaries(st.integers(0, COLUMNS - 1), rationals, max_size=COLUMNS)


def combine(weights, rows):
    """``sum(w * row)`` with zero entries dropped."""
    out: dict = {}
    for w, row in zip(weights, rows):
        for c, v in row.items():
            out[c] = out.get(c, 0) + w * v
    return {c: v for c, v in out.items() if v}


@st.composite
def row_streams(draw):
    """Rows to insert in order: fresh rows, and combinations of rows
    already drawn (which lie in the span, and often reduce to zero)."""
    stream = []
    for _ in range(draw(st.integers(1, 12))):
        if stream and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(stream), min_size=1, max_size=3))
            weights = draw(st.lists(rationals, min_size=len(picks), max_size=len(picks)))
            stream.append(combine(weights, picks))
        else:
            stream.append(draw(sparse_rows))
    return stream


class TestIntegerElimination:
    """The fraction-free insertion against the ``Fraction`` reference."""

    @settings(max_examples=400, deadline=None)
    @given(row_streams())
    def test_matches_reference_after_every_insertion(self, stream):
        pivots: dict = {}
        reference: dict = {}
        for row in stream:
            added = _insert_row(pivots, _integer_row(dict(row)))
            assert added == reference_insert_row(reference, dict(row))
            assert pivots.keys() == reference.keys()
        for pivot in pivots.values():
            assert all(type(v) is int for v in pivot.values())

    def test_rows_in_the_span_add_nothing(self):
        rows = [
            {0: Fraction(1, 2), 3: Fraction(-5, 6)},
            {1: Fraction(-3), 3: Fraction(2, 5)},
        ]
        pivots: dict = {}
        assert all(_insert_row(pivots, _integer_row(dict(r))) for r in rows)
        span = combine([Fraction(-4, 3), Fraction(5, 2)], rows)
        assert not _insert_row(pivots, _integer_row(span))
        assert not _insert_row(pivots, _integer_row(dict(rows[0])))
        assert sorted(pivots) == [0, 1]

    def test_pivot_rows_are_primitive(self):
        pivots: dict = {}
        _insert_row(pivots, _integer_row({2: Fraction(-4, 3), 5: Fraction(2, 9)}))
        assert pivots == {2: {2: 6, 5: -1}}


class TestRationalWeights:
    """Directions with non-integer coefficients go through the integer
    rows unchanged in meaning."""

    def test_fractional_combination_of_basis_has_full_rank(self):
        nf = normal_form(3, k=3)
        basis = normal_space_basis(nf.matrix).basis
        weights = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 6), 3, Fraction(-1, 5)]
        assert quotient_image_rank(nf.matrix, [b.scale(w) for b, w in zip(basis, weights)]) == 6
        combo = basis[0].scale(Fraction(1, 2)) + basis[1].scale(Fraction(-2, 3))
        assert quotient_image_rank(nf.matrix, [combo]) == 1
        assert quotient_image_rank(nf.matrix, [combo, combo.scale(Fraction(3, 7))]) == 1

    def test_fractional_tangent_combination_has_zero_class(self):
        F = normal_form(1, k=3, l=2).matrix
        gens = tangent_generators(F)
        combo = gens[0].scale(Fraction(1, 2)) + gens[-1].scale(Fraction(-5, 3))
        assert quotient_image_rank(F, [combo]) == 0
        rep = normal_space_basis(F).basis[0].scale(Fraction(1, 2))
        assert quotient_image_rank(F, [rep + combo]) == 1

    def test_entries_with_fractional_linear_parts(self):
        ring = RingContext(("x", "y", "z"))
        cut = parse_matrix_germ(
            "sym: 1/2x, 2/3y - 1/4z, z ; 2/3y - 1/4z, 3/5z, x^2 ; z, x^2, y^2", ring
        )
        assert entries_cut_reduced_origin(cut)
        # 1/2x + 1/3y and 3/2x + y are proportional: the linear parts
        # span only a plane.
        flat = parse_matrix_germ(
            "sym: 1/2x + 1/3y, z^2 ; z^2, 3/2x + y", ring
        )
        assert not entries_cut_reduced_origin(flat)
