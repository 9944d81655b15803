"""Doubles, diagonal ideals, unfoldings, and the printed generator
displays for the bundled catalog families."""

import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liptriv
from liptriv import (
    RingContext,
    normal_form,
    normal_space_basis,
    parse_matrix_germ,
    unfolding_double_ideal,
)
from liptriv.analyzer import _cell_directions
from liptriv.catalog import catalog_parameters
from liptriv.curves import _profiles
from liptriv.doubling import (
    MatrixGerm,
    build_unfolding,
    component_positions,
    diagonal_ideal,
    direction_double_ideal,
    double_of,
    format_matrix_germ,
    unfolding_ring,
)
from liptriv.groebner import membership_certificate
from liptriv.rings import Polynomial, RingError, parse_polynomial, primed
from liptriv.tangent import tangent_generators
from tests.oracles import (
    diagonal_collapse,
    difference_ideal,
    full_double_ideal,
    half_ring,
    matrix_route,
)
from tests.test_golden_normal import grid as normal_grid
from tests.test_trusted_construction import polys

XY = RingContext(("x", "y"))
DXY = XY.doubled_extension()
UXY = unfolding_ring(XY)


def poly(text, ring=XY):
    return parse_polynomial(text, ring)


class TestDoubleOf:
    def test_monomial(self):
        assert double_of(poly("x*y^2")) == parse_polynomial(
            "x*y^2 - x'*y'^2", UXY
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

    def test_ring_holding_the_parameter_rejected(self):
        # t is shared by both points, so a source ring cannot hold it
        with pytest.raises(RingError):
            double_of(parse_polynomial("t*x", RingContext(("t", "x"))))


def test_only_double_of_moves_packed_exponents():
    # Each term is moved beside its mirror with the opposite sign in one
    # place, which is what makes every double vanish on the diagonal by
    # construction: no other code of the package reads _Packing.moved.
    readers = set()
    for path in sorted(pathlib.Path(liptriv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk is breadth first, so a nested function labels last
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        readers.update(
            (path.stem, owner.get(id(n)))
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "moved"
        )
    assert readers == {("doubling", "double_of")}


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

        ideal = diagonal_ideal(UXY)
        assert membership_certificate(double_of(poly("x^2*y + y^3 - 4*x")), ideal) is not None


# Every generator of the family and direction ideals vanishes on the
# diagonal because double_of builds each of them; nothing checks it at
# run time, so the tests check it against the oracle: the doubles of
# components on x, y, and both ideals of an unfolding of a 1 x n germ.


def component_doubles(base, direction):
    return list(map(double_of, base))


def unfolding_generators(base, direction):
    shape = (1, len(base))
    u = build_unfolding(MatrixGerm(shape, base), MatrixGerm(shape, direction))
    ideals = [unfolding_double_ideal(u), direction_double_ideal(u)]
    return [g for ideal in ideals if ideal is not None for g in ideal.generators]


@pytest.mark.parametrize(
    "generators",
    [component_doubles, unfolding_generators],
    ids=["xy", "unfolding"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_difference_ideal_vanishes_on_diagonal(generators, data):
    components = st.lists(polys(XY, max_exp=3), min_size=1, max_size=4)
    base = data.draw(components)
    direction = data.draw(st.lists(polys(XY, max_exp=3), min_size=len(base), max_size=len(base)))
    for g in generators(base, direction):
        assert g.ring is UXY
        assert diagonal_collapse(g).is_zero


@pytest.mark.parametrize("ring", [DXY, UXY], ids=["xy", "unfolding"])
def test_diagonal_ideal_generators_are_variable_differences(ring):
    ideal = diagonal_ideal(ring)
    assert ideal.ring == ring
    # the shared parameter t has no mirror and no difference
    expected = tuple(
        ring.variable(v) - ring.variable(primed(v))
        for v in half_ring(ring).variables
        if v != "t"
    )
    assert ideal.generators == expected
    for g in ideal.generators:
        assert diagonal_collapse(g).is_zero


class TestPrimedNames:
    """Primed source names: doubling refuses a variable's taken mirror by
    name; t' is an ordinary variable, since t gets no mirror."""

    def test_primed_parameter_name_is_an_ordinary_variable(self):
        # Doubling gives t no mirror, so a source t' collides with nothing.
        ring = RingContext(("x", "t'"))
        g = parse_matrix_germ("gen: x, t'", ring)
        ideal = unfolding_double_ideal(build_unfolding(g, g))
        assert ideal.ring.variables == ("t", "x", "t'", "x'", "t''")
        assert [str(h) for h in ideal.generators] == [
            "t*x - t*x' + x - x'",
            "t*t' - t*t'' + t' - t''",
        ]

    def test_doubling_names_the_taken_mirror(self):
        with pytest.raises(RingError, match="mirror \"x'\" of 'x'"):
            RingContext(("x", "x'")).doubled_extension()

    def test_tie_needs_a_doubled_ring(self):
        # The pair shares t: on a doubled ring t is its own mirror.  A
        # ring named like a doubled one holds no map, and has no diagonal.
        ring = RingContext(("t", "x", "t'"))
        assert ring.mirrors == () and not ring.doubled
        with pytest.raises(RingError, match="doubled ring"):
            diagonal_ideal(ring)
        assert RingContext(("t", "x")).doubled_extension().mirrors == (0, 2)

    @pytest.mark.parametrize("names", [("x", "y"), ("t", "x", "y", "x'")])
    def test_no_ring_contradicts_its_mirror_map(self, names):
        # Only doubled_extension sets the map: a ring cannot be declared
        # doubled, so none pairs x with y or leaves a variable unmirrored.
        with pytest.raises(TypeError):
            RingContext(names, doubled=True)
        ring = RingContext(names)
        assert ring.mirrors == () and not ring.doubled
        with pytest.raises(RingError, match="doubled ring"):
            diagonal_ideal(ring)
        assert len(list(_profiles(ring, 1))) == 1


class TestGermValidation:
    @pytest.mark.parametrize(
        "text",
        [
            "sym: x, y ; x, y",  # does not mirror
            "sym: x, y",  # not square
            "gen: x, y ; x",  # ragged rows
        ],
    )
    def test_parser_rejects_malformed_rows(self, text):
        with pytest.raises(RingError):
            parse_matrix_germ(text, XY)

    def test_sum_of_symmetric_and_general_rejected(self):
        sym = parse_matrix_germ("sym: x, y ; y, x", XY)
        gen = parse_matrix_germ("gen: x, y ; y, x", XY)
        with pytest.raises(RingError):
            sym + gen

    def test_sum_of_different_shapes_rejected(self):
        with pytest.raises(RingError):
            parse_matrix_germ("gen: x, y", XY) + parse_matrix_germ("gen: x ; y", XY)

    @pytest.mark.parametrize(
        "shape,components,symmetric",
        [
            ((2, 2), (poly("x"), poly("y")), True),  # wrong count: needs 3
            ((1, 2), (poly("x"), parse_polynomial("u", RingContext(("u",)))), False),
            ((0, 0), (), False),  # no components
            ((1, 2), (poly("x"), poly("y")), True),  # not square
            ((1, 2), (1, poly("x")), False),  # not a polynomial
        ],
        ids=["count", "two rings", "empty", "not square", "not a polynomial"],
    )
    def test_constructor_rejects_malformed_components(
        self, shape, components, symmetric
    ):
        with pytest.raises(RingError):
            MatrixGerm(shape, components, symmetric)

    def test_symmetric_germ_mirrors_its_upper_triangle(self):
        germ = MatrixGerm((2, 2), (poly("x"), poly("y^2"), poly("x*y")), True)
        assert germ == parse_matrix_germ("sym: x, y^2 ; y^2, x*y", XY)
        assert germ.entries[1][0] == poly("y^2")


class TestUnfolding:
    def test_total_is_base_plus_t_direction(self):
        base = parse_matrix_germ("sym: y^2, x ; x, y^3", XY)
        direction = parse_matrix_germ("sym: y, 0 ; 0, 0", XY)
        u = build_unfolding(base, direction)
        assert UXY.variables == ("t", "x", "y", "x'", "y'")
        family = matrix_route(base, direction)
        assert [str(c) for c in family.components] == ["t*y + y^2", "x", "y^3"]
        ideal = unfolding_double_ideal(u)
        assert ideal.ring is UXY
        assert ideal.generators == difference_ideal(family.components).generators

    def test_parameter_collision_rejected(self):
        ring = RingContext(("t", "x"))
        g = parse_matrix_germ("sym: t, x ; x, t", ring)
        with pytest.raises(RingError):
            build_unfolding(g, g)

    def test_shape_mismatch_rejected(self):
        base = parse_matrix_germ("sym: y^2, x ; x, y^3", XY)
        with pytest.raises(RingError):
            build_unfolding(base, parse_matrix_germ("x ; y", XY))

    def test_difference_ideal_shares_the_parameter(self):
        base = parse_matrix_germ("sym: y^2, x ; x, y^2", XY)
        direction = parse_matrix_germ("sym: y, 0 ; 0, 0", XY)
        ideal = unfolding_double_ideal(build_unfolding(base, direction))
        assert ideal.ring.variables == ("t", "x", "y", "x'", "y'")
        assert [str(g) for g in ideal.generators] == [
            "t*y + y^2 - t*y' - y'^2",
            "x - x'",
            "y^2 - y'^2",
        ]

    def test_each_component_is_doubled_once_per_germ(self, monkeypatch):
        # Two directions against one germ: the germ's three components
        # and each direction's three are doubled once, though the family
        # and direction ideals both read every direction double.
        from liptriv import doubling

        doubled = []
        double = doubling.double_of
        monkeypatch.setattr(doubling, "double_of", lambda p: doubled.append(p) or double(p))
        base = parse_matrix_germ("sym: y^2, x ; x, y^3", XY)
        for text in ("sym: y, 0 ; 0, x", "sym: 0, y ; y, 1"):
            assert_matches_matrix_route(base, parse_matrix_germ(text, XY))
        assert len(doubled) == 9


# No family component is formed: the family ideal is D(b) + t*D(d) per
# component, and the direction ideal D(d) per nonzero component, each
# double built straight from the source ring.  Both must agree with the
# difference ideals of the matrix route: lift both germs, add t times
# the direction, and differentiate the sum by t.


def assert_matches_matrix_route(base, direction):
    u = build_unfolding(base, direction)
    total = matrix_route(base, direction)
    family = unfolding_double_ideal(u)
    expected = difference_ideal(total.components)
    assert family.ring == expected.ring
    assert family.generators == expected.generators
    theta = [c for c in total.derivative("t").components if not c.is_zero]
    got = direction_double_ideal(u)
    if not theta:
        assert got is None
    else:
        assert got is not None
        assert got.ring == expected.ring
        assert got.generators == difference_ideal(theta).generators


def test_components_match_matrix_route_on_table_grid():
    # Every cell of the 4x4 table: unit, random and zero directions.
    cells = 0
    for index, k, l in catalog_parameters(4, 4):
        nf = normal_form(index, k=k, l=l)
        for _, coeffs in _cell_directions(nf):
            assert_matches_matrix_route(nf.matrix, nf.theta(coeffs))
            cells += 1
    assert cells == 167


def test_components_match_matrix_route_on_3x3_basis():
    germ = parse_matrix_germ(
        "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", RingContext(("x", "y", "z"))
    )
    basis = normal_space_basis(germ).basis
    assert len(basis) == 12
    for direction in basis:
        assert_matches_matrix_route(germ, direction)


def test_components_match_matrix_route_on_general_germ():
    # Non-square, with a constant direction entry (its double is zero)
    # and zero entries on both sides.
    base = parse_matrix_germ("gen: x, y^2, x*y ; y, x^2, 0", XY)
    direction = parse_matrix_germ("gen: y, 0, 3 ; x*y, 0, x^2 - y", XY)
    assert_matches_matrix_route(base, direction)
    assert_matches_matrix_route(base, base.map_entries(lambda e: XY.zero()))


# Random germs: general and symmetric shapes, zero and constant entries,
# base and direction coefficients over different denominators (powers of
# 2 against powers of 3), and, on the cap-2 ring, exponents up to the cap.

CAPPED = RingContext(("x", "y", "z"), exponent_cap=2)


def entries(ring, max_exp, denominators):
    coefficient = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(denominators))
    exps = st.tuples(*(st.integers(0, max_exp) for _ in ring.variables))
    return st.one_of(
        st.just(ring.zero()),
        coefficient.map(ring.constant),
        st.lists(st.tuples(exps, coefficient), max_size=4).map(
            lambda terms: Polynomial(ring, terms)
        ),
    )


@pytest.mark.parametrize(
    "ring,max_exp", [(XY, 3), (CAPPED, CAPPED.exponent_cap)], ids=["xy", "cap-2"]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_components_match_matrix_route_on_random_germs(ring, max_exp, data):
    symmetric = data.draw(st.booleans(), label="symmetric")
    rows = data.draw(st.integers(1, 3), label="rows")
    shape = (rows, rows if symmetric else data.draw(st.integers(1, 3), label="columns"))
    size = len(component_positions(shape, symmetric))

    def germ(denominators):
        cells = entries(ring, max_exp, denominators)
        components = data.draw(st.lists(cells, min_size=size, max_size=size))
        return MatrixGerm(shape, components, symmetric)

    assert_matches_matrix_route(germ((1, 2, 4)), germ((3, 9)))


# Both points of a pair share the parameter.  The old formulation gave
# it a mirror t' and carried t - t' in every family ideal; mapping t' to
# t carries each membership to an equivalent one without t'.  Both must
# answer every membership the analyzer asks alike.


def assert_memberships_match_full_doubling(base, direction):
    u = build_unfolding(base, direction)
    total = unfolding_double_ideal(u)
    full = full_double_ideal(u)
    asked = direction_double_ideal(u).generators + diagonal_ideal(total.ring).generators
    for g in asked:
        shared = membership_certificate(g, total) is not None
        # the full ring holds every variable of g, so g reads as text there
        g_full = parse_polynomial(str(g), full.ring)
        assert shared == (membership_certificate(g_full, full) is not None)


def test_memberships_match_full_doubling_on_table_grid():
    cells = 0
    for index, k, l in catalog_parameters(4, 4):
        nf = normal_form(index, k=k, l=l)
        for _, coeffs in _cell_directions(nf):
            direction = nf.theta(coeffs)
            if not direction.is_constant:
                assert_memberships_match_full_doubling(nf.matrix, direction)
                cells += 1
    assert cells == 86


def test_memberships_match_full_doubling_on_3x3_basis():
    germ = parse_matrix_germ(
        "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", RingContext(("x", "y", "z"))
    )
    basis = normal_space_basis(germ).basis
    assert len(basis) == 12
    for direction in basis:
        assert_memberships_match_full_doubling(germ, direction)


def assert_round_trips(germ):
    """The parser, which checks that symmetric rows mirror, reads the
    germ's printed rows back as the same germ."""
    assert parse_matrix_germ(format_matrix_germ(germ), germ.ring) == germ


def test_catalog_directions_are_symmetric_by_construction():
    for index, k, l in catalog_parameters(4, 4):
        nf = normal_form(index, k=k, l=l)
        for _, coeffs in _cell_directions(nf):
            assert_round_trips(nf.theta(coeffs))


def test_tangent_germs_are_symmetric_by_construction():
    germs = [matrix for _, matrix in normal_grid()]
    germs.append(parse_matrix_germ("gen: x, y^2, x*y ; y, x^2, 0", XY))
    for F in germs:
        for g in tangent_generators(F):
            assert_round_trips(g)
        for g in normal_space_basis(F).basis:
            assert_round_trips(g)


def family_double_strings(nf, coeffs):
    u = build_unfolding(nf.matrix, nf.theta(coeffs))
    return {str(g) for g in unfolding_double_ideal(u).generators}


def theta_double_strings(nf, coeffs):
    u = build_unfolding(nf.matrix, nf.theta(coeffs))
    return {str(g) for g in direction_double_ideal(u).generators}


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
        assert family_double_strings(nf, coeffs) == expect(
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
        assert family_double_strings(nf, coeffs) == expect(
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
        assert family_double_strings(nf, coeffs) == expect(
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
        assert family_double_strings(nf, coeffs) == expect(
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
        assert family_double_strings(nf, coeffs) == expect(
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
        assert family_double_strings(nf, coeffs) == expect(
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
