"""Acceptance gate for the whole pipeline.

One test per criterion; ``pytest -v tests/test_acceptance.py`` prints a
single verdict line for each.  Two strict-xfail companions pin the
verbatim classical representative lists for families 3 and 4, which
exact rank computation shows are not spanning sets of the quotient;
the engine's deterministic rule picks independent representatives
there, and the main criterion test certifies both facts.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from liptriv import (
    AnalyzeOptions,
    RingContext,
    analyze,
    normal_form,
    normal_space_basis,
    parse_matrix_germ,
    reproduce_catalog_table,
    unfolding_double_ideal,
    verify_inclusion_certificate,
    verify_witness_dense,
)
from liptriv.curves import pullback_ideal
from liptriv.doubling import build_unfolding, double_of, unfolding_ring
from liptriv.rings import Polynomial, UnivariatePoly
from liptriv.tangent import entries_cut_reduced_origin, quotient_image_rank

from tests.oracles import substitute
from tests.test_oracles import INSTANCES, check_instance

# -- criterion 1: normal space reproduction ---------------------------


def label(var, power, pos):
    if power == 0:
        mono = ""
    elif power == 1:
        mono = f"{var}*"
    else:
        mono = f"{var}^{power}*"
    return f"{mono}E({pos[0]},{pos[1]})"


def reference_labels(index, k=None, l=None):
    """Classical representative lists the catalog coefficients follow."""
    if index == 1:
        return {label("y", i, (1, 1)) for i in range(k)} | {
            label("y", j, (2, 2)) for j in range(l - 1)
        }
    if index == 2:
        return {"E(1,1)", "E(1,2)", "y*E(1,2)"} | {
            label("x", i, (2, 2)) for i in range(k - 1)
        }
    if index == 3:
        return (
            {"E(1,2)"}
            | {label("y", i, (1, 1)) for i in range(k - 1)}
            | {label("y", j, (2, 2)) for j in range(k)}
        )
    if index == 4:
        return (
            {label("y", i, (1, 1)) for i in range(k)}
            | {"E(1,2)"}
            | {label("x", j, (2, 2)) for j in range(k)}
        )
    if index == 5:
        return {"E(1,1)", "E(2,2)", "E(1,2)", "y*E(1,1)", "y*E(2,2)", "y^2*E(2,2)"}
    return {
        "E(1,1)", "E(2,2)", "E(1,2)",
        "y*E(1,1)", "y*E(1,2)", "y*E(2,2)", "y^2*E(1,2)",
    }


def engine_labels(index, k=None, l=None):
    """Representatives the deterministic column rule actually selects."""
    if index == 3:
        return (
            {label("y", i, (1, 1)) for i in range(k - 1)}
            | {"E(2,2)"}
            | {label("y", j, (1, 2)) for j in range(k)}
        )
    if index == 4:
        return (
            {label("y", i, (1, 1)) for i in range(k)}
            | {"E(2,2)", "x*E(2,2)"}
            | {label("y", j, (1, 2)) for j in range(k - 1)}
        )
    return reference_labels(index, k, l)


def germ_from_label(text, ring):
    mono, _, pos = text.rpartition("E")
    mono = mono.rstrip("*") or "1"
    i, j = (int(c) for c in pos.strip("()").split(","))
    rows = [["0", "0"], ["0", "0"]]
    rows[i - 1][j - 1] = mono
    rows[j - 1][i - 1] = mono
    body = "sym: " + " ; ".join(", ".join(r) for r in rows)
    return parse_matrix_germ(body, ring)


def dimension_rule(index, k=None, l=None):
    return {
        1: lambda: k + l - 1,
        2: lambda: k + 2,
        3: lambda: 2 * k,
        4: lambda: 2 * k + 1,
        5: lambda: 6,
        6: lambda: 7,
    }[index]()


def grid_cells():
    for k in range(1, 6):
        for l in range(2, 6):
            yield 1, {"k": k, "l": l}
    for index in (2, 3, 4):
        for k in range(2, 6):
            yield index, {"k": k}
    yield 5, {}
    yield 6, {}


def test_criterion_1_normal_space_reproduction():
    defect_cells = 0
    for index, params in grid_cells():
        nf = normal_form(index, **params)
        start = time.monotonic()
        result = normal_space_basis(nf.matrix)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, (index, params, elapsed)
        assert result.stable, (index, params)

        expected_dim = dimension_rule(index, **params)
        assert result.codimension == expected_dim, (index, params)

        computed = set(result.basis_labels)
        assert computed == engine_labels(index, **params), (index, params)

        reference = reference_labels(index, **params)
        assert len(reference) == expected_dim, (index, params)
        if computed == reference:
            continue

        # divergent cell: the computed set must still be a basis while
        # the classical list must provably fail to span the quotient
        defect_cells += 1
        assert index in (3, 4), (index, params)
        ring = nf.matrix.ring
        reference_germs = [germ_from_label(t, ring) for t in sorted(reference)]
        short = quotient_image_rank(nf.matrix, reference_germs)
        full = quotient_image_rank(nf.matrix, list(result.basis))
        assert full == expected_dim, (index, params, full)
        assert short < expected_dim, (index, params, short)
    assert defect_cells == 7
    print("criterion 1: PASS - normal spaces reproduced across the grid "
          "(7 divergent cells carry rank certificates)")


@pytest.mark.xfail(
    strict=True,
    reason="the classical representative list for family 3 repeats the "
    "class of the first diagonal slot, so it cannot equal a basis",
)
def test_family3_reference_lists_verbatim():
    for k in range(2, 6):
        result = normal_space_basis(normal_form(3, k=k).matrix)
        assert set(result.basis_labels) == reference_labels(3, k=k)


@pytest.mark.xfail(
    strict=True,
    reason="the classical representative list for family 4 includes "
    "classes that are zero in the quotient, so it cannot equal a basis",
)
def test_family4_reference_lists_verbatim():
    for k in range(3, 6):
        result = normal_space_basis(normal_form(4, k=k).matrix)
        assert set(result.basis_labels) == reference_labels(4, k=k)


# -- criterion 2: full catalog table -----------------------------------


@pytest.fixture(scope="module")
def audited_table():
    start = time.monotonic()
    report = reproduce_catalog_table(4, 4, AnalyzeOptions(audit=True))
    return report, time.monotonic() - start


def test_criterion_2_catalog_table(audited_table):
    report, elapsed = audited_table
    assert elapsed < 120.0, elapsed
    assert report.all_passed
    assert len(report.cells) == 167
    assert report.counts == {"passed": 157, "failed": 0, "unchecked": 10}
    for cell in report.cells:
        assert cell.passed is not False, cell
        if cell.passed is None:
            # only the one-sided corner of family 1 stays open
            assert cell.index == 1 and cell.expected is None, cell
    print(f"criterion 2: PASS - 167 cells graded in {elapsed:.1f}s, "
          "157 passed, 10 open, none failed")


# -- criterion 3: probe curve orders ------------------------------------


def probe_cases():
    for k in range(1, 6):
        for l in range(2, 6):
            yield 1, {"k": k, "l": l}, min(k, l)
    for k in range(2, 6):
        yield 2, {"k": k}, 2
        yield 3, {"k": k}, k
        yield 4, {"k": k}, k
    yield 5, {}, 3
    yield 6, {}, 3


def test_criterion_3_probe_curve_orders():
    checked = 0
    for index, params, expected in probe_cases():
        nf = normal_form(index, **params)
        assert nf.curve_order == expected, (index, params)
        direction = nf.theta({name: 1 for name in nf.coefficient_names()})
        unfolding = build_unfolding(nf.matrix, direction)
        ideal = unfolding_double_ideal(unfolding)
        orders = pullback_ideal(nf.probe_curve(), ideal)
        assert min(orders, default=math.inf) == expected, (index, params, orders)
        checked += 1
    assert checked == 34
    print("criterion 3: PASS - probe curve ideal orders exact on all "
          f"{checked} germs")


# -- criterion 4: three-variable symmetric germ ------------------------


def test_criterion_4_three_by_three_diagonal():
    ring = RingContext(("x", "y", "z"))
    germ = parse_matrix_germ("sym: x, y, z ; y, z, x^2 ; z, x^2, y^2", ring)
    assert entries_cut_reduced_origin(germ)

    result = normal_space_basis(germ)
    assert result.stable and result.codimension == 12

    rng = random.Random(7)
    sampled = list(zip(result.basis_labels, result.basis))
    for combo in range(3):
        weights = [Fraction(rng.randint(-2, 2)) for _ in result.basis]
        direction = germ.map_entries(lambda p: ring.zero())
        for w, basis_germ in zip(weights, result.basis):
            if w:
                direction = direction + basis_germ.scale(w)
        sampled.append((f"combination {combo}", direction))

    for name, direction in sampled:
        verdict = analyze(germ, direction)
        assert verdict.outcome == "Lipschitz", (name, verdict.outcome)
        expected_route = (
            "constant" if verdict.unfolding.direction.is_constant else "diagonal"
        )
        assert verdict.route == expected_route, (name, verdict.route)
        assert verify_inclusion_certificate(verdict), name
    print("criterion 4: PASS - 15 sampled directions all route through "
          "the diagonal with replayed memberships")


# -- criterion 5: membership oracle -------------------------------------


def test_criterion_5_membership_oracle():
    assert len(INSTANCES) >= 200
    for kind, p, gens, cap in INSTANCES:
        check_instance(kind, p, gens, cap)
    print(f"criterion 5: PASS - {len(INSTANCES)} random ideals, engine "
          "agrees with both oracles everywhere")


# -- criterion 6: algebraic identities and audit mode -------------------


def _random_poly(rng, ring, max_exp=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.arity))
        terms.append((exps, Fraction(rng.randint(-5, 5))))
    return Polynomial(ring, terms)


def test_criterion_6_identities_and_audit(audited_table):
    report, _ = audited_table
    assert report.all_passed  # audited rerun raised no contradiction

    xy = RingContext(("x", "y"))
    dxy = unfolding_ring(xy)
    uv = RingContext(("u", "v"))
    plain = {name: dxy.variable(name) for name in xy.variables}
    primed = {name: dxy.variable(name + "'") for name in xy.variables}
    rng = random.Random(11)

    for _ in range(500):
        p = _random_poly(rng, xy)
        q = _random_poly(rng, xy)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert double_of(p + q) == double_of(p) + double_of(q)
        assert double_of(p * c) == double_of(p) * c
        lhs = double_of(p * q)
        rhs = substitute(p, plain, dxy) * double_of(q) + substitute(
            q, primed
        ) * double_of(p)
        assert lhs == rhs

    for _ in range(500):
        p = _random_poly(rng, xy)
        q = _random_poly(rng, xy)
        images = {
            "x": _random_poly(rng, uv, max_exp=2, max_terms=3),
            "y": _random_poly(rng, uv, max_exp=2, max_terms=3),
        }
        assert substitute(p + q, images, uv) == substitute(
            p, images, uv
        ) + substitute(q, images, uv)
        assert substitute(p * q, images, uv) == substitute(
            p, images, uv
        ) * substitute(q, images, uv)

    for _ in range(500):
        a = UnivariatePoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        b = UnivariatePoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        assert (a * b).order_of_vanishing() == (
            a.order_of_vanishing() + b.order_of_vanishing()
        )

    print("criterion 6: PASS - 500-instance identity sweeps hold and the "
          "audited full table reports no contradiction")


# -- criterion 7: refutation certificates replay -------------------------


def test_criterion_7_refutations_replay(audited_table):
    report, _ = audited_table
    replayed = 0
    for cell in report.cells:
        if cell.outcome != "NotLipschitz":
            continue
        nf = normal_form(cell.index, k=cell.k, l=cell.l)
        direction = nf.theta(cell.coefficients)
        verdict = analyze(
            nf.matrix, direction, AnalyzeOptions(max_exponent=nf.max_exponent)
        )
        assert verdict.outcome == "NotLipschitz", cell
        assert verdict.witness is not None, cell
        ideal = unfolding_double_ideal(verdict.unfolding)
        assert verify_witness_dense(verdict.witness, ideal), cell
        assert verdict.witness.element_order < verdict.witness.ideal_order
        assert verdict.witness.ideal_order != math.inf
        replayed += 1
    assert replayed > 50
    print(f"criterion 7: PASS - {replayed} refutation certificates "
          "re-verified by dense substitution with identical orders")
