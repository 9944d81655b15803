"""Golden regression: normal spaces and diagonal-route proofs.

``golden_normal.json`` records, for every germ of criterion 1's grid
(k, l <= 5) and the 3x3 germ ``sym: x, y, z ; y, z, x^2 ; z, x^2, y^2``,
the rank, codimension, basis labels and stability of
``normal_space_basis``; and, for the 3x3 germ's twelve basis directions
plus twenty integer combinations of them drawn from ``random.Random(0)``,
``Verdict.to_report()`` without its timings.  A fresh run must reproduce
it exactly, so a speed-up of the ring arithmetic, the jet elimination or
Groebner cannot move a basis label or a certificate unnoticed.

Regenerate the fixture only for a change that is meant to alter these
outputs, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_normal.py > tests/golden_normal.json
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liptriv import RingContext, analyze, normal_form, normal_space_basis, parse_matrix_germ

FIXTURE = Path(__file__).with_name("golden_normal.json")
GERM = "sym: x, y, z ; y, z, x^2 ; z, x^2, y^2"
COMBINATIONS = 20


def grid():
    """Criterion 1's grid plus the 3x3 germ, as (label, matrix) pairs."""
    cells = [(1, k, l) for k in range(1, 6) for l in range(2, 6)]
    cells += [(index, k, None) for index in (2, 3, 4) for k in range(2, 6)]
    cells += [(5, None, None), (6, None, None)]
    germs = [
        (f"family {i} k={k} l={l}", normal_form(i, k=k, l=l).matrix)
        for i, k, l in cells
    ]
    germs.append((GERM, parse_matrix_germ(GERM, RingContext(("x", "y", "z")))))
    return germs


def normal_snapshot() -> list[dict]:
    records = []
    for label, matrix in grid():
        space = normal_space_basis(matrix)
        records.append(
            {
                "germ": label,
                "rank": space.rank,
                "codimension": space.codimension,
                "basis_labels": list(space.basis_labels),
                "stable": space.stable,
            }
        )
    return records


def diagonal_snapshot() -> list[dict]:
    germ = grid()[-1][1]
    basis = normal_space_basis(germ).basis
    directions = list(basis)
    rng = random.Random(0)
    zero = germ.map_entries(lambda p: p.ring.zero())
    for _ in range(COMBINATIONS):
        direction = zero
        for b in basis:
            w = rng.randint(-2, 2)
            if w:
                direction = direction + b.scale(Fraction(w))
        directions.append(direction)
    records = []
    for direction in directions:
        report = analyze(germ, direction).to_report()
        del report["timings"]
        records.append(report)
    return json.loads(json.dumps(records))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_normal_spaces_match_golden(golden):
    fresh = normal_snapshot()
    assert len(fresh) == len(golden["normal"]) == 35
    for got, want in zip(fresh, golden["normal"]):
        assert got == want, want["germ"]


def test_diagonal_reports_match_golden(golden):
    fresh = diagonal_snapshot()
    assert len(fresh) == len(golden["diagonal"]) == 12 + COMBINATIONS
    for n, (got, want) in enumerate(zip(fresh, golden["diagonal"])):
        assert got == want, n


def _dump(data: dict) -> str:
    """JSON with one record per line, so a changed output is a one-line diff."""
    blocks = []
    for key in sorted(data):
        rows = ",\n".join(
            "  " + json.dumps(r, sort_keys=True, separators=(",", ":"))
            for r in data[key]
        )
        blocks.append(f" {json.dumps(key)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(_dump({"normal": normal_snapshot(), "diagonal": diagonal_snapshot()}))
