"""Golden regression: the 4x4 catalog table, plain and audited.

``golden_table.json`` records, for every cell of
``reproduce_catalog_table(4, 4)`` with and without audit, the graded
cell, the route, the witness (curve, element, element and ideal order)
and the per-generator search reports.  A fresh run must reproduce it
exactly, so a speed-up of any layer cannot move a verdict unnoticed.

Regenerate the fixture only for a change that is meant to alter
verdicts, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_table.json
"""

import json
import math
import sys
from pathlib import Path

import pytest

from liptriv import analyzer, curves
from liptriv.analyzer import AnalyzeOptions, reproduce_catalog_table
from liptriv.curves import ARC_COEFFICIENTS, format_curve
from liptriv.doubling import PARAMETER

FIXTURE = Path(__file__).with_name("golden_table.json")
MODES = {"plain": False, "audit": True}


def _order(value):
    return "infinity" if value is math.inf else value


def _search_record(report):
    # Every searched ring shares the parameter between both points of a
    # pair, so one arc serves both.
    return {
        "curves_tried": report.curves_tried,
        "budget_exhausted": report.budget_exhausted,
        "best_gap": report.best_gap,
        "config": {
            "max_exponent": report.max_exponent,
            "coefficients": [str(c) for c in ARC_COEFFICIENTS],
            "share_parameter": True,
            "parameter": PARAMETER,
        },
    }


def _verdict_record(verdict):
    witness = verdict.witness
    return {
        "outcome": verdict.outcome,
        "route": verdict.route,
        "witness": None
        if witness is None
        else {
            "curve": format_curve(witness.curve),
            "element": str(witness.element),
            "element_order": _order(witness.element_order),
            "ideal_order": _order(witness.ideal_order),
        },
        "searches": [_search_record(r) for r in verdict.searches],
    }


def table_snapshot(audit: bool) -> list[dict]:
    """One record per table cell, in table order, as plain JSON data."""
    verdicts = []
    original = analyzer.analyze

    def recording(*args, **kwargs):
        verdict = original(*args, **kwargs)
        verdicts.append(verdict)
        return verdict

    analyzer.analyze = recording
    try:
        report = reproduce_catalog_table(4, 4, AnalyzeOptions(audit=audit))
    finally:
        analyzer.analyze = original
    assert len(verdicts) == len(report.cells)
    records = [
        {"cell": cell.to_report(), **_verdict_record(v)}
        for cell, v in zip(report.cells, verdicts)
    ]
    return json.loads(json.dumps(records))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_table_matches_golden(golden, mode):
    expected = golden[mode]
    fresh = table_snapshot(MODES[mode])
    assert len(fresh) == len(expected) == 167
    for got, want in zip(fresh, expected):
        assert got == want, want["cell"]


def test_audited_table_cold_and_warm_matches_golden(golden, monkeypatch):
    # Searches share each curve stream within the process: the first
    # run starts with none and grows them, the second reads them grown.
    monkeypatch.setattr(curves, "_STREAMS", {})
    for _ in range(2):
        assert table_snapshot(True) == golden["audit"]
    assert curves._STREAMS


def _dump(data: dict) -> str:
    """JSON with one cell per line, so a changed verdict is a one-line diff."""
    blocks = []
    for mode in sorted(data):
        rows = ",\n".join(
            "  " + json.dumps(r, sort_keys=True, separators=(",", ":"))
            for r in data[mode]
        )
        blocks.append(f" {json.dumps(mode)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(_dump({mode: table_snapshot(a) for mode, a in MODES.items()}))
