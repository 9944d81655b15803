"""Golden regression: every verdict report of the plain 4x4 table.

``golden_certificates.json`` holds ``Verdict.to_report()`` without
``timings`` for each of the 167 cells of ``reproduce_catalog_table(4, 4)``
(each cell analysed with ``AnalyzeOptions(max_exponent=nf.max_exponent)``),
one cell per line.  Unlike ``golden_table.json``, which keeps route,
witness and search, this pins the certificate text: the cofactors of
every inclusion and diagonal proof, so a change to division or to the
basis engine cannot rewrite a proof unnoticed.  A fresh run must
reproduce the file byte for byte.

Regenerate the fixture only for a change that is meant to alter
certificates, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_certificates.py > tests/golden_certificates.json
"""

import json
import sys
from pathlib import Path

import pytest

from liptriv import analyzer
from liptriv.analyzer import reproduce_catalog_table

FIXTURE = Path(__file__).with_name("golden_certificates.json")


def plain_table_reports() -> list[dict]:
    """``to_report()`` without timings of every plain-table verdict, in order."""
    verdicts = []
    original = analyzer.analyze

    def recording(*args, **kwargs):
        verdict = original(*args, **kwargs)
        verdicts.append(verdict)
        return verdict

    analyzer.analyze = recording
    try:
        report = reproduce_catalog_table(4, 4)
    finally:
        analyzer.analyze = original
    assert len(verdicts) == len(report.cells)
    reports = []
    for verdict in verdicts:
        data = verdict.to_report()
        del data["timings"]
        reports.append(data)
    return reports


def dump(reports: list[dict]) -> str:
    """One cell per line, so a changed certificate is a one-line diff."""
    lines = ",\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in reports
    )
    return "[\n" + lines + "\n]\n"


@pytest.fixture(scope="module")
def fresh_lines():
    return dump(plain_table_reports()).splitlines()


def test_certificates_match_golden(fresh_lines):
    expected = FIXTURE.read_text().splitlines()
    assert len(expected) == len(fresh_lines) == 167 + 2
    for got, want in zip(fresh_lines, expected):
        assert got == want


def test_fixture_covers_every_proof_route():
    routes = [r["route"] for r in json.loads(FIXTURE.read_text())]
    assert routes.count("inclusion") == 15
    assert routes.count("diagonal") == 5


if __name__ == "__main__":
    sys.stdout.write(dump(plain_table_reports()))
