"""Every verdict report kept in a golden fixture conforms to
``docs/report_schema.json``: the 167 plain-table reports of
``golden_certificates.json`` and the diagonal-route reports of
``golden_normal.json``.  The fixtures are regenerated from
``Verdict.to_report()`` with ``timings`` removed, so this also checks
the report shape for every route the 4x4 table and the 3x3 germ take.
"""

import json
from pathlib import Path

import jsonschema
import pytest

HERE = Path(__file__).resolve().parent
SCHEMA = json.loads((HERE.parent / "docs" / "report_schema.json").read_text())


def _reports(name: str) -> list[dict]:
    data = json.loads((HERE / name).read_text())
    return data["diagonal"] if isinstance(data, dict) else data


@pytest.mark.parametrize(
    "name,count",
    [("golden_certificates.json", 167), ("golden_normal.json", 32)],
)
def test_golden_reports_validate(name, count):
    reports = _reports(name)
    assert len(reports) == count
    for report in reports:
        # the fixtures drop timings, which the schema requires
        jsonschema.validate({**report, "timings": {}}, SCHEMA)
