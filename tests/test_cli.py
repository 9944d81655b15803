"""End-to-end exercises of the command-line interface: exit codes,
stdout determinism, file-based inputs, and JSON report validation."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from liptriv import RingContext, normal_form
from liptriv.cli import run_command
from liptriv.doubling import build_unfolding
from liptriv.rings import parse_polynomial
from tests.oracles import full_double_ideal

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text()
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_catalog_refutation(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--catalog", "3", "--k", "2", "--theta", "b1=1"
        )
        assert code == 0
        assert "NotLipschitz" in out

    def test_zero_direction_trivial(self, capsys):
        code, out, _ = run(capsys, "analyze", "--catalog", "5")
        assert code == 0
        assert "Lipschitz" in out
        assert "NotLipschitz" not in out

    @pytest.mark.parametrize(
        "argv, route",
        [
            (("--catalog", "2", "--k", "4", "--theta", "d1=1"), "inclusion"),
            (("--catalog", "1", "--k", "1", "--l", "3", "--theta", "b1=1"), "diagonal"),
        ],
        ids=["inclusion", "diagonal"],
    )
    def test_membership_routes_print_their_count(self, capsys, argv, route):
        code, out, _ = run(capsys, "analyze", *argv)
        assert code == 0
        assert f"Lipschitz (route: {route})" in out
        assert "memberships shown: 1" in out.splitlines()

    def test_inconclusive_exits_two(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--catalog", "1", "--k", "4", "--l", "2",
            "--theta", "a3=1", "--budget", "200",
        )
        assert code == 2
        assert "Inconclusive" in out

    def test_curve_budget_caps_the_prefix_search(self, capsys):
        # The witness for this cell is the second curve of the stream, so
        # a prefix search before the membership that ignored --budget
        # would turn this Inconclusive into NotLipschitz.
        code, out, _ = run(
            capsys,
            "analyze", "--catalog", "3", "--k", "2", "--theta", "b1=1",
            "--budget", "1",
        )
        assert code == 2
        assert "Inconclusive (route: search)" in out
        assert "no witness in 1 curves" in out

    def test_json_report_validates(self, capsys, tmp_path):
        report_path = tmp_path / "verdict.json"
        code, _, _ = run(
            capsys,
            "analyze", "--catalog", "2", "--k", "2", "--theta", "c=1",
            "--json", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["outcome"] == "NotLipschitz"

    def test_stdout_deterministic(self, capsys):
        argv = ("analyze", "--catalog", "6", "--theta", "a4=1")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_germ_and_theta_files(self, capsys, tmp_path):
        germ = tmp_path / "germ.txt"
        germ.write_text("vars: x, y\nsym: x, 0 ; 0, y^2\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("vars: x, y\nsym: 0, 0 ; 0, y\n")
        code, out, _ = run(
            capsys,
            "analyze", "--germ-file", str(germ), "--theta-file", str(theta),
        )
        assert code == 0
        assert "outcome:" in out

    def test_theta_file_ring_mismatch(self, capsys, tmp_path):
        germ = tmp_path / "germ.txt"
        germ.write_text("vars: x, y\nsym: x, 0 ; 0, y^2\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("vars: u, v\nsym: 0, 0 ; 0, v\n")
        code, _, _ = run(
            capsys,
            "analyze", "--germ-file", str(germ), "--theta-file", str(theta),
        )
        assert code == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("analyze", "--catalog", "9"),
            ("analyze", "--catalog", "1", "--k", "2", "--l", "2",
             "--theta", "a1"),
            ("analyze", "--catalog", "1", "--k", "0", "--l", "2"),
            ("analyze", "--catalog", "3", "--k", "2", "--theta", "nope=1"),
            ("normal-space",),
            ("no-such-command",),
            # reports state both fields, so there is no field to choose
            ("analyze", "--catalog", "3", "--k", "2", "--theta", "b1=1",
             "--field", "complex"),
            ("analyze", "--catalog", "3", "--k", "2", "--theta", "b1=1/0"),
        ],
    )
    def test_exit_code_one(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 1


class TestLimits:
    """Budgets and caps must be positive integers; anything else is a
    usage error, never a silent default or a traceback."""

    CATALOG = ("--catalog", "2", "--k", "2", "--theta", "c=1")

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("analyze", "--budget", "0"),
            ("analyze", "--budget", "-3"),
            ("analyze", "--max-exponent", "0"),
            ("analyze", "--max-exponent", "-1"),
            ("check-inclusion", "--max-pairs", "0"),
            ("check-inclusion", "--max-degree", "0"),
            ("reproduce-table", "--budget", "0"),
        ],
    )
    def test_non_positive_rejected(self, capsys, command, flag, value):
        catalog = () if command == "reproduce-table" else self.CATALOG
        code, out, err = run(capsys, command, *catalog, flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize(
        "max_k,max_l",
        [("-2", "1"), ("1", "4"), ("4", "1"), ("0", "0")],
    )
    def test_table_limits_below_a_family_rejected(self, capsys, max_k, max_l):
        # a limit under some family's minimum would drop it without a trace
        code, out, err = run(
            capsys, "reproduce-table", "--max-k", max_k, "--max-l", max_l
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "leave no cells" in err


class TestNormalSpace:
    def test_basis_matrices_listed(self, capsys):
        code, out, _ = run(
            capsys, "normal-space", "--catalog", "1", "--k", "2", "--l", "3"
        )
        assert code == 0
        assert "dimension: 4" in out
        matrices = [
            line
            for line in out.splitlines()
            if "sym:" in line and not line.startswith("germ:")
        ]
        assert len(matrices) == 4

    def test_general_germ_file(self, capsys, tmp_path):
        germ = tmp_path / "germ.txt"
        germ.write_text("vars: x, y\ngen: x, y^2 ; y, x\n")
        code, out, err = run(capsys, "normal-space", "--germ-file", str(germ))
        assert code == 0
        assert "normal space dimension: 3" in out
        assert "E(2,1): gen: 0, 0 ; 1, 0" in out
        assert err == ""

    def test_json_payload(self, capsys, tmp_path):
        out_path = tmp_path / "ns.json"
        code, _, _ = run(
            capsys,
            "normal-space", "--catalog", "5", "--json", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["codimension"] == 6
        assert len(payload["basis"]) == 6
        assert payload["stable"] is True


class TestPullback:
    def test_probe_curve_order(self, capsys):
        code, out, _ = run(
            capsys,
            "pullback",
            "--curve", "s, 2*s^2, 2*s, s^2, s",
            "--ideal-from-catalog", "2", "--k", "3", "--theta", "c=1",
        )
        assert code == 0
        assert "ideal order: 2" in out

    def test_generator_lines_present(self, capsys):
        code, out, _ = run(
            capsys,
            "pullback",
            "--curve", "s^2, 2*s^3, 2*s, s^3, s",
            "--ideal-from-catalog", "6", "--theta", "a4=1",
        )
        assert code == 0
        # the two nonzero entries; the shared parameter has no double
        assert out.count("generator:") == 2
        assert "ideal order: 3" in out


class TestDouble:
    def test_merged_view(self, capsys):
        # The printed generators are those of the doubling that mirrors
        # t too, with t' merged into t: t - t' merges to zero and drops.
        code, out, _ = run(
            capsys, "double", "--catalog", "3", "--k", "2", "--theta", "b1=1"
        )
        assert code == 0
        nf = normal_form(3, k=2)
        full = full_double_ideal(build_unfolding(nf.matrix, nf.theta({"b1": 1})))
        ring = RingContext(("t", "x", "y")).doubled_extension()
        merged = [
            parse_polynomial(str(g).replace("t'", "t"), ring) for g in full.generators
        ]
        assert out.splitlines() == [str(g) for g in merged if not g.is_zero]

    def test_raw_generators_include_parameter(self, capsys):
        # Both points share the parameter: one t, no t' and no t - t'.
        code, out, _ = run(
            capsys, "double", "--catalog", "3", "--k", "2", "--theta", "b1=1"
        )
        assert code == 0
        assert out.splitlines() == [
            "x - x'",
            "t*y + x*y + y^2 - t*y' - x'*y' - y'^2",
        ]

    def test_merged_parameter_flag_removed(self, capsys):
        code, _, err = run(
            capsys,
            "double", "--catalog", "3", "--k", "2", "--theta", "b1=1",
            "--merged-parameter",
        )
        assert code == 1
        assert "--merged-parameter" in err


class TestCheckInclusion:
    def test_constant_direction_holds(self, capsys):
        code, out, _ = run(
            capsys, "check-inclusion", "--catalog", "2", "--k", "2",
            "--theta", "a=1",
        )
        assert code == 0
        assert "inclusion holds" in out

    def test_membership_shown(self, capsys):
        code, out, _ = run(
            capsys, "check-inclusion", "--catalog", "2", "--k", "4",
            "--theta", "d1=1",
        )
        assert code == 0
        assert "member:" in out
        assert "inclusion holds" in out

    def test_not_shown_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "check-inclusion", "--catalog", "3", "--k", "2",
            "--theta", "b1=1",
        )
        assert code == 2
        assert "not shown:" in out

    def test_budget_exhaustion_exits_three(self, capsys):
        code, _, _ = run(
            capsys, "check-inclusion", "--catalog", "2", "--k", "2",
            "--theta", "c=1", "--max-pairs", "1",
        )
        assert code == 3


class TestReproduceTable:
    def test_small_grid_passes(self, capsys, tmp_path):
        report_path = tmp_path / "table.json"
        code, out, _ = run(
            capsys,
            "reproduce-table", "--max-k", "2", "--max-l", "2",
            "--json", str(report_path),
        )
        assert code == 0
        assert "summary:" in out
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["all_passed"] is True


class TestJsonOutput:
    """A ``--json`` path that cannot be written is a usage error with a
    one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--catalog", "2", "--k", "2", "--theta", "c=1"),
            ("normal-space", "--catalog", "1", "--k", "1", "--l", "2"),
            ("reproduce-table", "--max-k", "2", "--max-l", "2"),
        ],
    )
    def test_unwritable_path_exits_one(self, capsys, tmp_path, argv):
        target = tmp_path / "missing_dir" / "out.json"
        code, out, err = run(capsys, *argv, "--json", str(target))
        assert code == 1
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
        assert not target.exists()
        if argv[0] == "reproduce-table":
            # the path is checked before any cell is graded
            assert out == ""

    def test_directory_path_exits_one_before_any_work(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "reproduce-table", "--max-k", "2", "--max-l", "2",
            "--json", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    def test_existing_file_kept_until_written(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        code, _, _ = run(
            capsys, "analyze", "--catalog", "3", "--k", "2", "--theta", "b1=1/0",
            "--json", str(target),
        )
        assert code == 1
        assert target.read_text() == "old"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liptriv", "normal-space",
             "--catalog", "1", "--k", "1", "--l", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "dimension: 2" in proc.stdout

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liptriv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
