"""Seeded, single-process benchmark of liptriv's verdict pipeline.

Run from the repository root:

    python3 bench/run.py --workload table-plain --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first (environment,
each metric with its unit and sample count); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``bench/repeat.py`` runs several seeds through
:func:`run_child` and keeps the full records.

The library is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits non-zero and prints no
result.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from hostspeed import HostClock
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("table-plain", "table-audit", "normal-diagonal")
SETUP_REPEATS = 11
ROUTES = ("constant", "diagonal", "inclusion", "witness", "search")

# Timed functions reported as ``<metric>.calls`` and ``<metric>.s``.
TIMED = {
    "curves.closure_test": "curves.closure_test",
    "curves.pullback": "curves.pullback",
    "curves.pullback_ideal": "curves.pullback_ideal",
    "curves.pullback_dense": "curves.pullback_dense",
    "groebner.buchberger": "groebner.buchberger",
    "groebner.divide": "groebner.divide",
    "groebner.membership_certificate": "groebner.membership",
    "tangent.normal_space_basis": "tangent.normal_space_basis",
    "doubling.unfolding_double_ideal": "doubling.unfolding_double_ideal",
}
SHARE_LAYERS = ("analyzer", "curves", "groebner", "doubling", "tangent")

# Functions each workload must reach; zero calls means a missed binding.
# The benchmark's replay is not traced, so these are the library's calls.
COMMON_CALLS = (
    "analyzer.analyze",
    "groebner.buchberger",
    "groebner.divide",
    "groebner.membership_certificate",
    "groebner.s_polynomial",
    "doubling.unfolding_double_ideal",
    "doubling.diagonal_ideal",
    "tangent.entries_cut_reduced_origin",
)
TABLE_CALLS = COMMON_CALLS + (
    "analyzer.verify_witness_dense",
    "curves.closure_test",
    "curves.pullback",
    "curves.pullback_ideal",
    "curves.pullback_dense",
)
EXPECTED_CALLS = {
    "table-plain": TABLE_CALLS,
    "table-audit": TABLE_CALLS,
    "normal-diagonal": COMMON_CALLS + ("tangent.normal_space_basis",),
}
EXPECTED_COUNTS = {
    "table-plain": ("rings.poly_mul.calls", "rings.univariate_mul.calls"),
    "table-audit": ("rings.poly_mul.calls", "rings.univariate_mul.calls"),
    "normal-diagonal": ("rings.poly_mul.calls",),
}
SEED0_TABLE_COUNTS = {"passed": 157, "failed": 0, "unchecked": 10}
RECORD_PREFIX = "record: "

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import liptriv; print(time.perf_counter() - t)"
)


class HarnessError(RuntimeError):
    """The benchmark itself cannot measure; no result is printed."""


def load_library():
    package = SRC / "liptriv"
    if not (package / "__init__.py").is_file():
        raise HarnessError(f"liptriv sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import liptriv

    if Path(liptriv.__file__).resolve().parent != package.resolve():
        raise HarnessError(f"imported liptriv from {liptriv.__file__}, not {package}")
    return liptriv


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "load_start": list(os.getloadavg()),
        "seed": seed,
    }


def import_seconds() -> float:
    """Import time of liptriv in a fresh interpreter, timed by the child."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def run_passes(lt, run_pass, inputs, host, budget_s: float, tracer=None) -> list:
    """Passes until the next one would overrun the budget (at least one).

    With a tracer, each pass runs traced, its replay untraced, and is
    paired with its summary.
    """
    results = []
    started = time.perf_counter()
    while True:
        gc.collect()
        if tracer is None:
            results.append(run_pass(lt, inputs, host))
        else:
            tracer.reset()
            with tracer:
                result = run_pass(lt, inputs, host, tracer.paused)
            results.append((result, tracer.summary()))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(results) > budget_s:
            return results


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    latencies = [ms for p in passes for ms in p.latencies_ms]
    verdicts = sum(p.verdicts for p in passes)
    if len(latencies) < 2:
        raise HarnessError("fewer than two verdicts returned; nothing to measure")
    metrics = {
        "run_s": (statistics.median(p.scaled_s for p in passes), "s"),
        "verdict_ms_p50": (statistics.median(latencies), "ms"),
        "verdict_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "decided_share": (sum(p.decided for p in passes) / verdicts, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "run_s": f"median of {len(passes)} passes; raw wall {statistics.median(p.wall_s for p in passes):.4g} s",
        "verdict_ms_p50": f"{len(latencies)} analyze calls on non-constant directions",
        "verdict_ms_p90": f"{len(latencies)} analyze calls on non-constant directions",
        "decided_share": f"{verdicts} verdicts",
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "peak_rss_mb": "whole process",
    }
    return metrics, samples


def pass_layer_metrics(summary: dict, traced) -> dict:
    """Per-layer metrics of one traced pass.

    Counts are exact.  Seconds are scaled by the pass's mean host factor,
    like the end-to-end times; shares are fractions of the raw pass time.
    """
    factor = traced.scaled_s / traced.wall_s
    calls, counts, layer_self = summary["calls"], summary["counts"], summary["layer_self"]
    inclusive = {name: s * factor for name, s in summary["inclusive"].items()}
    own = {name: s * factor for name, s in summary["self"].items()}
    m: dict = {}
    for fn, name in TIMED.items():
        m[f"{name}.calls"] = calls[fn]
        m[f"{name}.s"] = inclusive.get(fn, 0.0)
    closure_calls = calls["curves.closure_test"]
    m["curves.curves_tried"] = summary["by_parent"][("curves.closure_test", "curves.pullback_ideal")]
    m["curves.witness_rate"] = counts["curves.witnesses"] / closure_calls if closure_calls else 0.0
    m["groebner.spolys"] = calls["groebner.s_polynomial"]
    m["groebner.basis_len"] = counts["groebner.basis_len"]
    member_calls = calls["groebner.membership_certificate"]
    m["groebner.member_rate"] = counts["groebner.members"] / member_calls if member_calls else 0.0
    m["tangent.entries_cut_reduced_origin.s"] = inclusive.get("tangent.entries_cut_reduced_origin", 0.0)
    m["doubling.diagonal_ideal.calls"] = calls["doubling.diagonal_ideal"]
    m["analyzer.analyze.self_s"] = own.get("analyzer.analyze", 0.0)
    m["analyzer.replay_s"] = traced.replay_wall_s * factor
    for route in ROUTES:
        m[f"analyzer.route.{route}"] = counts[f"analyzer.route.{route}"]
    m["rings.poly_mul.calls"] = counts["rings.poly_mul.calls"]
    m["rings.univariate_mul.calls"] = counts["rings.univariate_mul.calls"]
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * factor
        m[f"{layer}.share"] = layer_self[layer] / traced.wall_s
    return m


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".curves_tried", ".spolys", ".basis_len")) or ".route." in name:
        return "count"
    if name.endswith(("_rate", ".share", "trace_overhead")):
        return "ratio"
    return "s"


def check_bindings(workload: str, summary: dict) -> None:
    """Fail loudly when a wrapped layer records nothing it should have."""
    calls, counts = summary["calls"], summary["counts"]
    missing = [fn for fn in EXPECTED_CALLS[workload] if not calls[fn]]
    missing += [key for key in EXPECTED_COUNTS[workload] if not counts[key]]
    if missing:
        raise HarnessError(f"traced run recorded no calls of {missing}: a binding was missed")
    if workload == "normal-diagonal":
        stray = {fn: n for fn, n in calls.items() if fn.startswith("curves.") and n}
        if stray or counts["curves.witnesses"]:
            raise HarnessError(f"normal-diagonal reached the curve search: {stray}")


def measure_end_to_end(lt, generate, run_pass, seed: int, seconds: float):
    """Set up several times, then untraced passes for ``seconds``."""
    host = HostClock()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        seconds_import = import_seconds()
        t0 = time.perf_counter()
        inputs = generate(lt, seed)
        setup_samples.append((seconds_import + time.perf_counter() - t0) * host.factor())
    passes = run_passes(lt, run_pass, inputs, host, seconds)
    values, samples = end_to_end(passes, setup_samples)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return passes, metrics, samples, []


def measure_layers(lt, workload: str, generate, run_pass, seed: int, seconds: float):
    """Half the time untraced, then traced passes for the other half.

    Every count must repeat exactly between the traced passes (an audited
    pass is too long for two); time metrics are the median over them.
    """
    tracer = Tracer()
    with tracer:
        inputs = generate(lt, seed)
    setup_summary = tracer.summary()
    if not setup_summary["calls"]["catalog.normal_form"]:
        raise HarnessError("traced set-up recorded no catalog.normal_form calls")
    host = HostClock()
    plain = run_passes(lt, run_pass, inputs, host, seconds / 2)
    pairs = run_passes(lt, run_pass, inputs, host, seconds / 2, tracer=tracer)
    traced = [result for result, _ in pairs]
    for _, summary in pairs:
        check_bindings(workload, summary)
    per_pass = [pass_layer_metrics(summary, result) for result, summary in pairs]
    problems = []
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        unit = unit_of(name)
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["catalog.normal_form.s"] = {
        "value": setup_summary["inclusive"]["catalog.normal_form"],
        "unit": "s",
    }
    overhead = statistics.median(p.scaled_s for p in traced) / statistics.median(p.scaled_s for p in plain)
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    samples = {
        "per-layer": f"median of {len(traced)} traced passes",
        "catalog.normal_form.s": "traced set-up",
        "trace_overhead": f"{len(traced)} traced vs {len(plain)} untraced passes",
    }
    return plain + traced, metrics, samples, problems


def run_workload(lt, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "normal-diagonal":
        generate, run_pass = wl.diagonal_inputs, wl.diagonal_pass
    else:
        generate = functools.partial(wl.table_inputs, audit=workload == "table-audit")
        run_pass = wl.table_pass
    env = environment(seed)
    if trace:
        all_passes, metrics, samples, problems = measure_layers(lt, workload, generate, run_pass, seed, seconds)
    else:
        all_passes, metrics, samples, problems = measure_end_to_end(lt, generate, run_pass, seed, seconds)
    for p in all_passes:
        problems.extend(p.failures)
    first = all_passes[0]
    if workload == "table-plain" and seed == 0:
        rows, counts = wl.table_reference_rows(lt)
        if first.rows != rows:
            problems.append("seed-0 grid differs from reproduce_catalog_table(4, 4)")
        for label, got in (("reproduce_catalog_table", counts), ("benchmark pass", first.graded)):
            if got != SEED0_TABLE_COUNTS:
                problems.append(f"{label} counts {got} != {SEED0_TABLE_COUNTS}")
    env["load_end"] = list(os.getloadavg())
    env["passes"] = len(all_passes)
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "table_counts": first.graded if workload != "normal-diagonal" else None,
        "pass_wall_s": [p.wall_s for p in all_passes],
        "pass_scaled_s": [p.scaled_s for p in all_passes],
        "samples": samples,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": sum(p.attempted for p in all_passes),
            "failed": sum(len(p.failures) for p in all_passes),
            "metrics": metrics,
        },
    }


def print_record(record: dict) -> None:
    env = record["environment"]
    print(
        f"[{record['workload']}] python {env['python']}, cpu {env['cpu']!r}, nproc {env['nproc']}, "
        f"load {env['load_start'][0]:.2f} -> {env['load_end'][0]:.2f}, seed {env['seed']}, "
        f"{env['passes']} passes (wall {', '.join(f'{w:.3f}' for w in record['pass_wall_s'])} s; "
        f"scaled {', '.join(f'{w:.3f}' for w in record['pass_scaled_s'])} s)"
    )
    result = record["result"]
    share = result["failed"] / result["attempted"]
    print(f"[{record['workload']}] failed_share = {share:.6f} ({result['failed']} of {result['attempted']} operations)")
    if record["table_counts"] is not None:
        print(f"[{record['workload']}] first pass graded {record['table_counts']}")
    for name, metric in result["metrics"].items():
        note = record["samples"].get(name, record["samples"].get("per-layer", ""))
        print(f"[{record['workload']}] {name} = {metric['value']:.6g} {metric['unit']} ({note})")
    for problem in record["problems"]:
        print(f"[{record['workload']}] FAILED: {problem}")


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The full record of one workload run in a fresh process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--record",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise HarnessError(f"{workload} at seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-2].removeprefix(RECORD_PREFIX))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            # One process per workload, so peak memory stays per workload.
            records = [run_child(w, args.seed, args.seconds, args.trace) for w in WORKLOAD_NAMES]
        else:
            records = [run_workload(load_library(), args.workload, args.seed, args.seconds, bool(args.trace))]
    except (HarnessError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    if args.record:
        print(RECORD_PREFIX + json.dumps(records[0]))
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in records
                for name, metric in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
