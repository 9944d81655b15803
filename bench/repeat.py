"""Run the benchmark at several seeds and summarise each metric's spread.

    python3 bench/repeat.py --runs 10 --trace 0 --out e2e.json
    python3 bench/repeat.py --runs 2 --first-seed 0 --same-seed --trace 1

Each run is a separate process (``run.run_child``), one seed per run
(or one seed for all with ``--same-seed``), over every workload in
BENCHMARK.json.  For every metric the
summary gives the median and quartiles of the runs and the spread (third
minus first quartile, over the median), and compares the spread with the
metric's bound in BENCHMARK.json.  With ``--same-seed`` every count must
be identical across the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import HarnessError, run_child

HERE = Path(__file__).resolve().parent


def summarise(records: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in records[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {
            "unit": records[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bounds.get(name),
            "exact": len(set(values)) == 1,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true", help="run every time at --first-seed")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    seeds = [args.first_seed + (0 if args.same_seed else i) for i in range(args.runs)]
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            records = [run_child(workload, seed, seconds, args.trace) for seed in seeds]
        except HarnessError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        all_correct &= all(r["result"]["correct"] for r in records)
        summary = summarise(records, bounds)
        report[workload] = {"summary": summary, "records": records}
        for name, s in summary.items():
            verdict = ""
            if args.same_seed and s["unit"] == "count" and not s["exact"]:
                verdict = "NOT EXACT"
                all_correct = False
            elif s["bound"] is not None:
                verdict = "steady" if s["spread"] < s["bound"] / 3 else (
                    "within bound" if s["spread"] <= s["bound"] else "TOO WIDE"
                )
            print(
                f"{workload:16s} {name:40s} median {s['median']:<12.6g} "
                f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {verdict}",
                flush=True,
            )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
