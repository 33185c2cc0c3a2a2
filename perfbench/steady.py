"""Repeat workloads in fresh processes and report how steady each metric is.

    python3 perfbench/steady.py --seed-base 1 --out set-a.json
    python3 perfbench/steady.py --compare set-a.json set-b.json

Each workload runs :data:`RUNS` times, each run one ``perfbench/run.py``
process of ``run_seconds`` (from ``BENCHMARK.json``) with its own seed
(``seed-base``, ``seed-base + 1``, ...).  Beside each run a fresh process
times the fixed calibration loop of :mod:`perfbench.calibrate`, so a
shift in the host's speed shows in the calibration column too.  For
every metric the report gives the median, the quartiles and the spread
(interquartile distance over the median) beside the metric's bound.
``--compare`` checks a second set against a first the way a regression
gate does: no median worse than the first by more than its bound, and
the same share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402

#: runs per workload in one set
RUNS = 10


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    calibration = _last_json(subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "calibrate.py")],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = _last_json(proc.stdout)
    result["seed"] = seed
    result["calibration_s"] = calibration["calibration_s"]
    return result


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    rows = []
    for metric in metrics:
        # a figure metric reads null when no program passed its checks
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        values = [value for value in values if value is not None] or \
            [math.nan]
        q1, median, q3 = quartiles(values)
        rows.append({"name": metric["name"], "unit": metric["unit"],
                     "bound": metric.get("bound"), "median": median,
                     "q1": q1, "q3": q3, "spread": spread(values)})
    calibration = [run["calibration_s"] for run in runs]
    q1, median, q3 = quartiles(calibration)
    rows.append({"name": "calibration_s", "unit": "s", "bound": None,
                 "median": median, "q1": q1, "q3": q3,
                 "spread": spread(calibration)})
    return rows


def _print_rows(workload: str, runs: list[dict], rows: list[dict]) -> None:
    shares = sorted({run["failed"] / run["attempted"] for run in runs})
    print(f"{workload}: {len(runs)} runs, failed share {shares}, "
          f"correct {all(run['correct'] for run in runs)}")
    print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        flag = ""
        if row["bound"] is not None:
            flag = ("  steady" if row["spread"] < row["bound"] / 3 else
                    "  within bound" if row["spread"] <= row["bound"] else
                    "  TOO WIDE")
        print(f"  {row['name']:24s} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.4f} {bound:>6s}{flag}")


def compare(first: dict, second: dict, spec: dict) -> list[str]:
    """Regressions of ``second`` against ``first`` beyond each bound."""
    problems = []
    for workload, rows_a in first["summary"].items():
        rows_b = {row["name"]: row for row in second["summary"][workload]}
        for metric in spec["end_to_end"]:
            a = next(r for r in rows_a if r["name"] == metric["name"])
            b = rows_b[metric["name"]]
            change = (b["median"] - a["median"]) / abs(a["median"])
            worse = -change if metric["better"] == "higher" else change
            status = "REGRESSED" if worse > metric["bound"] else "ok"
            print(f"{workload:20s} {metric['name']:20s} "
                  f"{a['median']:12.6g} -> {b['median']:12.6g} "
                  f"({change:+.2%}, bound {metric['bound']:.0%}) {status}")
            if status != "ok":
                problems.append(f"{workload} {metric['name']}")
        share_a = {r["failed"] / r["attempted"]
                   for r in first["runs"][workload]}
        share_b = {r["failed"] / r["attempted"]
                   for r in second["runs"][workload]}
        if share_a != share_b:
            problems.append(f"{workload} failed share {share_a} != {share_b}")
    return problems


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="write every run and the summary as JSON")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        problems = compare(first, second, spec)
        for problem in problems:
            print(f"regression: {problem}")
        return 1 if problems else 0

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed_base + i, spec["run_seconds"],
                         args.trace) for i in range(RUNS)]
        rows = summarize(runs, metrics)
        report["runs"][workload] = runs
        report["summary"][workload] = rows
        _print_rows(workload, runs, rows)
        if args.out:
            args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
