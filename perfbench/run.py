"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig7-grid-cold --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Each timed round runs in a fresh child
process (:mod:`perfbench.child`); rounds repeat until ``--seconds`` of
measured time have passed, so a round is never cut short.  With
``--trace 0`` the run prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it runs one untraced and one traced round of the same
inputs and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A faulty item counts as failed and makes ``correct`` false;
a figure metric that no benchmark passed every check for reads ``null``.
The run exits non-zero, printing no result, only when the program cannot
be run or a round's process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import percentile  # noqa: E402

WORKLOADS = ("fig7-grid-cold", "fuzz-corpus-compile", "serve-zipf")
#: set-up-only processes per run besides the rounds' own set-ups, so the
#: reported set-up time is a median; serve-zipf's set-up compiles and
#: simulates every base (about ten seconds), so its rounds' set-ups are
#: the only samples
EXTRA_SETUPS = {"fig7-grid-cold": 4, "fuzz-corpus-compile": 4,
                "serve-zipf": 0}
#: a run must end within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"
SERVE_ONLY_LAYERS = (
    "serve.hit_latency_p50_s", "serve.miss_latency_p50_s", "serve.hits",
    "serve.computations", "serve.base_memo_hits", "serve.base_cache_hits",
    "serve.base_compiles",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class _Children:
    """Starts child processes one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])

    def run(self, *flags: str) -> dict:
        command = [sys.executable, "-m", "perfbench.child", self.workload,
                   "--seed", str(self.seed), "--work", str(self.work),
                   *flags]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(command, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} child exceeded the run time "
                             f"limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload} child exited "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(lines[-1])


def _pooled(rounds: list[dict], field: str) -> list[float]:
    return [value for record in rounds for value in record[field]]


def _required(value, what: str):
    if value is None:
        raise BenchError(f"too few samples for {what}")
    return value


def end_to_end(children: _Children, seconds: float) -> tuple[dict, list]:
    setups = [children.run("--setup-only")["setup_s"]
              for _ in range(EXTRA_SETUPS[children.workload])]
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        rounds.append(children.run())
    setups += [r["setup_s"] for r in rounds]

    completed = sum(r["attempted"] - r["failed"] for r in rounds)
    wall = sum(r["wall_s"] for r in rounds)
    tail_q = rounds[0]["tail_q"]
    run_faults = [fault for r in rounds for fault in r["run_faults"]]
    figures = rounds[0]["figures"] or {}
    if any(r["figures"] != rounds[0]["figures"] for r in rounds):
        run_faults.append("figures differ between rounds of one run")
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": completed / wall,
        "latency_p50_s": _required(
            percentile(_pooled(rounds, "latencies"), 0.5), "the median"),
        "latency_tail_s": _required(
            percentile(_pooled(rounds, "tail_latencies"), tail_q),
            f"the p{tail_q * 100:g} tail"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        **figures,
    }
    raw_wall = sum(r["raw_wall_s"] for r in rounds)
    notes = [f"{len(rounds)} round(s) of {wall:.3f} reference-host s "
             f"({raw_wall:.3f} s as timed), {len(setups)} set-up "
             f"sample(s), tail = p{tail_q * 100:g}"]
    return _result(rounds, metrics, run_faults), notes


def per_layer(children: _Children) -> tuple[dict, list]:
    plain = children.run()
    traced = children.run("--trace")
    metrics = dict.fromkeys(SERVE_ONLY_LAYERS, 0)
    metrics.update(traced["layers"])
    metrics["obs.trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    rounds = [plain, traced]
    run_faults = plain["run_faults"] + traced["run_faults"]
    notes = [f"untraced {plain['wall_s']:.3f} s, traced "
             f"{traced['wall_s']:.3f} s (reference-host seconds)"]
    return _result(rounds, metrics, run_faults), notes


def _result(rounds, metrics, run_faults) -> dict:
    failed = sum(r["failed"] for r in rounds)
    return {
        "correct": not run_faults and not failed,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
        "faults": run_faults + [f for r in rounds for f in r["faults"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is missing",
              file=sys.stderr)
        return 2
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children = _Children(args.workload, args.seed, work)
    try:
        if args.trace:
            result, notes = per_layer(children)
        else:
            result, notes = end_to_end(children, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass

    print(f"{args.workload} seed {args.seed}: {'; '.join(notes)}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for fault in result["faults"]:
        print(f"  fault: {fault}")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        # failed items left the Figure 7/8 averages without a benchmark
        print(f"  fault: no value for {missing}")
        result["correct"] = False
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"]),
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        value = "null" if metric["value"] is None else \
            f"{metric['value']:.6g}"
        print(f"  {name:32s} {value:>16s} {metric['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
