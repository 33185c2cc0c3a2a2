"""The three workloads: set-up, one timed round, and its output checks.

A round runs in a fresh process (:mod:`perfbench.child`), in-process and
with one load-generating thread.  ``setup`` prepares inputs and caches;
``measure`` times the work, then checks every output outside the timed
region and returns the round's raw record (see :func:`_record`).
"""

from __future__ import annotations

import resource
import shutil
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro import frontend, obs, pipeline
from repro.bench import benchmark, benchmark_names
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Result, Fig8Row
from repro.fuzz.gen import generate_source
from repro.fuzz.oracle import DEFAULT_MAX_STEPS, reference_outcome
from repro.runner import parallel
from repro.runner.cache import ArtifactCache
from repro.runner.metrics import MetricsRecorder
from repro.runner.summary import RunSummary
from repro.serve.protocol import Request
from repro.serve.service import Service, ServiceConfig
from repro.sim.power import FetchEnergy, unbuffered_baseline

from perfbench import checks, streams
from perfbench.calibrate import HostSpeed
from perfbench.layers import (
    LayerRecorder,
    instrumented,
    layer_metrics,
    layer_targets,
)
from perfbench.stats import percentile

#: faults quoted in a round record (the count is always complete)
MAX_QUOTED_FAULTS = 5
#: serve-zipf requests between two calibration slices
REQUESTS_PER_SLICE = 10


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timings:
    """Latencies of a round's units of work, each with the calibration
    segment it ran in (see :class:`~perfbench.calibrate.HostSpeed`)."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.segment = self.speed.slice()
        #: series -> latencies, each a list of (seconds, segment) pieces
        self.series: dict[str, list[list[tuple[float, int]]]] = {
            "items": [], "tail": []}

    def piece(self, seconds: float) -> tuple[float, int]:
        return (seconds, self.segment)

    def add(self, seconds: float, series: str = "items") -> None:
        self.series[series].append([self.piece(seconds)])

    def add_pieces(self, pieces: list, series: str = "items") -> None:
        """One latency that spans calibration slices."""
        self.series[series].append(pieces)

    def recalibrate(self) -> None:
        self.segment = self.speed.slice()

    def raw(self, series: str = "items") -> list[float]:
        return [sum(seconds for seconds, _ in pieces)
                for pieces in self.series[series]]

    def scaled(self, series: str = "items") -> list[float]:
        """Latencies in reference-host seconds."""
        scale = self.speed.scale
        return [sum(seconds * scale(segment) for seconds, segment in pieces)
                for pieces in self.series[series]]


@contextmanager
def _timed_region(traced: bool):
    """Yields ``(out, timings)``; ``out`` receives the peak RSS and, when
    traced, the round's per-layer metrics."""
    out: dict = {}
    with ExitStack() as stack:
        recorder = tracer = None
        if traced:
            tracer = obs.Tracer()
            recorder = LayerRecorder(tracer.now_us)
            stack.enter_context(obs.use(tracer))
            stack.enter_context(instrumented(recorder, layer_targets()))
            start_us = tracer.now_us()
        timings = Timings()
        yield out, timings
        timings.recalibrate()
        if traced:
            out["layers"] = layer_metrics(recorder, tracer.spans, start_us,
                                          tracer.now_us())
    out["peak_rss_mb"] = _peak_rss_mb()


def figures(summaries: dict) -> dict[str, float] | None:
    """Figure 7/8 headline numbers from ``{(program, pipeline, capacity):
    RunSummary}``: mean aggressive buffer issue at 256 ops (as
    :class:`Fig7Result` averages it), geometric-mean speedup and mean
    fetch-energy saving against unbuffered traditional code (as
    :mod:`repro.experiments.fig8` computes them).  A program missing one
    of the three cells these need (a failed item) is left out; ``None``
    when no program is left."""
    cap = streams.HEADLINE_CAPACITY
    needed = [(p, cap) for p in streams.PIPELINES] + [("traditional", None)]
    names = sorted({key[0] for key in summaries
                    if all((key[0], p, c) in summaries for p, c in needed)})
    if not names:
        return None
    fig7 = Fig7Result(sizes=(cap,))
    fig8 = Fig8Result()
    for pipeline_name in streams.PIPELINES:
        fig7.series[pipeline_name] = {
            name: [summaries[(name, pipeline_name, cap)].buffer_fraction]
            for name in names}
    for name in names:
        trad = summaries[(name, "traditional", cap)]
        aggr = summaries[(name, "aggressive", cap)]
        baseline = unbuffered_baseline(
            summaries[(name, "traditional", None)].ops_issued)
        fig8.rows.append(Fig8Row(
            name=name,
            speedup=trad.cycles / aggr.cycles,
            code_size_ratio=aggr.static_ops / trad.static_ops,
            bundle_ratio=aggr.bundles / trad.bundles,
            fetch_ratio=aggr.ops_issued / trad.ops_issued,
            power_baseline_buffered=FetchEnergy(
                trad.ops_from_memory, trad.ops_from_buffer,
                cap).normalized_to(baseline),
            power_transformed_buffered=FetchEnergy(
                aggr.ops_from_memory, aggr.ops_from_buffer,
                cap).normalized_to(baseline),
        ))
    return {
        "buffer_issue_frac": fig7.average_at("aggressive", cap),
        "speedup_geomean": fig8.average_speedup(),
        "fetch_energy_saving": fig8.average_power_reduction()[1],
    }


def _summary(name: str, pipeline_name: str, capacity, compiled,
             outcome) -> RunSummary:
    counters = outcome.counters
    return RunSummary(
        name=name, pipeline=pipeline_name, capacity=capacity,
        cycles=counters.cycles, bundles=counters.bundles,
        ops_issued=counters.ops_issued,
        ops_from_buffer=counters.ops_from_buffer,
        ops_from_memory=counters.ops_from_memory,
        static_ops=compiled.static_ops,
        branch_bubbles=counters.branch_bubbles)


def _record(region: dict, timings: Timings, attempted: int,
            faults: list[str], failed: int, tail_series: str,
            tail_q: float, figure_values: dict | None,
            run_faults: list[str], extra_layers: dict | None = None) -> dict:
    """The result of one round, as the parent process reads it.  The
    units of work cover the timed region, so their latencies sum to its
    wall time."""
    latencies = timings.scaled()
    record = {
        "wall_s": sum(latencies),
        "raw_wall_s": sum(timings.raw()),
        "peak_rss_mb": region["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "faults": faults[:MAX_QUOTED_FAULTS],
        "latencies": latencies,
        "tail_latencies": timings.scaled(tail_series),
        "tail_q": tail_q,
        "figures": figure_values,
        "run_faults": run_faults,
    }
    if "layers" in region:
        record["layers"] = dict(region["layers"], **(extra_layers or {}))
    return record


def _figures_or_fault(summaries: dict, run_faults: list[str]):
    try:
        return figures(summaries)
    except (ZeroDivisionError, ValueError) as exc:
        run_faults.append(f"figures incomplete: {type(exc).__name__}: {exc}")
        return None


# --------------------------------------------------------------------------
# fig7-grid-cold


class _CellClock(MetricsRecorder):
    """Times each cell as the runner finishes it, then takes a
    calibration slice; :attr:`pieces` make up the group's latency.  The
    cell's tail sample leaves out the base compile the runner records on
    the group's first cell, so it is the capacity step alone."""

    def __init__(self, timings: Timings) -> None:
        super().__init__()
        self.timings = timings
        self.pieces: list[tuple[float, int]] = []
        self.last = time.perf_counter()

    def add_cell(self, cell) -> None:
        super().add_cell(cell)
        seconds = time.perf_counter() - self.last
        self.pieces.append(self.timings.piece(seconds))
        self.timings.add(seconds - cell.stages.get("compile", 0.0), "tail")
        self.timings.recalibrate()
        self.last = time.perf_counter()

    def finish_group(self) -> list[tuple[float, int]]:
        self.pieces.append(
            self.timings.piece(time.perf_counter() - self.last))
        return self.pieces


def _run_group(cells, cache, clock: _CellClock) -> list:
    """``run_grid`` over one group, one outcome per cell: its summary, the
    exception it raised, or ``None`` for a cell that finished in a call
    that raised later.  ``run_grid`` stops at a group's first failing
    cell, so the cells after it go on in a fresh call."""
    outcomes: list = []
    while len(outcomes) < len(cells):
        rest = cells[len(outcomes):]
        before = len(clock.cells)
        try:
            outcomes += parallel.run_grid(rest, workers=1, cache=cache,
                                          metrics=clock)
        except Exception as exc:  # counted as a failed cell
            finished = min(len(clock.cells) - before, len(rest) - 1)
            outcomes += [None] * finished + [exc]
    return outcomes


class Fig7GridCold:
    """The Figure 7 grid (plus Figure 8(b)'s unbuffered traditional
    cells) through ``run_grid`` with one in-process worker, one
    (benchmark, pipeline) group at a time, against an emptied cache."""

    tail_q = 0.9

    def setup(self, work: Path, seed: int, speed: HostSpeed) -> dict:
        names = benchmark_names()
        return {
            "groups": streams.grid_groups(names),
            "cache": ArtifactCache(_fresh_dir(work / "cache")),
        }

    def measure(self, state: dict, traced: bool) -> dict:
        # capacity -> (simulated value, summary) of the running group
        captured: dict = {}
        group: list = []
        run_compiled = parallel.run_compiled

        def capture(compiled, *args, **kwargs):
            outcome = run_compiled(compiled, *args, **kwargs)
            captured[compiled.buffer_capacity] = (
                outcome.result.value,
                _summary(*group, compiled.buffer_capacity, compiled, outcome))
            return outcome

        results = []  # (name, pipeline, cells, outcomes, captured)
        parallel.run_compiled = capture
        try:
            with _timed_region(traced) as (region, timings):
                for name, pipeline_name, capacities in state["groups"]:
                    cells = parallel.expand_grid([name], [pipeline_name],
                                                 capacities)
                    captured = {}
                    group[:] = [name, pipeline_name]
                    clock = _CellClock(timings)
                    outcomes = _run_group(cells, state["cache"], clock)
                    timings.add_pieces(clock.finish_group())
                    results.append((name, pipeline_name, cells, outcomes,
                                    captured))
        finally:
            parallel.run_compiled = run_compiled

        faults: list[str] = []
        failed = attempted = 0
        summaries = {}
        expected = {}
        for name, pipeline_name, cells, outcomes, values in results:
            attempted += len(cells)
            if name not in expected:
                expected[name] = benchmark(name).expected()
            for cell, outcome in zip(cells, outcomes):
                where = f"{name}/{pipeline_name}@{cell.capacity}"
                if isinstance(outcome, Exception):
                    failed += 1
                    faults.append(f"{where}: {type(outcome).__name__}: "
                                  f"{outcome}")
                    continue
                value, summary = values.get(cell.capacity, (None, None))
                # a finished cell of a call that raised has only the
                # summary captured from its simulation
                summary = outcome or summary
                cell_faults = checks.summary_faults(summary) + \
                    checks.value_faults(value, expected[name], "checksum")
                if cell_faults:
                    failed += 1
                    faults.extend(f"{where}: {f}" for f in cell_faults)
                else:
                    summaries[(name, pipeline_name, cell.capacity)] = summary
        run_faults: list[str] = []
        cap = streams.HEADLINE_CAPACITY
        run_faults += checks.claim_faults(
            [s.buffer_fraction for (_, p, c), s in summaries.items()
             if p == "traditional" and c == cap],
            [s.buffer_fraction for (_, p, c), s in summaries.items()
             if p == "aggressive" and c == cap])
        return _record(region, timings, attempted, faults, failed, "tail",
                       self.tail_q,
                       _figures_or_fault(summaries, run_faults), run_faults)


# --------------------------------------------------------------------------
# fuzz-corpus-compile


class FuzzCorpusCompile:
    """Generated programs through the frontend and both pipelines, each
    retargeted at 256 ops and simulated, with no cache."""

    tail_q = 0.9

    def setup(self, work: Path, seed: int, speed: HostSpeed) -> dict:
        return {"programs": [(gen_seed, generate_source(gen_seed))
                             for gen_seed in streams.corpus_order(seed)]}

    def measure(self, state: dict, traced: bool) -> dict:
        compilers = {"traditional": "compile_traditional",
                     "aggressive": "compile_aggressive"}
        cap = streams.HEADLINE_CAPACITY
        items = []  # (program, pipeline, {capacity: (summary, value)} | exc)
        with _timed_region(traced) as (region, timings):
            for gen_seed, source in state["programs"]:
                name = f"gen{gen_seed}"
                for pipeline_name in streams.PIPELINES:
                    start = time.perf_counter()
                    try:
                        module = frontend.compile_source(source)
                        base = getattr(pipeline, compilers[pipeline_name])(
                            module, buffer_capacity=None,
                            max_steps=DEFAULT_MAX_STEPS)
                        runs = {}
                        capacities = (cap, None) \
                            if pipeline_name == "traditional" else (cap,)
                        for capacity in capacities:
                            compiled = pipeline.with_buffer(base, capacity)
                            outcome = pipeline.run_compiled(
                                compiled, max_steps=DEFAULT_MAX_STEPS)
                            runs[capacity] = (
                                _summary(name, pipeline_name, capacity,
                                         compiled, outcome),
                                outcome.result.value)
                    except Exception as exc:  # counted as a failed item
                        runs = exc
                    timings.add(time.perf_counter() - start)
                    items.append((gen_seed, source, pipeline_name, runs))
                timings.recalibrate()

        faults: list[str] = []
        failed = 0
        summaries = {}
        references: dict[int, tuple] = {}
        for gen_seed, source, pipeline_name, runs in items:
            where = f"gen{gen_seed}/{pipeline_name}"
            if gen_seed not in references:
                references[gen_seed] = reference_outcome(source)
            if isinstance(runs, Exception):
                failed += 1
                faults.append(f"{where}: {type(runs).__name__}: {runs}")
                continue
            item_faults = []
            for capacity, (summary, value) in runs.items():
                item_faults += checks.summary_faults(summary)
                item_faults += checks.value_faults(
                    ("value", value), references[gen_seed], f"@{capacity}")
            if item_faults:
                failed += 1
                faults.extend(f"{where}: {f}" for f in item_faults)
                continue
            for capacity, (summary, _value) in runs.items():
                summaries[(summary.name, pipeline_name, capacity)] = summary
        run_faults: list[str] = []
        return _record(region, timings, len(items), faults, failed, "items",
                       self.tail_q,
                       _figures_or_fault(summaries, run_faults), run_faults)


# --------------------------------------------------------------------------
# serve-zipf


def _ask(service: Service, cell: tuple):
    """The service's response to a ``run`` request for ``cell``, or the
    exception the request raised."""
    try:
        return service.request(Request(kind="run", benchmark=cell[0],
                                       pipeline=cell[1], capacity=cell[2]))
    except Exception as exc:  # counted as a failed request
        return exc


def _failure(response) -> str | None:
    """Why ``response`` (from :func:`_ask`) is not an answer, or ``None``."""
    if isinstance(response, Exception):
        return f"{type(response).__name__}: {response}"
    if not response.ok:
        return f"status {response.status}: {response.error}"
    return None


class ServeZipf:
    """A closed-loop client sending Zipf-distributed Figure 7 cells to an
    in-process service whose cache set-up warmed with every compiled base
    and its headline-capacity summary."""

    tail_q = 0.99

    def setup(self, work: Path, seed: int, speed: HostSpeed) -> dict:
        names = benchmark_names()
        cache_dir = _fresh_dir(work / "cache")
        setup_faults = []
        with Service(ServiceConfig(workers=1, cache_dir=str(cache_dir))) \
                as service:
            for cell in streams.warm_cells(names):
                failure = _failure(_ask(service, cell))
                if failure:
                    setup_faults.append("set-up {}/{}@{}: ".format(*cell)
                                        + failure)
                speed.slice()
        return {"cache_dir": str(cache_dir),
                "requests": streams.zipf_requests(names, seed),
                "names": names, "setup_faults": setup_faults}

    def measure(self, state: dict, traced: bool) -> dict:
        service = Service(ServiceConfig(workers=1,
                                        cache_dir=state["cache_dir"]))
        answered = []
        try:
            with _timed_region(traced) as (region, timings):
                for index, cell in enumerate(state["requests"], 1):
                    start = time.perf_counter()
                    response = _ask(service, cell)
                    timings.add(time.perf_counter() - start)
                    answered.append((cell, response))
                    if index % REQUESTS_PER_SLICE == 0:
                        timings.recalibrate()
            stats = service.snapshot()["stats"]
            # the figure cells set-up warmed, answered outside the timing
            figure_cells = [(cell, _ask(service, cell))
                            for cell in streams.warm_cells(state["names"])]
        finally:
            service.close()

        expected = {name: benchmark(name).expected()
                    for name in state["names"]}
        faults: list[str] = []
        failed = 0
        seen: dict[tuple, RunSummary] = {}
        summaries = {}
        checked = [(cell, r, True) for cell, r in answered] + \
            [(cell, r, False) for cell, r in figure_cells]
        for cell, response, timed in checked:
            where = "{}/{}@{}".format(*cell)
            failure = _failure(response)
            if failure:
                cell_faults = [failure]
            else:
                # a run-cache hit answers with the reference checksum
                # itself (Service._probe), so the value check has teeth
                # only on the responses the service computed; a hit is
                # checked by the summary identities and against the
                # summary first seen for its cell
                summary = response.summary()
                cell_faults = checks.summary_faults(summary) + \
                    checks.value_faults(response.payload.get("value"),
                                        expected[cell[0]], "value")
                if cell in seen:
                    cell_faults += checks.consistency_faults(
                        seen[cell], summary, where)
                seen.setdefault(cell, summary)
            if cell_faults:
                faults.extend(f"{where}: {f}" for f in cell_faults)
                if timed:
                    failed += 1
            elif not timed:
                summaries[cell] = summary
        run_faults = list(state["setup_faults"])
        if len(summaries) != len(figure_cells):
            run_faults.append("a figure cell failed its checks")
        extra = None
        if "layers" in region:
            raw = timings.raw()
            served = [None if isinstance(r, Exception) else r.meta.get("served")
                      for _, r in answered]
            hits = [t for s, t in zip(served, raw) if s == "run-cache"]
            misses = [t for s, t in zip(served, raw) if s == "computed"]
            extra = {
                "serve.hit_latency_p50_s": percentile(hits, 0.5) or 0.0,
                "serve.miss_latency_p50_s": percentile(misses, 0.5) or 0.0,
                "serve.hits": stats["run_cache_hits"],
                "serve.computations": stats["computations"],
                "serve.base_memo_hits": stats["base_memo_hits"],
                "serve.base_cache_hits": stats["base_cache_hits"],
                "serve.base_compiles": stats["base_compiles"],
            }
        return _record(region, timings, len(answered), faults, failed,
                       "items", self.tail_q,
                       _figures_or_fault(summaries, run_faults), run_faults,
                       extra)


WORKLOADS = {
    "fig7-grid-cold": Fig7GridCold(),
    "fuzz-corpus-compile": FuzzCorpusCompile(),
    "serve-zipf": ServeZipf(),
}
