"""Per-layer timing, taken from outside the program.

A traced round installs a :class:`repro.obs.Tracer` (so the pipeline's
own pass spans are recorded) and replaces the public functions of the
other layers, where their callers look them up, with timing wrappers.
Both kinds of interval share the tracer's clock.  A layer's time is its
*self* time: the time during which it is the innermost open interval,
so nested layers are never counted twice and the layers of a round add
up to its wall time, less what no layer covers (``unattributed_s``).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager

#: pipeline span name -> layer
SPAN_LAYERS = {
    "compile_traditional": "pipeline.compile",
    "compile_aggressive": "pipeline.compile",
    "simplify_cfg": "opt.simplify_cfg",
    "optimize_function": "opt.local",
    "eliminate_dead_code": "opt.dce",
    "sink_partially_dead": "opt.dce",
    "inline_module": "opt.inline",
    "reassociate_function": "opt.reassoc",
    "form_loop_hyperblocks": "predication.hyperblock",
    "form_hammock_hyperblocks": "predication.hyperblock",
    "combine_branches": "predication.combine",
    "promote_function": "predication.promote",
    "peel_short_loops": "looptrans.peel",
    "collapse_nested_loops": "looptrans.collapse",
    "convert_counted_loops": "looptrans.cloop",
    "modulo_schedule": "sched.modulo",
    "list_schedule": "sched.list",
    "assign_buffer": "loopbuffer.retarget",
    "with_buffer": "loopbuffer.retarget",
    "simulate": "sim.simulate",
    "serve_batch": "serve.service",
}
#: span name prefix -> layer (per-block and per-function scheduler spans)
SPAN_PREFIXES = {"modulo:": "sched.modulo", "list:": "sched.list"}

#: (span name, attribute) summed into a count metric
SPAN_COUNTS = {
    "looptrans.loops_peeled": ("peel_short_loops", "loops_peeled"),
    "looptrans.loops_collapsed": ("collapse_nested_loops", "loops_collapsed"),
    "predication.branches_combined": ("combine_branches",
                                      "branches_combined"),
    "predication.promoted": ("promote_function", "promoted"),
    "sched.loops_modulo": ("modulo_schedule", "loops_scheduled"),
}

#: layer -> its self-time metric
TIME_METRICS = {
    "frontend": "frontend.parse_lower_s",
    "interp": "interp.profile_s",
    "ir.verify": "ir.verify_s",
    "opt.simplify_cfg": "opt.simplify_cfg_s",
    "opt.local": "opt.local_s",
    "opt.dce": "opt.dce_s",
    "opt.inline": "opt.inline_s",
    "opt.reassoc": "opt.reassoc_s",
    "predication.hyperblock": "predication.hyperblock_s",
    "predication.combine": "predication.combine_s",
    "predication.promote": "predication.promote_s",
    "looptrans.peel": "looptrans.peel_s",
    "looptrans.collapse": "looptrans.collapse_s",
    "looptrans.cloop": "looptrans.cloop_s",
    "sched.modulo": "sched.modulo_s",
    "sched.list": "sched.list_s",
    "pipeline.compile": "pipeline.compile_s",
    "loopbuffer.retarget": "loopbuffer.retarget_s",
    "sim.simulate": "sim.simulate_s",
    "runner.cache_load": "runner.cache_load_s",
    "runner.cache_store": "runner.cache_store_s",
    "runner.run_key": "runner.run_key_s",
    "runner.grid": "runner.overhead_s",
    "bench.reference": "bench.reference_s",
    "serve.service": "serve.service_s",
}

#: wrapped layer -> its call-count metric
CALL_METRICS = {
    "frontend": "frontend.calls",
    "interp": "interp.profile_runs",
    "loopbuffer.retarget": "loopbuffer.retargets",
    "sim.simulate": "sim.runs",
    "runner.cache_load": "runner.cache_loads",
    "runner.cache_store": "runner.cache_stores",
    "bench.reference": "bench.reference_calls",
}

#: the timed region itself; its self time is what no layer covers
ROOT = "unattributed"
#: the benchmark's own calibration slices, left out of the wall time
CALIBRATION = "calibration"


def span_layer(name: str) -> str | None:
    layer = SPAN_LAYERS.get(name)
    if layer is None:
        for prefix, prefixed in SPAN_PREFIXES.items():
            if name.startswith(prefix):
                return prefixed
    return layer


class LayerRecorder:
    """Collects ``(start_us, end_us, layer)`` intervals and counts."""

    def __init__(self, now) -> None:
        self.now = now
        self.intervals: list[tuple[float, float, str]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as ``layer``; ``after(counts, result)`` may add
        counts once the call returned."""
        now, intervals, calls, counts = (self.now, self.intervals,
                                         self.calls, self.counts)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                intervals.append((start, now(), layer))
                calls[layer] += 1
            if after is not None:
                after(counts, result)
            return result

        return timed


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


@contextmanager
def instrumented(recorder: LayerRecorder, targets):
    """Replace each ``(owner, name, layer, after)`` -- a module or class
    attribute, or a dispatch-table entry -- with a timing wrapper for the
    duration of the block."""
    saved = []
    try:
        for owner, name, layer, after in targets:
            original = _get(owner, name)
            saved.append((owner, name, original))
            _set(owner, name, recorder.wrap(layer, original, after))
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            _set(owner, name, original)


def _count_hit(counts: Counter, result) -> None:
    if result is not None:
        counts["runner.cache_hits"] += 1


def _count_bytes(counts: Counter, path) -> None:
    if path is not None:
        counts["runner.cache_bytes_stored"] += path.stat().st_size


def _count_ops(counts: Counter, outcome) -> None:
    counts["sim.ops_issued"] += outcome.counters.ops_issued


def layer_targets() -> list[tuple]:
    """Where each layer's callers look its public functions up."""
    from repro import frontend, pipeline
    from repro.bench.suite import Benchmark
    from repro.runner import parallel
    from repro.runner.cache import ArtifactCache
    from repro.serve import service

    from perfbench.calibrate import HostSpeed

    targets = [
        (HostSpeed, "slice", CALIBRATION, None),
        (frontend, "compile_source", "frontend", None),
        (Benchmark, "build", "frontend", None),
        (Benchmark, "expected", "bench.reference", None),
        (pipeline, "profile_module", "interp", None),
        (pipeline, "verify_module", "ir.verify", None),
        (ArtifactCache, "load", "runner.cache_load", _count_hit),
        (ArtifactCache, "store", "runner.cache_store", _count_bytes),
        (parallel, "run_grid", "runner.grid", None),
        (service.Service, "request", "serve.service", None),
    ]
    # the pipelines copy their input before their own span opens; the
    # runner and the service call them through the runner's table
    for pipeline_name in parallel.PIPELINES:
        targets.append((pipeline, f"compile_{pipeline_name}",
                        "pipeline.compile", None))
        targets.append((parallel._COMPILERS, pipeline_name,
                        "pipeline.compile", None))
    for module in (pipeline, parallel, service):
        targets.append((module, "with_buffer", "loopbuffer.retarget", None))
        targets.append((module, "run_compiled", "sim.simulate", _count_ops))
    for module in (parallel, service):
        targets.append((module, "run_key", "runner.run_key", None))
    return targets


def self_times(intervals) -> dict[str, float]:
    """Self time per layer, in the intervals' unit.

    Each instant belongs to the innermost open interval (the one entered
    last).  Intervals from the service's worker thread nest inside the
    client's request in time, so one sweep over all threads works.
    """
    events = []
    for index, (start, end, _layer) in enumerate(intervals):
        # at equal times: ends before starts, inner ends first, outer
        # starts first
        events.append((start, 1, -end, index))
        events.append((end, 0, -start, index))
    events.sort()
    totals: dict[str, float] = defaultdict(float)
    open_: list[int] = []
    last = 0.0
    for time, is_start, _order, index in events:
        if open_:
            totals[intervals[open_[-1]][2]] += time - last
        last = time
        if is_start:
            open_.append(index)
        else:
            open_.remove(index)
    return dict(totals)


def layer_metrics(recorder: LayerRecorder, spans, start_us: float,
                  end_us: float) -> dict[str, float]:
    """Every per-layer metric of one traced round (zero where the
    workload does not exercise the layer)."""
    intervals = list(recorder.intervals)
    counts = Counter(recorder.counts)
    for span in spans:
        layer = span_layer(span.name)
        if layer is not None and span.dur_us is not None:
            intervals.append((span.ts_us, span.ts_us + span.dur_us, layer))
    for metric, (name, attribute) in SPAN_COUNTS.items():
        counts[metric] += sum(span.attrs.get(attribute, 0)
                              for span in spans if span.name == name)
    intervals.append((start_us, end_us, ROOT))
    seconds = {layer: us / 1e6 for layer, us in self_times(intervals).items()}

    metrics = {metric: seconds.get(layer, 0.0)
               for layer, metric in TIME_METRICS.items()}
    metrics.update({metric: recorder.calls.get(layer, 0)
                    for layer, metric in CALL_METRICS.items()})
    for metric in (*SPAN_COUNTS, "runner.cache_hits",
                   "runner.cache_bytes_stored"):
        metrics[metric] = counts.get(metric, 0)
    simulate_s = seconds.get("sim.simulate", 0.0)
    metrics["sim.ops_per_host_s"] = (counts["sim.ops_issued"] / simulate_s
                                     if simulate_s else 0.0)
    wall_s = (end_us - start_us) / 1e6 - seconds.get(CALIBRATION, 0.0)
    metrics["unattributed_s"] = seconds.get(ROOT, 0.0)
    metrics["obs.attributed_frac"] = (1.0 - metrics["unattributed_s"] / wall_s
                                      if wall_s else 0.0)
    return metrics
