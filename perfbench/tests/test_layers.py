import types

import pytest

from perfbench.layers import (
    LayerRecorder,
    instrumented,
    layer_metrics,
    self_times,
    span_layer,
)


def test_self_time_of_nested_intervals():
    intervals = [(0, 100, "root"), (10, 60, "outer"), (20, 30, "inner"),
                 (40, 50, "inner"), (70, 80, "other")]
    assert self_times(intervals) == {
        "root": 40, "outer": 30, "inner": 20, "other": 10}


def test_self_time_with_shared_endpoints():
    # a call opening or closing at the same instant as its caller is
    # still the innermost interval while it runs
    assert self_times([(5, 10, "inner"), (0, 10, "outer")]) == {
        "outer": 5, "inner": 5}
    assert self_times([(0, 5, "inner"), (0, 10, "outer")]) == {
        "outer": 5, "inner": 5}


def test_span_names_map_to_layers():
    assert span_layer("peel_short_loops") == "looptrans.peel"
    assert span_layer("modulo:loop3") == "sched.modulo"
    assert span_layer("list:main") == "sched.list"
    assert span_layer("no_such_pass") is None


def test_wrappers_time_calls_and_restore_originals():
    clock = iter(range(0, 1000, 10))
    recorder = LayerRecorder(lambda: next(clock))
    owner = types.SimpleNamespace(work=lambda x: x * 2)
    original = owner.work
    with instrumented(recorder, [(owner, "work", "interp", None)]):
        assert owner.work(21) == 42
        assert owner.work is not original
    assert owner.work is original
    assert recorder.calls["interp"] == 1
    assert recorder.intervals == [(0, 10, "interp")]


def test_layer_metrics_add_up_to_the_wall():
    recorder = LayerRecorder(lambda: 0)
    recorder.intervals = [(10e6, 30e6, "interp"), (40e6, 50e6, "frontend")]
    recorder.calls.update({"interp": 1, "frontend": 2})
    span = types.SimpleNamespace(name="peel_short_loops", ts_us=60e6,
                                 dur_us=20e6, attrs={"loops_peeled": 3})
    metrics = layer_metrics(recorder, [span], 0.0, 100e6)
    assert metrics["interp.profile_s"] == pytest.approx(20)
    assert metrics["frontend.parse_lower_s"] == pytest.approx(10)
    assert metrics["looptrans.peel_s"] == pytest.approx(20)
    assert metrics["looptrans.loops_peeled"] == 3
    assert metrics["frontend.calls"] == 2
    assert metrics["unattributed_s"] == pytest.approx(50)
    assert metrics["obs.attributed_frac"] == pytest.approx(0.5)


def test_dispatch_table_entries_are_wrapped_and_restored():
    recorder = LayerRecorder(lambda: 0)
    table = {"fast": lambda: "ran"}
    original = table["fast"]
    with instrumented(recorder, [(table, "fast", "pipeline.compile", None)]):
        assert table["fast"]() == "ran"
    assert table["fast"] is original
    assert recorder.calls["pipeline.compile"] == 1
