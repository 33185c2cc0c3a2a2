"""A faulty item is counted as failed and the run still prints a result."""

import json

from perfbench import run, workloads


class _Clock:
    def __init__(self):
        self.cells = []


def _fake_run_grid(bad, raise_after=False):
    def run_grid(cells, workers, cache, metrics):
        out = []
        for cell in cells:
            if cell == bad:
                raise AssertionError(f"checksum of cell {cell}")
            metrics.cells.append(cell)
            out.append(f"summary {cell}")
        if raise_after:
            raise RuntimeError("after the last cell")
        return out
    return run_grid


def test_a_failing_cell_fails_alone(monkeypatch):
    monkeypatch.setattr(workloads.parallel, "run_grid", _fake_run_grid(3))
    outcomes = workloads._run_group([1, 2, 3, 4, 5], None, _Clock())
    assert outcomes[:2] == [None, None]
    assert isinstance(outcomes[2], AssertionError)
    assert outcomes[3:] == ["summary 4", "summary 5"]


def test_a_call_failing_after_its_cells_fails_its_last(monkeypatch):
    monkeypatch.setattr(workloads.parallel, "run_grid",
                        _fake_run_grid(None, raise_after=True))
    outcomes = workloads._run_group([1, 2, 3], None, _Clock())
    assert outcomes[:2] == [None, None]
    assert isinstance(outcomes[2], RuntimeError)


class _Children:
    """Rounds with one failed item and no complete figure program."""

    def __init__(self, workload, seed, work):
        self.workload = workload

    def run(self, *flags):
        record = {"setup_s": 0.5}
        if "--setup-only" not in flags:
            record.update(
                wall_s=30.0, raw_wall_s=30.0, peak_rss_mb=50.0,
                attempted=360, failed=1, faults=["gen7/aggressive: boom"],
                latencies=[0.1] * 360, tail_latencies=[0.2] * 360,
                tail_q=0.9, figures=None, run_faults=[])
        return record


def test_failed_items_still_give_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "_Children", _Children)
    code = run.main(["--workload", "fuzz-corpus-compile", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (360, 1)
    assert result["metrics"]["speedup_geomean"]["value"] is None
    assert result["metrics"]["items_per_s"]["value"] == 359 / 30.0
