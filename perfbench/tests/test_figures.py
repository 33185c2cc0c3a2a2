import math

import pytest

from repro.runner.summary import RunSummary
from repro.sim.power import MEMORY_ENERGY

from perfbench.workloads import figures


def _summary(name, pipeline, capacity, cycles, buffered, memory):
    return RunSummary(name=name, pipeline=pipeline, capacity=capacity,
                      cycles=cycles, bundles=cycles, ops_issued=buffered + memory,
                      ops_from_buffer=buffered, ops_from_memory=memory,
                      static_ops=10, branch_bubbles=0)


def _grid(name, trad_cycles, aggr_cycles, aggr_buffered):
    return {
        (name, "traditional", 256): _summary(name, "traditional", 256,
                                             trad_cycles, 0, 100),
        (name, "traditional", None): _summary(name, "traditional", None,
                                              trad_cycles, 0, 100),
        (name, "aggressive", 256): _summary(name, "aggressive", 256,
                                            aggr_cycles, aggr_buffered,
                                            100 - aggr_buffered),
    }


def test_figures_by_hand():
    summaries = {**_grid("a", 200, 100, 50), **_grid("b", 300, 100, 100)}
    got = figures(summaries)
    assert got["buffer_issue_frac"] == pytest.approx((0.5 + 1.0) / 2)
    assert got["speedup_geomean"] == pytest.approx(math.sqrt(2.0 * 3.0))
    # energy per op: 41.8 from memory, 1.0 from a 256-op buffer
    power_a = (50 * MEMORY_ENERGY + 50) / (100 * MEMORY_ENERGY)
    power_b = 100 / (100 * MEMORY_ENERGY)
    assert got["fetch_energy_saving"] == pytest.approx(
        1 - (power_a + power_b) / 2)


def test_figures_leave_out_a_program_with_a_failed_cell():
    summaries = {**_grid("a", 200, 100, 50), **_grid("b", 300, 100, 100)}
    del summaries[("a", "traditional", None)]
    assert figures(summaries) == figures(_grid("b", 300, 100, 100))
    assert figures(_grid("b", 300, 100, 100))["speedup_geomean"] == \
        pytest.approx(3.0)
    del summaries[("b", "aggressive", 256)]
    assert figures(summaries) is None
