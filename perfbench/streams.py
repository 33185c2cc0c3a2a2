"""Seeded inputs of the three workloads.

Each function is pure in its arguments: the same seed gives the same
stream in every process, so two runs of one seed do the same work.
Nothing here imports :mod:`repro`; the workloads hand these plain tuples
to the program.
"""

from __future__ import annotations

import bisect
import itertools
import random

#: Figure 7 buffer capacities (operations)
FIG7_CAPACITIES = (16, 32, 64, 128, 256, 512, 1024, 2048)
#: the paper's headline capacity (Figures 7 and 8 averages)
HEADLINE_CAPACITY = 256
PIPELINES = ("traditional", "aggressive")

#: the fuzz corpus: generator seeds ``0 .. CORPUS_SIZE - 1``
CORPUS_SIZE = 180
#: requests in one serve-zipf round
ZIPF_REQUESTS = 2500
#: Zipf exponent of the request popularity
ZIPF_EXPONENT = 1.0
#: fixed seed of the popularity ranking (the run seed only drives draws)
ZIPF_RANK_SEED = 20011


def grid_groups(names) -> list[tuple[str, str, tuple]]:
    """The Figure 7 grid as ``(benchmark, pipeline, capacities)`` groups
    in the runner's pipeline-major order.  Traditional groups also run
    unbuffered (``None``), the point Figure 8(b) normalises fetch energy
    to.  The grid has no random inputs, so the seed does not enter: a
    seed-shuffled group order spread the per-group median by 13% over ten
    runs while cells per second spread by 2.5%."""
    return [
        (name, pipeline,
         FIG7_CAPACITIES + ((None,) if pipeline == "traditional" else ()))
        for pipeline in PIPELINES
        for name in sorted(names)
    ]


def corpus_order(seed: int) -> list[int]:
    """Generator seeds of the fuzz corpus in the order this run compiles
    them."""
    order = list(range(CORPUS_SIZE))
    random.Random(seed).shuffle(order)
    return order


def zipf_cells(names) -> list[tuple[str, str, int]]:
    """Every Figure 7 cell, most popular first.  The ranking is fixed so
    that runs differ only in their draws, not in which cells are hot."""
    cells = [
        (name, pipeline, capacity)
        for pipeline in PIPELINES
        for name in sorted(names)
        for capacity in FIG7_CAPACITIES
    ]
    random.Random(ZIPF_RANK_SEED).shuffle(cells)
    return cells


def zipf_requests(names, seed: int, count: int = ZIPF_REQUESTS) -> list[tuple]:
    """``count`` cells drawn from a Zipf(:data:`ZIPF_EXPONENT`) over
    :func:`zipf_cells`."""
    cells = zipf_cells(names)
    cumulative = list(itertools.accumulate(
        1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(cells) + 1)))
    total = cumulative[-1]
    rng = random.Random(seed)
    return [cells[bisect.bisect_right(cumulative, rng.random() * total)]
            for _ in range(count)]


def warm_cells(names) -> list[tuple[str, str, int | None]]:
    """Cells serve-zipf's set-up computes: every (benchmark, pipeline) at
    the headline capacity, plus unbuffered traditional for Figure 8(b)."""
    cells = [(name, pipeline, HEADLINE_CAPACITY)
             for pipeline in PIPELINES for name in sorted(names)]
    cells += [(name, "traditional", None) for name in sorted(names)]
    return cells
