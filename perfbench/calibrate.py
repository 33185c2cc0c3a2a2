"""A fixed pure-Python loop whose time tracks the host's speed.

    python3 perfbench/calibrate.py      # prints seconds per loop

The loop does the kind of work the program does (dictionary lookups,
integer arithmetic, calls) and nothing else, so when a benchmark figure
and this time move together between runs the host changed, not the
program.

On a shared host the speed of one core swings by up to 2x within
seconds.  :class:`HostSpeed` therefore times a short *slice* of the loop
between units of work inside a round, and every timing a workload
reports is scaled to the reference host by the slices taken around it
(see ``README.md``).
"""

from __future__ import annotations

import json
import statistics
import time

LOOP_ITERATIONS = 400_000
REPEATS = 5
#: iterations of one calibration slice (about 2.5 ms)
SLICE_ITERATIONS = 5_000
#: a slice's time on the reference host: about the median (2.4 ms) of
#: 600 slices on the 2-CPU x86-64 container the benchmark was sized on
REFERENCE_SLICE_S = 0.0025


def _step(acc: int, value: int) -> int:
    return (acc * 31 + value) & 0xFFFFFFFF


def calibration_loop(iterations: int = LOOP_ITERATIONS) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = i & 1023
        acc = _step(acc, table.get(key, i))
        table[key] = acc ^ i
    return acc


class HostSpeed:
    """Calibration slices taken between units of work.

    Work timed after slice ``k`` and before slice ``k + 1`` belongs to
    segment ``k``; :meth:`scale` turns its seconds into reference-host
    seconds using the mean of the two slices around it.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.bounds: list[tuple[float, float]] = []

    def slice(self) -> int:
        """Time one slice; returns the segment that starts now."""
        start = time.perf_counter()
        calibration_loop(SLICE_ITERATIONS)
        end = time.perf_counter()
        self.slices.append(end - start)
        self.bounds.append((start, end))
        return len(self.slices) - 1

    def scale(self, segment: int) -> float:
        around = self.slices[segment:segment + 2]
        return REFERENCE_SLICE_S / (sum(around) / len(around))

    def scaled_span(self) -> float:
        """Reference-host seconds from the first slice to the last, the
        slices themselves left out."""
        return sum((self.bounds[k + 1][0] - self.bounds[k][1])
                   * self.scale(k) for k in range(len(self.slices) - 1))


def calibrate(repeats: int = REPEATS) -> float:
    """Median seconds of one :func:`calibration_loop`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    print(json.dumps({"calibration_s": calibrate()}))
