"""One set-up or one timed round of a workload, in a fresh process.

``python -m perfbench.child WORKLOAD --seed N --work DIR [--setup-only]
[--trace]`` prints one JSON line: the set-up time (from process start,
so it includes importing the program, scaled to the reference host by
calibration slices taken at its start and end) and, unless
``--setup-only``, the round record of :mod:`perfbench.workloads`.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench.calibrate import HostSpeed  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.slice()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.work, args.seed, speed)
    speed.slice()
    # from this module's first line to the first slice, then the segments
    # between slices
    started = speed.bounds[0][0] - PROCESS_START
    record = {"setup_s": started * speed.scale(0) + speed.scaled_span()}
    if not args.setup_only:
        record.update(workload.measure(state, args.trace))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
