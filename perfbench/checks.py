"""Output checks shared by the workloads.

Every check returns a list of fault strings (empty when the output is
right), so a workload counts a faulty item as failed and keeps going.
The checks compare against computations made apart from the compiler
and simulator (the benchmarks' pure-Python reference checksums, the
fuzz oracle's reference interpretation of unoptimised IR) or against
identities of the machine model; none compares against a stored copy of
earlier output.
"""

from __future__ import annotations

#: issue width of the paper's VLIW (operations per bundle)
MACHINE_WIDTH = 8

#: integer fields of a run summary
_COUNTERS = ("cycles", "bundles", "ops_issued", "ops_from_buffer",
             "ops_from_memory", "static_ops", "branch_bubbles")


def summary_faults(summary) -> list[str]:
    """Identities every simulated run must satisfy.

    * every issued operation came from the buffer or from memory;
    * ``cycles == bundles + branch_bubbles``, the simulator's cycle model;
    * at most :data:`MACHINE_WIDTH` operations issue per bundle;
    * an unbuffered run fetches nothing from the buffer.
    """
    faults = []
    negative = [name for name in _COUNTERS if getattr(summary, name) < 0]
    if negative:
        faults.append(f"negative counters {negative}")
    if summary.ops_from_buffer + summary.ops_from_memory != summary.ops_issued:
        faults.append(
            f"ops_from_buffer {summary.ops_from_buffer} + ops_from_memory "
            f"{summary.ops_from_memory} != ops_issued {summary.ops_issued}")
    if summary.cycles != summary.bundles + summary.branch_bubbles:
        faults.append(
            f"cycles {summary.cycles} != bundles {summary.bundles} + "
            f"branch_bubbles {summary.branch_bubbles}")
    if summary.ops_issued > MACHINE_WIDTH * summary.bundles:
        faults.append(
            f"ops_issued {summary.ops_issued} > {MACHINE_WIDTH} * bundles "
            f"{summary.bundles}")
    if not summary.capacity and summary.ops_from_buffer:
        faults.append(
            f"unbuffered run issued {summary.ops_from_buffer} ops from the "
            f"buffer")
    return faults


def value_faults(observed, expected, what: str = "value") -> list[str]:
    """The program's result must equal the independently computed one."""
    if observed != expected:
        return [f"{what} {observed!r} != reference {expected!r}"]
    return []


def claim_faults(traditional: list[float], aggressive: list[float]) -> list[str]:
    """The paper's Figure 7 claim at the headline capacity: the
    transformed code's mean buffer issue exceeds the traditional code's."""
    if not traditional or not aggressive:
        return ["no headline-capacity fractions to compare"]
    trad = sum(traditional) / len(traditional)
    aggr = sum(aggressive) / len(aggressive)
    if not aggr > trad:
        return [f"aggressive mean buffer issue {aggr:.4f} does not exceed "
                f"traditional {trad:.4f}"]
    return []


def consistency_faults(first, later, what: str) -> list[str]:
    """The same request answered twice must carry the same summary."""
    if first != later:
        return [f"{what}: {later!r} differs from earlier {first!r}"]
    return []
