import dataclasses

import pytest

from perfbench import checks
from repro.runner.summary import RunSummary

GOOD = RunSummary(name="k", pipeline="aggressive", capacity=256,
                  cycles=130, bundles=120, ops_issued=700,
                  ops_from_buffer=600, ops_from_memory=100, static_ops=90,
                  branch_bubbles=10)


def test_a_consistent_summary_passes():
    assert checks.summary_faults(GOOD) == []
    assert checks.summary_faults(dataclasses.replace(
        GOOD, capacity=None, ops_from_buffer=0, ops_from_memory=700)) == []


@pytest.mark.parametrize("corruption, needle", [
    ({"ops_from_buffer": 601}, "ops_from_buffer"),
    ({"ops_from_memory": 99}, "ops_from_memory"),
    ({"cycles": 131}, "cycles"),
    ({"branch_bubbles": 11}, "branch_bubbles"),
    ({"bundles": 80, "cycles": 90}, "8 * bundles"),
    ({"capacity": None}, "unbuffered"),
    ({"static_ops": -1}, "negative"),
])
def test_each_identity_flags_its_corruption(corruption, needle):
    faults = checks.summary_faults(dataclasses.replace(GOOD, **corruption))
    assert any(needle in fault for fault in faults), faults


def test_value_check_flags_a_wrong_checksum():
    assert checks.value_faults(1234, 1234) == []
    assert checks.value_faults(1235, 1234, "checksum")
    # the fuzz oracle's outcomes are tagged tuples
    assert checks.value_faults(("value", 7), ("value", 7)) == []
    assert checks.value_faults(("value", 7), ("trap", "DivByZero"))


def test_claim_check_flags_traditional_ahead():
    assert checks.claim_faults([0.3, 0.4], [0.8, 0.9]) == []
    assert checks.claim_faults([0.8, 0.9], [0.3, 0.4])
    assert checks.claim_faults([0.5], [0.5])
    assert checks.claim_faults([], [0.5])


def test_consistency_check_flags_a_changed_answer():
    assert checks.consistency_faults(GOOD, GOOD, "cell") == []
    assert checks.consistency_faults(
        GOOD, dataclasses.replace(GOOD, cycles=131), "cell")
