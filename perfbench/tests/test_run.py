import json
import shutil
import subprocess
import sys

from perfbench.tests.conftest import ROOT


def test_run_refuses_without_the_program(tmp_path):
    # a checkout holding only the benchmark must fail without a result
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-grid-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
