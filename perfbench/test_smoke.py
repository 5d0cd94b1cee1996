"""Smoke test of the benchmark itself: every workload on reduced inputs,
one untraced and one traced pass, all output checks on.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DOCS = json.loads((HERE / "metrics.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_every_output(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_every_metric_and_workload_is_documented():
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            doc = DOCS[kind][m["name"]]
            assert doc["workloads"], m["name"]
    assert set(DOCS["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
