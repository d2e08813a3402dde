"""Smoke test: every workload at its smallest size, untraced and traced.

    python3 -m pytest -q perfbench/tests

Checks that each run succeeds, checks its outputs, and prints every metric
named in BENCHMARK.json with its unit, both as a line of its own and in the
final JSON object.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and workload == "ground_truth":
        assert result["metrics"]["oracle.calls"]["value"] == 2.0


def test_refuses_to_run_without_the_program():
    """With only BENCHMARK.json and the benchmark's files (no src/treeqaoa)
    the benchmark fails, printing no result."""
    os.makedirs(os.path.join(ROOT, "perfbench", "_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, "perfbench", "_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
