"""Smoke check of the benchmark harness: each workload briefly, both modes.

Run from the repository root (takes a few minutes; not part of ``tests/``):

    python3 -m pytest -q perfbench/test_smoke.py

``PERFBENCH_SEED`` selects the input seed (default 0).  To check a claim on
inputs not seen while writing it, pass a held-out seed, i.e. one outside the
development range 0-999 (for example ``PERFBENCH_SEED=7919``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = int(os.environ.get("PERFBENCH_SEED", "0"))


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_job_reports_every_metric_without_failures(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["attempted"] >= 2
    assert result["failed"] == 0 and result["correct"], proc.stderr


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
