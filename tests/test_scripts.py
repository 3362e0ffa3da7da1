"""Smoke runs of the command-line scripts in scripts/."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_divisibility_sweep_smoke():
    out = run_script("divisibility_sweep.py", "--seeds", "2", "--trunc", "4", "--degree", "2")
    assert out.returncode == 0, out.stderr
    assert any(
        line.startswith("boolean root refusals: 0/2") for line in out.stdout.splitlines()
    )


def test_root_error_scan_smoke():
    out = run_script("root_error_scan.py", "--steps", "2")
    assert out.returncode == 0, out.stderr
    assert "free root of the standard semicircle" in out.stdout


@pytest.mark.parametrize(
    "name,summary",
    [
        ("divisibility_sweep.py", "Sweep seeded realizable laws"),
        ("root_error_scan.py", "Scan convolution-root errors"),
    ],
)
def test_script_help_shows_the_docstring(name, summary):
    out = run_script(name, "--help")
    assert out.returncode == 0, out.stderr
    assert summary in out.stdout
