"""Smoke runs of the command-line scripts in scripts/."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import OVERFLOW_MOMENTS

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


def test_cli_digest_smoke():
    from ncid.algebra import AlgebraPair
    from ncid.distribution import generate_realizable
    from ncid.serialize import dumps, functional_to_json

    out = run_script(
        "cli_digest.py", "--k", "1", "--d", "1", "--trunc", "4",
        "--pairs", "3", "4", "--orders", "2", "--selftest", "0",
    )
    assert out.returncode == 0, out.stderr
    lines = [line.split(" ", 2) for line in out.stdout.splitlines()]
    # the boolean chain and its six tensor files reloaded; two laws at
    # truncation 5, two pair files and the free and c-free steps, with their
    # ten tensor files reloaded; six identities; the overflow law and three
    # subcommands on it; one selftest
    assert len(lines) == (8 + 6) + (4 + 10 + 10) + 6 + 4 + 1
    assert all(len(digest) == 64 and code in ("0", "1", "2") for digest, code, _ in lines)
    digests = {label: (digest, code) for digest, code, label in lines}
    reloaded = [label for label in digests if label.endswith(" reloaded")]
    assert [label.split(": ")[1] for label in reloaded] == [
        "gen a reloaded", "gen b reloaded", "cumulants reloaded", "convolve reloaded",
        "root reloaded", "extract reloaded", "gen a5 reloaded", "gen b5 reloaded",
        "pair a5 b5 reloaded", "pair b5 a5 reloaded",
        "free cumulants reloaded", "free convolve reloaded", "free root reloaded",
        "cfree cumulants reloaded", "cfree convolve reloaded", "cfree root reloaded",
    ]
    for kind in ("free", "cfree"):  # the steps ran; certify and extract pass or print a witness
        for step in ("cumulants", "convolve", "root"):
            assert digests[f"seeds 3 4: {kind} {step}"][1] == "0"
        for step in ("certify", "extract"):
            assert digests[f"seeds 3 4: {kind} {step}"][1] in ("0", "2")
    for label in reloaded:  # writing inverts loading on every tensor file of the chain
        assert digests[label] == digests[label.removesuffix(" reloaded")]
    # the overflow law's check is refused, and no subcommand on it crashes
    assert [label for _, _, label in lines[-5:-1]] == [
        "overflow law", "overflow law: check B", "overflow law: certify boolean",
        "overflow law: cumulants boolean",
    ]
    assert digests["overflow law: check B"][1] == "1"
    assert digests["overflow law: certify boolean"][1] == "2"  # the law is not positive
    law = generate_realizable(3, AlgebraPair.identity(1), 4, 2)
    text = dumps(functional_to_json(law)) + "\n"
    assert lines[0] == [hashlib.sha256(text.encode()).hexdigest(), "0", "seeds 3 4: gen a"]
    assert lines[-1][1:] == ["0", "selftest seed 0"]


def test_lib_digest_smoke():
    import importlib.util

    import numpy as np

    out = run_script("lib_digest.py", "--src", str(ROOT / "src"), "--trunc", "4")
    assert out.returncode == 0, out.stderr
    lines = [line.split(" ", 1) for line in out.stdout.splitlines()]
    assert all(len(digest) == 64 for digest, _ in lines)
    digests = dict((label, digest) for digest, label in lines)
    assert len(digests) == len(lines)  # one line per output
    for pair in ("(2, 2)", "(2, 4)"):
        for step in (
            "boolean model, two components: phi moment of degree 2, tagged",
            "cfree model, one component: theta moment of degree 4",
            "free model, one component: annihilate of component 0 at cap 2",
            "cfree model, two components: k_insert of component 1 at cap 1",
            "boolean model, one component: Gram at cap 2",
            "free model, two components: Gram at cap 2",
            "boolean model, root of order 3: transfer of component 0 at cap 2",
            "cfree model, root of order 3: theta moment of degree 4",
            "free model, root of order 3: Gram at cap 3",
            "gram of mu at degree 2, no_free_term False",
            "certify cfree of the divisible law at degree 2",
            "free Levy-Hincin certificate",
            "cfree extract",
            "boolean reconstruct at a 4 x 4 point",
            "check B of mu at order 4, seed 1",
            "check R of nu at order 1, seed 0",
            "check R of mu at order 2, seed 1",
            "check cR of (mu_c, nu) at order 3, seed 0",
            "check G of mu at order 4, seed 0",
            "check axioms of mu at order 2, seed 1",
            "check tensor of mu at order 3, seed 0",
            "check cR of (mu_c, nu), dilated by 0.001 at order 2, seed 1",
            "check G of mu, dilated by 1000 at order 4, seed 0",
            "eval_M of mu at the direct sum",
            "eval_B of mu, dilated by 0.001 at the superdiagonal probe",
            "eval_R of nu at the full chain",
            "eval_R of mu, dilated by 1000 at the direct sum",
            "eval_cR of (mu_c, nu), dilated by 1000 at the full chain",
        ):
            assert f"(k, d) = {pair}: {step}" in digests
    # the digests are of the outputs: a model's depth, and the empty word
    spec = importlib.util.spec_from_file_location("lib_digest", ROOT / "scripts" / "lib_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert digests["(k, d) = (2, 4): free model, one component: depth"] == script.digest(4)
    assert digests["(k, d) = (2, 4): boolean model, one component: phi moment of degree 0"] == (
        script.digest(np.eye(4, dtype=complex)))
    assert len(set(digests.values())) > len(digests) // 2
    # a check that raises is digested as its error
    assert digests["(k, d) = (2, 2): check axioms of mu at order 3, seed 0"] == script.digest(
        "OrderExceedsTruncation: axioms check at order 3 needs truncation 5, got 4")
    # a transform is digested at the script's points, a refusal as its error
    from ncid.algebra import AlgebraPair
    from ncid.distribution import generate_realizable
    from ncid.errors import NotBValued
    from ncid.ncfunctions import eval_M, eval_R

    point = script.transform_points(np.random.default_rng(2002), 2, 4)["full chain"]
    mu = generate_realizable(7, AlgebraPair.identity(2), 4, ambient=4)
    assert digests["(k, d) = (2, 2): eval_M of mu at the full chain"] == script.digest(
        eval_M(mu, point))
    point = script.transform_points(np.random.default_rng(2004), 2, 4)["full chain"]
    mu = generate_realizable(7, AlgebraPair.block_diagonal(2, 4), 4, ambient=8)
    with pytest.raises(NotBValued) as refused:
        eval_R(mu, point)
    assert digests["(k, d) = (2, 4): eval_R of mu at the full chain"] == script.digest(
        f"NotBValued: {refused.value}")
    # after the pairs, the overflow law's boolean certificates, which fail
    from ncid.certify import certify
    from ncid.distribution import scalar_from_moments

    law = scalar_from_moments(OVERFLOW_MOMENTS)
    labels = [f"overflow law: certify boolean at degree {n}" for n in (2, 3)]
    assert [label for _, label in lines[-2:]] == labels
    for n, label in zip((2, 3), labels):
        cert = certify("boolean", law, n)
        assert not cert.passed
        assert digests[label] == script.digest(cert)


@pytest.mark.parametrize(
    "name,summary",
    [
        ("divisibility_sweep.py", "Sweep seeded realizable laws"),
        ("root_error_scan.py", "Scan convolution-root errors"),
        ("cli_digest.py", "Print one sha256 per CLI output"),
        ("lib_digest.py", "Print one sha256 per library output"),
    ],
)
def test_script_help_shows_the_docstring(name, summary):
    out = run_script(name, "--help")
    assert out.returncode == 0, out.stderr
    assert summary in out.stdout
