"""Generative gate on the command line.

The argv of every subcommand is drawn from integers in [-2^64, 2^64] (small
ones weighted in, so that many runs are valid), floats with nan and +-inf,
and law files mutated from valid ones: keys dropped, shapes changed,
truncation 0 or any integer, k and d swapped, the embedding scaled.
Whatever is drawn, cli.main must return 0, 1 or 2 with one JSON object on
stdout, and no exception may escape it; under the test configuration a
numpy warning is such an exception.
"""

from __future__ import annotations

import copy
import io
import json
import math
import tempfile
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncid import cli
from ncid.algebra import AlgebraPair
from ncid.distribution import generate_realizable
from ncid.serialize import dumps, functional_to_json


def _law(seed: int, k: int, d: int, trunc: int) -> dict:
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    return json.loads(dumps(functional_to_json(generate_realizable(seed, pair, trunc, 2 * d))))


BASES = (_law(1, 1, 1, 6), _law(2, 2, 2, 4), _law(3, 1, 2, 4))
INTS = st.one_of(st.integers(1, 4), st.integers(-4, 16), st.integers(-2**64, 2**64))
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-9]), st.floats())
KINDS = st.sampled_from(["boolean", "free", "cfree"])
MUTATIONS = ("drop_key", "drop_level", "reshape", "truncation", "swap", "scale")
# gen sizes either side of the byte budget on its text: 4.4 MB of JSON, and
# 1.1 GB and 60 GB, which gen refuses before computing
GEN_SIZES = (("--k=2", "--d=2", "--trunc=8"), ("--k=2", "--d=2", "--trunc=12"),
             ("--k=4", "--d=8", "--trunc=7"))


def _scaled(entry, factor):
    if isinstance(entry, list):
        return [_scaled(e, factor) for e in entry]
    return entry * factor


def _mutate(draw, doc: dict, op: str) -> None:
    levels = doc.get("moments")
    if op == "drop_key" and doc:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif op == "drop_level" and isinstance(levels, dict) and levels:
        levels.pop(draw(st.sampled_from(sorted(levels))))
    elif op == "reshape" and isinstance(levels, dict) and levels:
        n = draw(st.sampled_from(sorted(levels)))
        t = levels[n]
        cut = [t[0], t[:-1]] if isinstance(t, list) and t else []
        levels[n] = draw(st.sampled_from([[t], [t, t], [], 0, *cut]))
    elif op == "truncation":
        doc["truncation"] = draw(st.one_of(st.just(0), INTS))
    elif op == "swap":
        doc["k"], doc["d"] = doc.get("d"), doc.get("k")
    elif op == "scale" and "embed" in doc:
        doc["embed"] = _scaled(doc["embed"], draw(FLOATS))


@st.composite
def law_files(draw, tmp_dir, pair=False):
    """Path of a law, or of a (mu, nu) pair file, each law maybe mutated; a
    pair file where one is wanted, and the other sometimes."""

    def one():
        doc = copy.deepcopy(draw(st.sampled_from(BASES)))
        if draw(st.booleans()):
            for op in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
                _mutate(draw, doc, op)
        return doc

    if draw(st.integers(0, 9)) == 9:
        pair = not pair
    doc = {"mu": one(), "nu": one()} if pair else one()
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=tmp_dir, delete=False) as fh:
        json.dump(doc, fh)
    return fh.name


@st.composite
def argvs(draw, tmp_dir, cmd):
    def num(name):
        return f"{name}={draw(INTS)}"

    def law(pair=False):
        return draw(law_files(tmp_dir, pair))

    def maybe(*args):
        return list(args) if draw(st.booleans()) else []

    if cmd == "gen":
        if draw(st.integers(0, 3)) == 0:
            return ["gen", *draw(st.sampled_from(GEN_SIZES)), num("--seed")]
        return ["gen", num("--k"), num("--d"), num("--trunc"), num("--seed"), *maybe(num("--m"))]
    if cmd == "selftest":
        return ["selftest", *maybe(num("--seed"))]
    tol = maybe(f"--tol={draw(FLOATS)!r}")
    if cmd == "check":
        identity = draw(st.sampled_from(["B", "R", "cR", "G", "axioms", "tensor"]))
        aux = ["--aux", law()] if identity == "cR" else maybe("--aux", law())
        return ["check", "--identity", identity, *maybe(num("--order")), *maybe(num("--seed")),
                law(), *aux]
    kind = draw(KINDS)
    aux = ["--aux", law()] if kind == "cfree" else maybe("--aux", law())
    if cmd == "cumulants":
        return ["cumulants", "--kind", kind, "--in", law(), *aux]
    if cmd == "convolve":
        pair = kind == "cfree"
        return ["convolve", "--kind", kind, law(pair), law(pair), *maybe(law(pair))]
    if cmd == "root":
        return ["root", "--kind", kind, num("--n"), law(kind == "cfree")]
    if cmd == "certify":
        return ["certify", "--kind", kind, num("--degree"), *tol, law(), *aux]
    return ["extract", "--kind", kind, law(), *aux, *tol]


def run_main(argv) -> tuple:
    """(exit code, stdout) of cli.main(argv), run in this process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_one(argv) -> None:
    code, text = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert text.endswith("\n") and text.count("\n") == 1, (argv, text[:200])
    assert isinstance(json.loads(text), dict), (argv, text[:200])


@pytest.mark.parametrize("cmd", sorted(cli._RUNNERS))
def test_cli_gate(tmp_path_factory, cmd):
    tmp_dir = tmp_path_factory.mktemp("gate")
    # selftest takes only a seed, and runs for about a second when it is valid
    examples = 3 if cmd == "selftest" else 15

    @settings(max_examples=examples, deadline=10_000, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(argvs(tmp_dir, cmd))
    def gate(argv):
        check_one(argv)

    gate()
