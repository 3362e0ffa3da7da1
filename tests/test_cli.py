from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ncid.algebra import AlgebraPair
from ncid.serialize import dumps, functional_to_json

from conftest import zero_law

CLI = [sys.executable, "-m", "ncid.cli"]


def run_cli(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def write_scalar(tmp_path, name, moments):
    from ncid.distribution import scalar_from_moments

    path = tmp_path / name
    path.write_text(dumps(functional_to_json(scalar_from_moments(moments))))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def semi_path(workdir):
    return write_scalar(workdir, "semi.json", (0.0, 1.0, 0.0, 2.0, 0.0, 5.0))


@pytest.fixture(scope="module")
def bern_path(workdir):
    return write_scalar(workdir, "bern.json", (0.0, 1.0, 0.0, 1.0, 0.0, 1.0))


def test_gen_is_deterministic():
    a = run_cli("gen", "--k", "2", "--d", "2", "--trunc", "5", "--seed", "3")
    b = run_cli("gen", "--k", "2", "--d", "2", "--trunc", "5", "--seed", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["k"] == 2 and data["d"] == 2 and data["truncation"] == 5


def test_gen_rejects_bad_dimensions():
    out = run_cli("gen", "--k", "2", "--d", "3")
    assert out.returncode == 1
    err = json.loads(out.stdout)["error"]
    assert err["type"] == "UsageError"


def test_gen_refuses_oversized_truncation():
    out = run_cli("gen", "--k", "2", "--d", "2", "--trunc", "30")
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"]["type"] == "TooLarge"
    assert out.stderr == ""


def test_gen_refuses_truncation_past_the_einsum_limit():
    out = run_cli("gen", "--k", "1", "--trunc", "70")
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"]["type"] == "TooLarge"
    assert out.stderr == ""


def test_pipeline_gen_cumulants_convolve_root(workdir):
    gen = run_cli("gen", "--k", "1", "--d", "2", "--trunc", "6", "--seed", "5")
    assert gen.returncode == 0
    path = workdir / "gen12.json"
    path.write_text(gen.stdout)

    cum = run_cli("cumulants", "--kind", "boolean", "--in", str(path))
    assert cum.returncode == 0
    fam = json.loads(cum.stdout)
    assert list(fam) == ["kind", "k", "d", "embed", "truncation", "moments"]
    assert fam["kind"] == "boolean"

    conv = run_cli("convolve", "--kind", "boolean", str(path), str(path))
    assert conv.returncode == 0
    cpath = workdir / "conv12.json"
    cpath.write_text(conv.stdout)

    back = run_cli("root", "--kind", "boolean", "--n", "2", str(cpath))
    assert back.returncode == 0
    assert json.loads(back.stdout)["truncation"] == 6
    # the double of the root equals the original convolution input
    again = run_cli("convolve", "--kind", "boolean", str(path), str(path))
    assert again.stdout == conv.stdout


def test_free_cumulants_at_truncation_fourteen(workdir):
    gen = run_cli("gen", "--trunc", "14", "--seed", "6")
    assert gen.returncode == 0
    path = workdir / "trunc14.json"
    path.write_text(gen.stdout)
    out = run_cli("cumulants", "--kind", "free", "--in", str(path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout)["truncation"] == 14


def test_free_convolve_semicircles(semi_path):
    from ncid.serialize import functional_from_json

    out = run_cli("convolve", "--kind", "free", semi_path, semi_path)
    assert out.returncode == 0
    mf = functional_from_json(json.loads(out.stdout))
    flat = [complex(mf.raw(n).flat[0]) for n in range(1, 7)]
    assert flat == [0.0, 2.0, 0.0, 8.0, 0.0, 40.0]


def test_certify_semicircle_passes(semi_path):
    out = run_cli("certify", "--kind", "free", "--degree", "2", semi_path)
    assert out.returncode == 0
    cert = json.loads(out.stdout)
    assert cert["pass"] is True
    assert list(cert) == ["kind", "degree", "min_eig", "tol", "pass"]


def test_certify_bernoulli_fails_with_witness(bern_path):
    out = run_cli("certify", "--kind", "free", "--degree", "2", bern_path)
    assert out.returncode == 2
    cert = json.loads(out.stdout)
    assert cert["pass"] is False
    assert abs(cert["min_eig"] + 1.0) < 1e-9
    assert cert["witness"]["quadratic_form"] < -0.5


def test_check_identities_pass(semi_path):
    for identity, order in (("B", "4"), ("R", "4"), ("G", "4"), ("axioms", "3"), ("tensor", "3")):
        out = run_cli("check", "--identity", identity, "--order", order, semi_path)
        assert out.returncode == 0, out.stdout
        report = json.loads(out.stdout)
        assert report["pass"] is True


@pytest.mark.parametrize("identity", ["B", "R", "cR", "G", "axioms", "tensor"])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_check_refuses_orders_below_one(semi_path, identity, order):
    out = run_cli("check", "--identity", identity, "--order", order, semi_path, "--aux", semi_path)
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"]["type"] == "DimensionMismatch"
    assert out.stderr == ""


@pytest.mark.parametrize("seed", ["0", "3"])
def test_check_order_bounds_of_axioms_and_tensor(semi_path, seed):
    # semi_path has truncation 6: axioms need 2 * order - 1 <= 6, tensor order <= 6
    for identity, order, error in (("axioms", "4", "OrderExceedsTruncation"),
                                   ("tensor", "7", "OrderExceedsTruncation")):
        out = run_cli("check", "--identity", identity, "--order", order, "--seed", seed, semi_path)
        assert out.returncode == 1, out.stdout
        assert json.loads(out.stdout)["error"]["type"] == error
        assert out.stderr == ""
    out = run_cli("check", "--identity", "tensor", "--order", "6", "--seed", seed, semi_path)
    assert out.returncode == 0 and json.loads(out.stdout)["pass"] is True


def test_certify_refuses_oversized_gram(tmp_path):
    # k = 16 at degree 1 pairs 512 words of 16 x 16 blocks: 4 GiB of Gram arrays
    path = tmp_path / "wide.json"
    path.write_text(dumps(functional_to_json(zero_law(AlgebraPair.identity(16), 2))))
    out = run_cli("certify", "--kind", "boolean", "--degree", "1", str(path))
    assert out.returncode == 1, out.stdout
    assert json.loads(out.stdout)["error"]["type"] == "TooLarge"
    assert out.stderr == ""


def test_check_cfree_needs_aux(semi_path):
    out = run_cli("check", "--identity", "cR", semi_path)
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"]["type"] == "UsageError"
    ok = run_cli("check", "--identity", "cR", semi_path, "--aux", semi_path)
    assert ok.returncode == 0


def test_extract_boolean_roundtrips_bytes(semi_path):
    one = run_cli("extract", "--kind", "boolean", semi_path)
    two = run_cli("extract", "--kind", "boolean", semi_path)
    assert one.returncode == 0
    assert one.stdout == two.stdout
    data = json.loads(one.stdout)
    assert data["kind"] == "boolean"
    assert "alpha" in data and "sigma" in data


def test_extract_free_refusal_emits_certificate(bern_path):
    out = run_cli("extract", "--kind", "free", bern_path)
    assert out.returncode == 2
    cert = json.loads(out.stdout)
    assert cert["pass"] is False
    assert cert["witness"]["quadratic_form"] < -0.5


def test_cfree_flows_through_pair_files(workdir, semi_path):
    pair_doc = {
        "mu": json.loads(Path(semi_path).read_text()),
        "nu": json.loads(Path(semi_path).read_text()),
    }
    ppath = workdir / "pair.json"
    ppath.write_text(json.dumps(pair_doc))

    conv = run_cli("convolve", "--kind", "cfree", str(ppath), str(ppath))
    assert conv.returncode == 0
    doc = json.loads(conv.stdout)
    assert list(doc) == ["mu", "nu"]

    cpath = workdir / "cpair.json"
    cpath.write_text(conv.stdout)
    back = run_cli("root", "--kind", "cfree", "--n", "2", str(cpath))
    assert back.returncode == 0

    cert = run_cli("certify", "--kind", "cfree", "--degree", "2", semi_path, "--aux", semi_path)
    assert cert.returncode == 0

    ext = run_cli("extract", "--kind", "cfree", semi_path, "--aux", semi_path)
    assert ext.returncode == 0
    assert json.loads(ext.stdout)["kind"] == "cfree"


def test_missing_file_reports_error():
    out = run_cli("cumulants", "--kind", "boolean", "--in", "/nonexistent/x.json")
    assert out.returncode == 1
    err = json.loads(out.stdout)["error"]
    assert "type" in err and "message" in err


@pytest.mark.parametrize(
    "entry, error",
    [
        ("1" * 400, "DimensionMismatch"),  # an integer beyond float range
        ("[NaN,0]", "DimensionMismatch"),
        ("[0,Infinity]", "DimensionMismatch"),
        ("-Infinity", "DimensionMismatch"),
        ("1e400", "DimensionMismatch"),  # parses as inf
        ("1" * 5000, "NCIDError"),  # json refuses integers over 4300 digits
    ],
)
def test_load_rejects_bad_numbers(workdir, entry, error):
    path = workdir / "bad_number.json"
    path.write_text(
        '{"k":1,"d":1,"embed":[[[1,0]]],"truncation":1,"moments":{"1":[[%s]]}}' % entry
    )
    out = run_cli("cumulants", "--kind", "boolean", "--in", str(path))
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"]["type"] == error
    assert out.stderr == ""


def test_thread_cap_env(semi_path):
    import os

    env = dict(os.environ, NCID_THREADS="1")
    out = run_cli("certify", "--kind", "free", "--degree", "2", semi_path, env=env)
    assert out.returncode == 0


def test_selftest_sweep_passes_and_repeats():
    one = run_cli("selftest", "--seed", "5")
    two = run_cli("selftest", "--seed", "5")
    assert one.returncode == 0
    assert one.stdout == two.stdout
    doc = json.loads(one.stdout)
    assert doc["pass"] is True
    names = [c["name"] for c in doc["selftest"]]
    assert "roundtrip_cfree" in names and "bernoulli_free_refusal" in names
