from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ncid import cli
from ncid.algebra import AlgebraPair
from ncid.serialize import dumps, functional_to_json

from conftest import OVERFLOW_MOMENTS, zero_law

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


@pytest.mark.parametrize("m", ["0", "-3"])
def test_gen_rejects_a_non_positive_ambient_size(m):
    out = run_cli("gen", "--m", m)
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"] == {"type": "UsageError", "message": "need --m >= 1"}


# Prints the ncid modules loaded after one subcommand has run.
_IMPORTED = """
import sys
from ncid import cli
cli.main(sys.argv[1:])
print(" ".join(sorted(m[5:] for m in sys.modules if m.startswith("ncid."))), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, skipped", [
    (["gen", "--trunc", "2"], {"certify", "ncfunctions", "convolution", "fock"}),
    (["cumulants", "--kind", "free", "--in", "SEMI"], {"certify", "ncfunctions", "convolution"}),
    (["convolve", "--kind", "free", "SEMI", "SEMI"], {"certify", "ncfunctions"}),
    (["root", "--kind", "free", "--n", "2", "SEMI"], {"certify", "ncfunctions"}),
    (["check", "--identity", "B", "SEMI"], {"certify", "convolution"}),
])
def test_each_subcommand_imports_only_the_modules_it_calls(semi_path, argv, skipped):
    out = subprocess.run([sys.executable, "-c", _IMPORTED,
                          *[semi_path if a == "SEMI" else a for a in argv]],
                         capture_output=True, text=True, timeout=300)
    assert json.loads(out.stdout).get("error") is None
    assert skipped.isdisjoint(out.stderr.split())


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


@pytest.mark.parametrize("k, trunc", [(1, 24), (2, 9)])
def test_free_and_cfree_past_the_work_budget_exit_1(tmp_path, k, trunc):
    path = str(tmp_path / "big.json")
    Path(path).write_text(dumps(functional_to_json(zero_law(AlgebraPair.identity(k), trunc))))
    for argv in (["cumulants", "--kind", "free", "--in", path],
                 ["cumulants", "--kind", "cfree", "--in", path, "--aux", path]):
        out = run_cli(*argv)
        assert out.returncode == 1, out.stdout
        assert json.loads(out.stdout)["error"]["type"] == "TooLarge"
        assert out.stderr == ""


def test_gen_past_the_work_budget_exits_1():
    # found by the generative gate: d = 1945 passes the byte budget, but its
    # ambient 3890 made gen run for minutes
    start = time.perf_counter()
    out = run_cli("gen", "--k=1", "--d=1945", "--trunc=1", "--seed=0")
    assert time.perf_counter() - start < 10.0
    assert out.returncode == 1, out.stdout[:200]
    assert json.loads(out.stdout)["error"]["type"] == "TooLarge"
    assert out.stderr == ""


@pytest.mark.parametrize("argv, admitted", [
    (["--k", "2", "--d", "2", "--trunc", "8"], True),  # the 4.4 MB law of cli-k2-n8
    (["--k", "2", "--d", "2", "--trunc", "11"], True),
    (["--k", "2", "--d", "2", "--trunc", "12"], False),  # 268 MB of levels, 1.1 GB of text
    (["--k", "1", "--d", "64", "--trunc", "6000"], False),
    (["--k", "4", "--d", "8", "--trunc", "7"], False),
])
def test_gen_refuses_text_past_the_byte_budget_before_computing(monkeypatch, capsys, argv,
                                                                admitted):
    class Computed(Exception):
        pass

    def computed(*args):
        raise Computed

    monkeypatch.setattr(cli, "generate_realizable", computed)
    if admitted:
        with pytest.raises(Computed):
            cli.main(["gen", *argv])
    else:
        assert cli.main(["gen", *argv]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("argv", [["--k", "1", "--d", "2", "--trunc", "6"],
                                  ["--k", "2", "--d", "4", "--trunc", "4"]])
def test_gen_refuses_a_budget_below_its_text(monkeypatch, capsys, argv):
    # the estimate, at the longest entry text, is no less than the text
    assert cli.main(["gen", *argv]) == 0
    size = len(capsys.readouterr().out)
    monkeypatch.setattr(cli, "MAX_GENERATE_BYTES", size - 1)
    assert cli.main(["gen", *argv]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "TooLarge"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["cumulants", "--in", "LAW"],
        ["convolve", "LAW", "LAW"],
        ["root", "--n", "2", "LAW"],
        ["certify", "--degree", "2", "LAW"],
        ["extract", "LAW"],
    ],
)
def test_unknown_kind_exits_1(semi_path, argv):
    argv = [semi_path if a == "LAW" else a for a in argv]
    out = run_cli(argv[0], "--kind", "monotone", *argv[1:])
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"]["type"] == "UsageError"


def test_law_that_is_not_star_compatible_exits_1(tmp_path):
    # level 2 of a k = 2 law holds mu(X e_u X); one entry off by 1e-3 leaves
    # mu(X e_u X)^* != mu(X e_u^* X)
    from ncid.distribution import MomentFunctional, generate_realizable

    law = generate_realizable(3, AlgebraPair.identity(2), 4, 4)
    levels = dict(law.levels)
    levels[2] = law.levels[2].copy()
    levels[2][1, 0, 1] += 1e-3
    path = tmp_path / "bent.json"
    path.write_text(dumps(functional_to_json(MomentFunctional(law.pair, 4, levels))))
    for argv in (
        ["certify", "--kind", "boolean", "--degree", "2", str(path)],
        ["cumulants", "--kind", "free", "--in", str(path)],
    ):
        out = run_cli(*argv)
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"]["type"] == "NotHermitian"
        assert out.stderr == ""


def test_a_law_past_the_float_range_gives_json_not_a_traceback(tmp_path):
    path = write_scalar(tmp_path, "big.json", OVERFLOW_MOMENTS)
    codes = {}
    for argv in (
        ["check", "--identity", "B", path],
        ["certify", "--kind", "boolean", "--degree", "2", path],
        ["cumulants", "--kind", "boolean", "--in", path],
    ):
        out = run_cli(*argv)
        assert out.returncode in (0, 1, 2), out.stderr
        assert isinstance(json.loads(out.stdout), dict)
        assert "Traceback" not in out.stderr
        codes[argv[0]] = out.returncode
    # its evaluations overflow, so the identity check must not pass
    assert codes["check"] == 1


def test_a_law_past_the_float_range_fails_its_boolean_certificate(tmp_path):
    # m4 < m2^2, so the law is not positive; its level 2 squared passes the
    # float range, which must not zero the graded Gram's word blocks
    path = write_scalar(tmp_path, "big.json", OVERFLOW_MOMENTS)
    out = run_cli("certify", "--kind", "boolean", "--degree", "2", path)
    assert out.returncode == 2, out.stderr
    report = json.loads(out.stdout)
    assert report["pass"] is False
    assert -1.0 < report["min_eig"] < -0.5
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


@pytest.mark.parametrize("argv, error", [
    (["gen", "--trunc", "0"], "DimensionMismatch"),
    (["gen", "--seed", "-1"], "NCIDError"),
    (["check", "--identity", "R", "--seed", "-5", "SEMI"], "NCIDError"),
    (["selftest", "--seed", "-1"], "NCIDError"),
    (["certify", "--kind", "boolean", "--degree", "2", "--tol", "-1", "SEMI"], "NCIDError"),
    (["certify", "--kind", "free", "--degree", "2", "--tol", "nan", "SEMI"], "NCIDError"),
    (["extract", "--kind", "free", "--tol", "inf", "SEMI"], "NCIDError"),
    (["gen", "--k", "300", "--d", "300", "--trunc", "2"], "TooLarge"),
])
def test_bad_truncations_seeds_tolerances_and_pairs_exit_1(semi_path, argv, error):
    out = run_cli(*[semi_path if a == "SEMI" else a for a in argv])
    assert out.returncode == 1, out.stdout
    assert json.loads(out.stdout)["error"]["type"] == error
    assert out.stderr == ""


def test_a_non_finite_tensor_prints_only_the_error(monkeypatch, capsys):
    # output is streamed, so every value is checked before the first byte
    bad = np.ones((2, 2), dtype=complex)
    bad[1, 0] = complex(float("inf"), 0.0)
    monkeypatch.setattr(cli, "functional_to_json", lambda mf: {"first": np.ones(2), "second": bad})
    assert cli.main(["gen", "--trunc", "2"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "NCIDError", "message": "cannot serialize non-finite float"}


# Spawns CLI children from a bare interpreter and prints the peak RSS (kB) of
# each.  A child's ru_maxrss starts at the RSS of the process that spawned it
# (Linux keeps the high-water mark across exec), so spawning from the test
# process itself would read the test process's size.
_RSS_LAUNCHER = """
import json, os, subprocess, sys
peaks = []
for out_path, *args in json.loads(sys.argv[1]):
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "ncid.cli", *args],
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
    peaks.append((os.waitstatus_to_exitcode(status), usage.ru_maxrss))
print(json.dumps(peaks))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_cli_peak_rss_above_start_stays_within_a_few_copies(tmp_path):
    # Above a `gen --trunc 1` child, streaming the 4.3 MB (2, 2, 8) law costs
    # about +5.5 MB, convolving two such laws about +6 MB, and the law's
    # degree-4 boolean certificate, with a 7.6 MB Gram, about +12 MB.
    # Joining the law's text (+17 MB), loading a law through a copy and a
    # float list of each whole tensor (+15.5 MB for the convolution) or
    # holding four copies of the Gram (+25 MB) breaks the guard.
    law = str(tmp_path / "law.json")
    runs = [
        [str(tmp_path / "one.json"), "gen", "--trunc", "1"],
        [law, "gen", "--k", "2", "--d", "2", "--trunc", "8"],
        [str(tmp_path / "sum.json"), "convolve", "--kind", "boolean", law, law],
        [str(tmp_path / "cert.json"), "certify", "--kind", "boolean", "--degree", "4", law],
    ]
    env = dict(os.environ, NCID_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, json.dumps(runs)],
                         capture_output=True, text=True, env=env, timeout=300)
    (base, base_kb), (gen, gen_kb), (conv, conv_kb), (cert, cert_kb) = json.loads(out.stdout)
    assert base == gen == conv == cert == 0
    assert (gen_kb - base_kb) / 1024 <= 10.0
    assert (conv_kb - base_kb) / 1024 <= 10.0
    assert (cert_kb - base_kb) / 1024 <= 18.0
