"""The four benchmark workloads: seeded inputs, the timed job, and its checks.

Every workload draws its inputs from a ``numpy`` generator seeded by the
harness; the library only ever sees the drawn integers and arrays.  ``job``
is the timed part: it makes every call into ``ncid`` (or the CLI) through
``step(fn, *args)``, which times the call and runs the harness's calibration
kernel after it, outside the timed interval.  ``check`` runs outside the timed
interval too and returns a list of broken invariants (empty when the job's
outputs are correct).

Library calls go through module attributes (``cumulants.free_from_moments``)
so that the traced run's rebinding of those attributes is seen here too.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

algebra = importlib.import_module("ncid.algebra")
nclattice = importlib.import_module("ncid.nclattice")
distribution = importlib.import_module("ncid.distribution")
cumulants = importlib.import_module("ncid.cumulants")
convolution = importlib.import_module("ncid.convolution")
fock = importlib.import_module("ncid.fock")
ncfunctions = importlib.import_module("ncid.ncfunctions")
certify = importlib.import_module("ncid.certify")
serialize = importlib.import_module("ncid.serialize")

TOL = 1e-10
SEED_RANGE = 2**31


def relerr(a, b) -> float:
    """Largest entrywise deviation relative to the larger operand."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return float(np.abs(a - b).max(initial=0.0) / scale) if scale > 0 else 0.0


def level_relerr(got, want) -> float:
    """Worst per-level relative error between two moment functionals."""
    return max(relerr(got.raw(n), want.raw(n)) for n in range(1, want.truncation + 1))


def _seeds(rng, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, SEED_RANGE, size=n)]


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Workload:
    """One input family pushed through a fixed pipeline per job."""

    name = ""
    # Set-up ends with one untimed job, which fills the program's caches.
    warm_up_job = True

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = np.random.default_rng(seed)

    def inputs(self) -> dict:
        raise NotImplementedError

    def job(self, inp: dict, step) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> list[str]:
        raise NotImplementedError

    def spans(self, out: dict) -> list[tuple[str, float, bool]]:
        """Layer spans measured inside the job from outside the process."""
        return []

    def probe(self, out: dict) -> int:
        """Traced-run extra measurement on a job's outputs; returns bytes."""
        return 0

    def peak_rss_kb(self, outs: list[dict]) -> int | None:
        """Peak RSS of processes the jobs started; None means this process."""
        return None

    def close(self) -> None:
        pass


class LibK2N6(Workload):
    """Round trips, roots, convolution, certificates and extraction at
    (k, d, N) = (2, 2, 6); free and c-free recursions dominate."""

    name = "lib-k2-n6"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.pair = algebra.AlgebraPair.identity(2)

    def inputs(self):
        return {"seeds": _seeds(self.rng, 2)}

    def job(self, inp, step):
        s_mu, s_nu = inp["seeds"]
        mu = step(distribution.generate_realizable, s_mu, self.pair, 6, 4)
        nu = step(distribution.generate_realizable, s_nu, self.pair, 6, 4)
        back = {
            "boolean": step(cumulants.moments_from_boolean,
                            step(cumulants.boolean_from_moments, mu)),
            "free": step(cumulants.moments_from_free, step(cumulants.free_from_moments, mu)),
            "cfree": step(cumulants.moments_from_cfree,
                          step(cumulants.cfree_from_moments, mu, nu), nu),
        }
        roots = {
            "boolean": step(convolution.root, "boolean", mu, 3),
            "free": step(convolution.root, "free", mu, 3),
            "cfree": step(convolution.root, "cfree", (mu, nu), 3),
        }
        conv = step(convolution.boolean_convolve, [mu, nu])
        certs = {
            "boolean": step(certify.certify, "boolean", roots["boolean"], 3),
            "free": step(certify.certify, "free", mu, 3),
            "cfree": step(certify.certify, "cfree", (mu, nu), 3),
        }
        extracted = step(certify.levy_hincin_extract, "boolean", mu)
        return {"mu": mu, "back": back, "roots": roots, "conv": conv,
                "certs": certs, "extracted": extracted}

    def check(self, inp, out):
        mu = out["mu"]
        bad = []
        for kind, back in out["back"].items():
            err = level_relerr(back, mu)
            if not err <= TOL:
                bad.append(f"{kind} round trip off by {err:.3e}")
        root = out["roots"]["boolean"]
        if not out["certs"]["boolean"].passed:
            bad.append("boolean certificate fails on the boolean root")
        err = level_relerr(convolution.boolean_convolve([root] * 3), mu)
        if not err <= TOL:
            bad.append(f"three boolean roots convolve to mu only within {err:.3e}")
        return bad


def _nilpotent(rng, m: int, k: int, scale: float) -> np.ndarray:
    """Strictly upper triangular (m, m, k, k) point entries."""
    entries = scale * _complex_normal(rng, (m, m, k, k))
    return entries * np.triu(np.ones((m, m)), 1)[:, :, None, None]


class PointsK1N12(Workload):
    """Transforms at nilpotent points of size 10 and 12 for a k = d = 1 law
    at N = 12, identity checks and one Moebius arbitration over NC(6)."""

    name = "points-k1-n12"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.pair = algebra.AlgebraPair.identity(1)

    def inputs(self):
        return {
            "seed": _seeds(self.rng, 1)[0],
            "check_seed": _seeds(self.rng, 1)[0],
            "p10": _nilpotent(self.rng, 10, 1, 0.7),
            "p12": _nilpotent(self.rng, 12, 1, 0.7),
            "b": 0.5 * _complex_normal(self.rng, (1, 1)),
        }

    def job(self, inp, step):
        mu = step(distribution.generate_realizable, inp["seed"], self.pair, 12, 2)
        values = {}
        for label in ("p10", "p12"):
            point = inp[label]
            values["M", label] = step(ncfunctions.eval_M, mu, point)
            values["B", label] = step(ncfunctions.eval_B, mu, point)
            values["R", label] = step(ncfunctions.eval_R, mu, point)
        alpha, sigma = step(certify.levy_hincin_extract, "boolean", mu)
        rebuilt = step(certify.levy_hincin_reconstruct, "boolean", alpha, sigma, inp["p12"])
        seed = inp["check_seed"]
        reports = [
            step(ncfunctions.check_identity, "R", mu, seed=seed),
            step(ncfunctions.check_cauchy_relation, mu, seed=seed),
            step(ncfunctions.check_nc_function_axioms, mu, seed=seed),
            step(ncfunctions.tensor_compatibility, mu, 2, seed=seed),
        ]
        terms = step(self._moebius_terms, mu, inp["b"])
        return {"mu": mu, "values": values, "rebuilt": rebuilt,
                "reports": reports, "terms": terms}

    @staticmethod
    def _moebius_terms(mu, b):
        """Terms moebius(pi, 1_6) * f_pi(b) of the free cumulant over NC(6)."""
        top = nclattice.full_partition(6)
        return [nclattice.moebius(pi, top) * nclattice.nc_weights(pi, "f", mu, mu, b)
                for pi in nclattice.enumerate_nc(6)]

    def check(self, inp, out):
        bad = []
        err = relerr(out["rebuilt"], out["values"]["B", "p12"])
        if not err <= TOL:
            bad.append(f"levy_hincin_reconstruct differs from eval_B by {err:.3e}")
        for report in out["reports"]:
            if not report["pass"]:
                bad.append(f"identity {report['identity']} fails: {report['residual']:.3e}")
        kappa = cumulants.functional_of(
            "free", cumulants.free_from_moments(out["mu"])
        ).eval_word([inp["b"]] * 6)
        terms = out["terms"]
        scale = max(float(np.abs(t).max()) for t in terms)
        dev = float(np.abs(sum(terms) - kappa).max())
        if not dev <= TOL * scale:
            bad.append(f"Moebius sum misses the free cumulant by {dev:.3e}")
        return bad


class CertK2N8(Workload):
    """Boolean convolution, root, degree-4 certificates, extraction and a
    Fock model at (k, d, N) = (2, 2, 8); Gram assembly and eigensolve
    dominate."""

    name = "cert-k2-n8"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.pair = algebra.AlgebraPair.identity(2)

    def inputs(self):
        return {"seeds": _seeds(self.rng, 2),
                "bs": [_complex_normal(self.rng, (2, 2)) for _ in range(5)]}

    def job(self, inp, step):
        s_mu, s_nu = inp["seeds"]
        mu = step(distribution.generate_realizable, s_mu, self.pair, 8, 4)
        nu = step(distribution.generate_realizable, s_nu, self.pair, 8, 4)
        rt = step(convolution.root, "boolean", step(convolution.boolean_convolve, [mu, nu]), 2)
        certs = [step(certify.certify, "boolean", rt, 4), step(certify.certify, "boolean", mu, 4)]
        extracted = step(certify.levy_hincin_extract, "boolean", rt)
        model = step(fock.build_boolean, mu)
        bs = inp["bs"]
        values = step(lambda: [fock.model_moment(model, bs[:n]) for n in range(1, 6)])
        return {"mu": mu, "certs": certs, "extracted": extracted, "values": values}

    def check(self, inp, out):
        bad = [f"boolean certificate {i} fails" for i, c in enumerate(out["certs"]) if not c.passed]
        bs = inp["bs"]
        for n, value in enumerate(out["values"], start=1):
            err = relerr(value, out["mu"].eval_word(bs[:n]))
            if not err <= TOL:
                bad.append(f"model_moment of degree {n} off by {err:.3e}")
        return bad


def make_work_dir(root: Path, name: str) -> Path:
    """A scratch directory for CLI files inside the checkout (git-ignored)."""
    path = root / ".perfbench_work" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only once no other run uses it
    except OSError:
        pass


def cli_env(root: Path) -> dict:
    env = dict(os.environ, NCID_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(args, stdout_path: Path, env: dict, cwd: Path):
    """Run one CLI subcommand; returns (seconds, exit code, peak RSS in kB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ncid.cli", *args], stdout=out, stderr=err, env=env, cwd=cwd
        )
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child, with its rusage
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen never waits again
    return seconds, proc.returncode, usage.ru_maxrss


def cli_startup_s(root: Path, workdir: Path) -> float:
    """Median wall time of ``gen --trunc 1``: interpreter, numpy and ncid start."""
    env = cli_env(root)
    times = [run_cli(["gen", "--trunc", "1"], workdir / "startup.json", env, workdir)[0]
             for _ in range(3)]
    return float(np.median(times))


class CliK2N8(Workload):
    """The CLI chain gen x2 -> cumulants -> convolve -> root -> certify ->
    extract -> check at (2, 2, 8), one subprocess per step.  Every job of a
    run repeats the run's seed pair, so each chain after the first is
    compared byte for byte with the first."""

    name = "cli-k2-n8"
    # Each step is a fresh process, so no cache of the program outlives a job.
    warm_up_job = False

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.env = cli_env(root)
        self.workdir = make_work_dir(root, str(os.getpid()))
        self.seeds = _seeds(self.rng, 2)
        self.digests: dict[int, str] = {}

    def inputs(self):
        return {"seeds": self.seeds}

    def job(self, inp, step):
        s_a, s_b = (str(s) for s in inp["seeds"])
        law = ["--k", "2", "--d", "2", "--trunc", "8"]
        steps = [
            ("gen", ["gen", *law, "--seed", s_a], "a.json"),
            ("gen", ["gen", *law, "--seed", s_b], "b.json"),
            ("cumulants", ["cumulants", "--kind", "boolean", "--in", "a.json"], "ca.json"),
            ("convolve", ["convolve", "--kind", "boolean", "a.json", "b.json"], "ab.json"),
            ("root", ["root", "--kind", "boolean", "--n", "2", "ab.json"], "r.json"),
            ("certify", ["certify", "--kind", "boolean", "--degree", "4", "r.json"], "cert.json"),
            ("extract", ["extract", "--kind", "boolean", "r.json"], "ex.json"),
            ("check", ["check", "--identity", "B", "r.json"], "check.json"),
        ]
        ran = []
        for name, args, outfile in steps:
            seconds, code, rss = step(run_cli, args, self.workdir / outfile, self.env, self.workdir)
            ran.append({"step": name, "file": outfile, "seconds": seconds,
                        "code": code, "rss_kb": rss})
        return {"steps": ran}

    def check(self, inp, out):
        bad = []
        for i, step in enumerate(out["steps"]):
            if step["code"] != 0:
                err = (self.workdir / step["file"]).with_suffix(".err").read_text()
                bad.append(f"{step['step']} exited {step['code']}: {err.strip()[-300:]}")
                continue
            digest = hashlib.sha256((self.workdir / step["file"]).read_bytes()).hexdigest()
            if self.digests.setdefault(i, digest) != digest:
                bad.append(f"{step['step']} printed different bytes for repeated seeds")
        return bad

    def spans(self, out):
        return [(f"cli.{s['step']}", s["seconds"], s["code"] != 0) for s in out["steps"]]

    def probe(self, out):
        path = str(self.workdir / "r.json")
        law = serialize.functional_from_json(serialize.load_path(path))
        serialize.dumps(serialize.functional_to_json(law))
        return sum(t.nbytes for t in law.levels.values())

    def peak_rss_kb(self, outs):
        return max((s["rss_kb"] for out in outs for s in out["steps"]), default=None)

    def close(self):
        remove_work_dir(self.workdir)


WORKLOADS = {w.name: w for w in (LibK2N6, PointsK1N12, CertK2N8, CliK2N8)}
