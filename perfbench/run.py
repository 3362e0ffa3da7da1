"""Closed-loop benchmark of ncid: one workload per run, one job at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload lib-k2-n6 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing; with ``--trace 1`` it reports the per-layer metrics of a traced
run.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layertrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The names of workloads.WORKLOADS, known here so that parsing the arguments
# does not import ncid before set-up is timed.
WORKLOADS = ("lib-k2-n6", "points-k1-n12", "cert-k2-n8", "cli-k2-n8")

# setup_s is the median of this many set-ups, all but one in fresh processes.
SETUP_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = layertrace.TRACED_MODULES + ("cli",)  # cli is timed from outside
CUMULANT_FNS = ("boolean_from_moments", "moments_from_boolean", "free_from_moments",
                "moments_from_free", "cfree_from_moments", "moments_from_cfree")
# Self time of single functions, beyond the per-layer sums.
SELF_S = (
    "certify.gram", "certify.certify", "certify.levy_hincin_extract",
    "certify.levy_hincin_reconstruct", "ncfunctions.eval_series",
    "ncfunctions.check_cauchy_relation", "ncfunctions.amplify_functional",
    "nclattice.moebius", "fock.boolean_sum_model", "distribution.generate_realizable",
)
CLI_STEPS = ("gen", "cumulants", "convolve", "root", "certify", "extract", "check")

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.self_s": "s", f"{_layer}.calls": "count",
                      f"{_layer}.errors": "count"})
for _fn in CUMULANT_FNS:
    PER_LAYER.update({f"cumulants.{_fn}.self_s": "s", f"cumulants.{_fn}.calls": "count"})
PER_LAYER.update({f"{_key}.self_s": "s" for _key in SELF_S})
PER_LAYER.update({
    "ncfunctions.eval_series.calls": "count",
    "nclattice.moebius.setup_s": "s",
    "fock.model_moment.total_s": "s",
    "serialize.emit_s": "s",
    "serialize.parse_s": "s",
    "serialize.bytes": "bytes-computed",
    "cli.startup_s": "s",
})
PER_LAYER.update({f"cli.{_step}.s": "s" for _step in CLI_STEPS})
PER_LAYER.update({"trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
                  "host.calib_s": "s"})


# The host's speed drifts by up to ~1.8x within seconds (CPU time equals wall
# time, so it is not waiting).  Timed intervals are therefore also reported
# host-normalised: each step of a job (one call into ncid or one CLI process)
# is scaled by CALIB_REF_S over the mean time of a fixed kernel run just
# before and just after it.  CALIB_REF_S is the kernel's time on an
# uncontended core of the reference host (2 cores, Python 3.11, numpy 2.4),
# so normalised seconds are that host's seconds.
CALIB_REF_S = 0.02


def calibrate() -> float:
    """Time a fixed kernel independent of ncid: interpreter loop + small einsums."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    start = perf_counter()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    for _ in range(1500):
        a = np.einsum("ij,jk->ik", a, a)
        a /= np.abs(a).max()
    return perf_counter() - start


class Clock:
    """Sums the wall and normalised time of timed steps; the calibration
    kernel runs between steps, outside the timed intervals."""

    def __init__(self):
        self.wall = 0.0
        self.norm = 0.0
        self.kernels = [calibrate()]  # also loads numpy before set-up is timed

    def step(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            after = calibrate()
            self.wall += seconds
            self.norm += seconds * 2 * CALIB_REF_S / (self.kernels[-1] + after)
            self.kernels.append(after)


def _make_workload(workload: str, seed: int):
    import workloads  # first import of ncid

    return workloads.WORKLOADS[workload](ROOT, seed)


def setup(workload: str, seed: int, clock: Clock, tracer=None):
    """Import ncid, make the workload's inputs and run one untimed warm-up
    job; returns (workload, warm-up job record or None).  The set-up's time
    is what ``clock`` holds afterwards."""
    wl = clock.step(_make_workload, workload, seed)
    if tracer is not None:
        tracer.install()
    warm = run_job(wl, clock, tracer) if wl.warm_up_job else None
    return wl, warm


def run_job(wl, clock: Clock, tracer=None) -> dict:
    """One job: inputs untimed, the job's steps timed, then checks."""
    inp = wl.inputs()
    wall, norm, kernels = clock.wall, clock.norm, len(clock.kernels)
    if tracer is not None:
        tracer.take()
    try:
        out = wl.job(inp, clock.step)
        failures = None
    except Exception:
        out, failures = None, [traceback.format_exc()]
    rec = {"seconds": clock.wall - wall, "norm_s": clock.norm - norm,
           "calib_s": median(clock.kernels[kernels - 1:]), "out": out}
    if tracer is not None:
        for key, span_s, failed in wl.spans(out) if out else ():
            tracer.record(key, span_s, failed)
        rec["stats"] = tracer.take()
        rec["probe_bytes"] = wl.probe(out) if out else 0
        rec["probe"] = tracer.take()
    if failures is None:
        try:
            failures = wl.check(inp, out)
        except Exception:
            failures = [traceback.format_exc()]
    for failure in failures:
        print(f"{wl.name}: job failed: {failure}", file=sys.stderr)
    rec["failed"] = bool(failures)
    return rec


def measure(wl, clock: Clock, budget: float, tracer=None, min_jobs: int = 1) -> list[dict]:
    """Jobs back to back until their timed wall seconds reach budget; the
    first failed job ends the measurement, since the run is already wrong."""
    jobs = []
    while len(jobs) < min_jobs or sum(j["seconds"] for j in jobs) < budget:
        jobs.append(run_job(wl, clock, tracer))
        if jobs[-1]["failed"]:
            break
    return jobs


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall and normalised set-up seconds of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return tuple(json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"])


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(wl, setups: list[float], jobs: list[dict], key: str) -> dict:
    """End-to-end metrics from wall (key "seconds") or normalised ("norm_s") times."""
    seconds = [j[key] for j in jobs]
    rss_kb = wl.peak_rss_kb([j["out"] for j in jobs if j["out"]])
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median(setups),
        "job_p50_s": median(seconds),
        "jobs_per_s": len(seconds) / sum(seconds),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def job_layers(job: dict) -> dict:
    """Per-layer metrics of one traced job (serialize from its probe)."""
    stats = {**job["stats"], **job["probe"]}

    def get(key, field):
        stat = stats.get(key)
        return getattr(stat, field) if stat else 0

    out = {}
    for layer in LAYERS:
        mine = [s for k, s in stats.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(s.self_s for s in mine)
        out[f"{layer}.calls"] = sum(s.calls for s in mine)
        out[f"{layer}.errors"] = sum(s.errors for s in mine)
    for fn in CUMULANT_FNS:
        out[f"cumulants.{fn}.self_s"] = get(f"cumulants.{fn}", "self_s")
        out[f"cumulants.{fn}.calls"] = get(f"cumulants.{fn}", "calls")
    for key in SELF_S:
        out[f"{key}.self_s"] = get(key, "self_s")
    out["ncfunctions.eval_series.calls"] = get("ncfunctions.eval_series", "calls")
    out["fock.model_moment.total_s"] = get("fock.model_moment", "total_s")
    out["serialize.parse_s"] = (get("serialize.load_path", "total_s")
                                + get("serialize.functional_from_json", "total_s"))
    out["serialize.emit_s"] = (get("serialize.functional_to_json", "total_s")
                               + get("serialize.dumps", "total_s"))
    out["serialize.bytes"] = job["probe_bytes"]
    for step in CLI_STEPS:
        out[f"cli.{step}.s"] = get(f"cli.{step}", "self_s")
    out["trace.coverage"] = sum(s.self_s for s in job["stats"].values()) / job["seconds"]
    return out


def per_layer(setup_stats: dict, plain: list[dict], traced: list[dict]) -> dict:
    import workloads

    layers = [job_layers(j) for j in traced]
    out = {name: median(row[name] for row in layers) for name in layers[0]}
    moebius = setup_stats.get("nclattice.moebius")
    out["nclattice.moebius.setup_s"] = moebius.total_s if moebius else 0.0
    workdir = workloads.make_work_dir(ROOT, f"{os.getpid()}-startup")
    try:
        out["cli.startup_s"] = workloads.cli_startup_s(ROOT, workdir)
    finally:
        workloads.remove_work_dir(workdir)
    out["trace.overhead_ratio"] = (median(j["norm_s"] for j in traced)
                                   / median(j["norm_s"] for j in plain))
    out["host.calib_s"] = median(j["calib_s"] for j in plain + traced)
    return out


def report(metrics: dict, units: dict, attempted: int, failed: int) -> None:
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def run(args) -> int:
    clock = Clock()
    if args.setup_probe:
        wl, _ = setup(args.workload, args.seed, clock)
        wl.close()
        print(json.dumps({"setup_s": [clock.wall, clock.norm]}))
        return 0

    if not args.trace:
        # A run with no timed seconds (a smoke run) skips the fresh-process set-ups.
        probes = SETUP_RUNS - 1 if args.seconds > 0 else 0
        setups = [setup_probe(args.workload, args.seed) for _ in range(probes)]
        wl, warm = setup(args.workload, args.seed, clock)
        setups.append((clock.wall, clock.norm))
        try:
            # Two jobs at least: a median of two, and a repeated CLI chain.
            jobs = measure(wl, clock, args.seconds, min_jobs=2)
        finally:
            wl.close()
        wall = end_to_end(wl, [s[0] for s in setups], jobs, "seconds")
        print("wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
        metrics, units = end_to_end(wl, [s[1] for s in setups], jobs, "norm_s"), END_TO_END
    else:
        # Untraced and traced halves of one run give trace.overhead_ratio.
        tracer = layertrace.Tracer()
        wl, warm = setup(args.workload, args.seed, clock, tracer)
        try:
            tracer.uninstall()
            plain = measure(wl, clock, args.seconds / 2)
            tracer.install()
            traced = measure(wl, clock, args.seconds / 2, tracer)
            tracer.uninstall()
        finally:
            wl.close()
        jobs = plain + traced
        metrics, units = per_layer(warm["stats"] if warm else {}, plain, traced), PER_LAYER
    print(f"workload {wl.name}: seed {args.seed}, {len(jobs)} timed jobs of "
          + ", ".join(f"{j['seconds']:.3f}" for j in jobs) + " s wall, "
          + ", ".join(f"{j['norm_s']:.3f}" for j in jobs) + " s normalised; "
          + f"calibration kernel {median(j['calib_s'] for j in jobs):.4g} s")
    if warm:
        jobs.append(warm)
    report(metrics, units, len(jobs), sum(j["failed"] for j in jobs))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed job seconds to collect; at least two jobs run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ncid" / "__init__.py").is_file():
        print(f"perfbench: no ncid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread for this process and every CLI child, set before numpy
    # loads; NCID_THREADS is the CLI's own knob for the same thing.
    for var in ("NCID_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One core for the harness and the CLI children, which inherit it, so the
    # calibration kernel runs on the core that runs the timed steps.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:  # a container may refuse; then the steps just migrate
        print(f"perfbench: running unpinned: {exc}", file=sys.stderr)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
