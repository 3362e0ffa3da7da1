"""Batch command line interface.

Subcommands load and emit the JSON schemas from the serialize module and all
randomness flows through explicit --seed flags, so identical invocations give
byte-identical output.  Exit codes: 0 success/pass, 2 failed certificate or
identity check (the report or witness is still printed), 1 input error with a
machine-readable {"error": ...} object.  A runner imports the certificate,
convolution and nc-function modules itself, where it calls them, so each
process loads only what its subcommand uses.
"""

from __future__ import annotations

import os
import sys


def _cap_threads() -> None:
    n = os.environ.get("NCID_THREADS")
    if not n:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = n


_cap_threads()

import argparse  # noqa: E402

import numpy as np  # noqa: E402

from .algebra import DEFAULT_TOL, MAX_GENERATE_BYTES, AlgebraPair  # noqa: E402
from .cumulants import KINDS, family_of, is_pair, moments_of  # noqa: E402
from .distribution import generate_realizable, scalar_from_moments, seeded_rng  # noqa: E402
from .errors import CertificateFailed, NCIDError, TooLarge  # noqa: E402
from .serialize import (  # noqa: E402
    _emit as emit_json,
    extraction_to_json,
    family_to_json,
    functional_from_json,
    functional_to_json,
    load_path,
    pair_file_from_json,
    pair_file_to_json,
)


class UsageError(NCIDError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncid", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a realizable seeded distribution")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=None, help="ambient dimension")

    p = sub.add_parser("cumulants", help="moments to cumulants")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--aux", default=None)

    p = sub.add_parser("convolve", help="additive convolution of inputs")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("files", nargs="+")

    p = sub.add_parser("root", help="n-th convolution root")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("file")

    p = sub.add_parser("certify", help="divisibility certificate")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("file")
    p.add_argument("--aux", default=None)

    p = sub.add_parser("check", help="transform identity / axiom checks")
    p.add_argument(
        "--identity", choices=("B", "R", "cR", "G", "axioms", "tensor"), required=True
    )
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("file")
    p.add_argument("--aux", default=None)

    p = sub.add_parser("extract", help="divisible transform data extraction")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("file")
    p.add_argument("--aux", default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("selftest", help="deterministic end-to-end sweep")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_functional(path: str):
    return functional_from_json(load_path(path))


def _need_aux(args) -> None:
    if args.aux is None:
        raise UsageError("--aux with the second distribution is required here")


def _load_data(args, path: str):
    """The kind's data: the law at path, and for c-free the law at --aux."""
    if not is_pair(args.kind):
        return _load_functional(path)
    _need_aux(args)
    return _load_functional(path), _load_functional(args.aux)


def _load_law(kind: str, path: str):
    """The kind's data from one file: a pair file (mu, nu) for c-free."""
    if is_pair(kind):
        return pair_file_from_json(load_path(path))
    return _load_functional(path)


def _emit_law(kind: str, data) -> None:
    _emit(pair_file_to_json(*data) if is_pair(kind) else functional_to_json(data))


def _emit(obj) -> None:
    emit_json(obj, sys.stdout.write)
    sys.stdout.write("\n")


def _run_gen(args) -> int:
    if args.k < 1 or args.d < 1 or args.d % args.k != 0:
        raise UsageError("need 1 <= k dividing d")
    if args.m is not None and args.m < 1:
        raise UsageError("need --m >= 1")
    pair = AlgebraPair.block_diagonal(args.k, args.d)
    ambient = args.m if args.m is not None else 2 * args.d
    # Refuse before computing a law whose text would pass the byte budget,
    # estimated at the longest entry text: [re,im] of two 24-byte '%.17g'
    # floats and a comma, for each level and embedding entry.  Above 64
    # levels a k >= 2 law passes any budget.
    k2, n = args.k * args.k, max(args.trunc, 0)
    words = n if k2 == 1 else (k2 ** min(n, 64) - 1) // (k2 - 1)
    need = 52 * args.d**2 * (words + k2)
    if need > MAX_GENERATE_BYTES:
        raise TooLarge(f"the law's JSON text may reach {need} bytes, above {MAX_GENERATE_BYTES}")
    mf = generate_realizable(args.seed, pair, args.trunc, ambient)
    _emit(functional_to_json(mf))
    return 0


def _run_cumulants(args) -> int:
    _emit(family_to_json(family_of(args.kind, _load_data(args, args.infile))))
    return 0


def _run_convolve(args) -> int:
    from .convolution import convolve

    _emit_law(args.kind, convolve(args.kind, [_load_law(args.kind, p) for p in args.files]))
    return 0


def _run_root(args) -> int:
    from .convolution import root

    _emit_law(args.kind, root(args.kind, _load_law(args.kind, args.file), args.n))
    return 0


def _run_certify(args) -> int:
    from .certify import certify

    cert = certify(args.kind, _load_data(args, args.file), args.degree, args.tol)
    _emit(cert.to_json())
    return 0 if cert.passed else 2


def _run_check(args) -> int:
    from .ncfunctions import (
        check_cauchy_relation,
        check_identity,
        check_nc_function_axioms,
        tensor_compatibility,
    )

    mu = _load_functional(args.file)
    if args.identity in ("B", "R"):
        report = check_identity(args.identity, mu, order=args.order, seed=args.seed)
    elif args.identity == "cR":
        _need_aux(args)
        nu = _load_functional(args.aux)
        report = check_identity("cR", mu, nu, order=args.order, seed=args.seed)
    elif args.identity == "G":
        report = check_cauchy_relation(mu, order=args.order, seed=args.seed)
    elif args.identity == "axioms":
        report = check_nc_function_axioms(mu, order=args.order, seed=args.seed)
    else:
        report = tensor_compatibility(mu, 2, order=args.order, seed=args.seed)
    _emit(report)
    return 0 if report["pass"] else 2


def _run_extract(args) -> int:
    from .certify import levy_hincin_extract

    try:
        alpha, sigma = levy_hincin_extract(args.kind, _load_data(args, args.file), args.tol)
    except CertificateFailed as exc:
        _emit(exc.certificate.to_json())
        return 2
    _emit(extraction_to_json(args.kind, sigma.pair, alpha, sigma))
    return 0


def _run_selftest(args) -> int:
    from .certify import certify
    from .fock import build_boolean, model_moment
    from .ncfunctions import check_identity

    checks = []

    def record(name: str, value: float, ok: bool) -> None:
        checks.append({"name": name, "value": float(value), "pass": bool(ok)})

    def relerr(a, b) -> float:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        return float(np.abs(a - b).max() / scale)

    pair = AlgebraPair.identity(2)
    mu = generate_realizable(args.seed, pair, 6, 2 * pair.d)
    nu = generate_realizable(args.seed + 1, pair, 6, 2 * pair.d)

    for kind in KINDS:
        back = moments_of(family_of(kind, (mu, nu) if is_pair(kind) else mu), nu)
        worst = max(relerr(back.raw(n), mu.raw(n)) for n in range(1, 7))
        record(f"roundtrip_{kind}", worst, worst <= 1e-12)

    rng = seeded_rng(args.seed)
    model = build_boolean(mu)
    bs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    worst = max(
        relerr(model_moment(model, bs[:n]), mu.eval_word(bs[:n])) for n in range(1, 4)
    )
    record("boolean_model_vs_moments", worst, worst <= 1e-10)

    semicircle = scalar_from_moments((0.0, 1.0, 0.0, 2.0, 0.0, 5.0))
    bernoulli = scalar_from_moments((0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
    cert = certify("free", semicircle, 3)
    record("semicircle_free_certificate", cert.min_eig, cert.passed)
    cert = certify("free", bernoulli, 2)
    record(
        "bernoulli_free_refusal",
        cert.min_eig,
        (not cert.passed) and abs(cert.min_eig + 1.0) < 1e-6,
    )

    report = check_identity("R", mu, order=3, seed=args.seed, probes=10)
    record("identity_R", report["residual"], report["pass"])

    ok = all(c["pass"] for c in checks)
    _emit({"selftest": checks, "pass": ok})
    return 0 if ok else 2


_RUNNERS = {
    "gen": _run_gen,
    "cumulants": _run_cumulants,
    "convolve": _run_convolve,
    "root": _run_root,
    "certify": _run_certify,
    "check": _run_check,
    "extract": _run_extract,
    "selftest": _run_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _RUNNERS[args.command](args)
    except NCIDError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
