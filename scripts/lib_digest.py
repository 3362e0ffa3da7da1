"""Print one sha256 per library output, to compare two source trees bit for bit.

At each pair (k, d) = (2, 2) and (2, 4) the script makes seeded laws at
--trunc: a realizable law mu, B-valued free Levy-Hincin data with its freely
divisible law nu, and D-valued c-free data with its c-freely divisible law
mu_c over nu.  From them it digests:

- Fock models of each kind, one component, a sum of two and the root model
  of order 3 of the first: model_moment at every degree up to the depth
  (phi, and theta for c-free; the sum models also with the letters tagged
  by component), operator_matrix of every operator of each component at
  caps 1 and 2, and gram_matrix of the boolean and free models at caps 1 to
  3 (1 to 2 for the sums);
- certify.gram at every degree, with and without the free term, and
  certify of each kind at every degree, on divisible and on random data;
- certify_levy_hincin of each kind's data, levy_hincin_extract of each kind
  (a refused extraction gives its error), and levy_hincin_reconstruct of the
  extracted data at two nilpotent points;
- the report of every identity check at orders 1 to 4 and seeds 0 and 1:
  check_identity B of mu, R of nu and of mu, cR of (mu_c, nu),
  check_cauchy_relation, check_nc_function_axioms and tensor_compatibility
  (n = 2) of mu;
- the transforms at three seeded points, a full chain of size --trunc + 1,
  a superdiagonal probe of that size and a direct sum of chains of
  different lengths: eval_M and eval_B of mu, eval_R of nu and of mu (over
  (2, 4) a refusal, mu being D-valued) and eval_cR of (mu_c, nu);

then the same reports and transforms with every law dilated by 1e-3 and by
1e3 (X -> lambda X), whose residuals the checks grade by the laws' scale.

After the pairs come the boolean certificates at degrees 2 and 3 of the
scalar law with moments (0, 1e300, 0, 2e300, 0, 5e300), whose level 2
squared passes the float range.

Each line reads `<sha256> <label>`.  An array is digested with its dtype and
shape, a certificate as its JSON, and an output that raises as its error
type and message.  Run it once per source tree and compare the listings:

    python scripts/lib_digest.py --src ../other/src > other.txt
    python scripts/lib_digest.py > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ((2, 2), (2, 4))


def digest(value) -> str:
    """sha256 of a value: arrays by dtype, shape and bytes, containers item
    by item, anything else by its repr."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"array {v.dtype.str} {v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            h.update(f"dict {len(v)}".encode())
            for key in v:
                feed(key)
                feed(v[key])
        elif isinstance(v, (list, tuple)):
            h.update(f"{type(v).__name__} {len(v)}".encode())
            for item in v:
                feed(item)
        elif hasattr(v, "to_json"):  # a certificate
            feed(v.to_json())
        elif hasattr(v, "values_in"):  # a sigma form
            feed((v.values_in, v.truncation, v.levels))
        else:
            h.update(f"{type(v).__name__} {v!r}".encode())

    feed(value)
    return h.hexdigest()


def outputs(k: int, d: int, trunc: int):
    """(label, function, arguments) of every digested output at the pair."""
    # by module name: the ncid package also exports a function called certify
    cert, fock, ncf = (
        importlib.import_module(f"ncid.{name}") for name in ("certify", "fock", "ncfunctions"))
    from ncid.algebra import AlgebraPair
    from ncid.cumulants import moments_from_cfree, moments_from_free
    from ncid.distribution import generate_realizable

    pair = AlgebraPair.block_diagonal(k, d)
    rng = np.random.default_rng(100 * k + d)

    def hermitian(m):
        return (m + m.conj().T) / 2

    def law(seed):
        return generate_realizable(seed, pair, trunc, ambient=2 * d)

    def free_data(seed):
        # B-valued data, re-paired from a law over the identity pair on B
        base = generate_realizable(seed, AlgebraPair.identity(k), trunc, ambient=2 * k)
        sigma = cert.SigmaForm.from_bordered(base, values_in="B")
        return hermitian(base.raw(1)), cert.SigmaForm(
            pair=pair, values_in="B", truncation=sigma.truncation, levels=sigma.levels)

    def cfree_data(seed):
        mf = law(seed)
        return hermitian(mf.raw(1)), cert.SigmaForm.from_bordered(mf, values_in="D")

    mu, mu2 = law(7), law(8)
    frees = [free_data(50), free_data(51)]
    cfrees = [f + cfree_data(s) for f, s in zip(frees, (52, 53))]
    nu = moments_from_free(cert.family_from_levy_hincin("free", *frees[0]))
    mu_c = moments_from_cfree(cert.family_from_levy_hincin("cfree", *cfrees[0][2:]), nu)
    bs = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for _ in range(trunc)]

    models = {
        "boolean": (fock.build_boolean(mu), fock.boolean_sum_model([mu, mu2])),
        "free": (fock.build_free(*frees[0]), fock.free_sum_model(frees)),
        "cfree": (fock.build_cfree(*cfrees[0]), fock.cfree_sum_model(cfrees)),
    }
    for kind, (one, two) in models.items():
        states = ("phi", "theta") if kind == "cfree" else ("phi",)
        root = getattr(fock, f"{kind}_root_model")(one, 3)
        for name, model in (("one component", one), ("two components", two),
                            ("root of order 3", root)):
            what = f"{kind} model, {name}"
            yield f"{what}: depth", lambda m: m.depth, (model,)
            for state in states:
                for n in range(model.depth + 1):
                    yield f"{what}: {state} moment of degree {n}", fock.model_moment, (
                        model, bs[:n], state)
                    if model is two and n:
                        tags = [i % 2 for i in range(n)]
                        yield f"{what}: {state} moment of degree {n}, tagged", \
                            fock.model_moment, (model, bs[:n], state, tags)
            for t in range(len(model.components)):
                for op in fock._OPS[kind]:
                    for cap in (1, 2):
                        yield f"{what}: {op} of component {t} at cap {cap}", \
                            fock.operator_matrix, (model, op, cap, t)
            if kind != "cfree":
                for cap in range(1, 3 if model is two else 4):
                    yield f"{what}: Gram at cap {cap}", fock.gram_matrix, (model, cap)

    for degree in range(1, trunc // 2 + 1):
        for no_free_term in (True, False):
            yield f"gram of mu at degree {degree}, no_free_term {no_free_term}", cert.gram, (
                mu, degree, no_free_term)
        for kind, label, data in (
            ("boolean", "random", mu), ("condition1", "random", mu),
            ("free", "divisible", nu), ("free", "random", mu),
            ("cfree", "divisible", (mu_c, nu)), ("cfree", "random", (mu, mu2)),
        ):
            yield f"certify {kind} of the {label} law at degree {degree}", cert.certify, (
                kind, data, degree)

    extracts = {"boolean": mu, "free": nu, "cfree": (mu_c, nu)}
    for kind, data in extracts.items():
        yield f"{kind} extract", cert.levy_hincin_extract, (kind, data)
    yield "free extract of the random law", cert.levy_hincin_extract, ("free", mu)
    yield "boolean Levy-Hincin certificate", lambda: cert.certify_levy_hincin(
        "boolean", *cert.levy_hincin_extract("boolean", mu)), ()
    yield "free Levy-Hincin certificate", cert.certify_levy_hincin, ("free", *frees[0])
    yield "cfree Levy-Hincin certificate", cert.certify_levy_hincin, ("cfree", *cfrees[0][2:])
    for m in (3, 4):
        entries = rng.standard_normal((m, m, k, k)) + 1j * rng.standard_normal((m, m, k, k))
        point = entries * np.triu(np.ones((m, m)), 1)[:, :, None, None]
        for kind, data in extracts.items():
            alpha, sigma = cert.levy_hincin_extract(kind, data)
            yield f"{kind} reconstruct at a {m} x {m} point", cert.levy_hincin_reconstruct, (
                kind, alpha, sigma, point)

    points = transform_points(np.random.default_rng(1000 * k + d), k, trunc)
    for lam, dilated in ((1, ""), (1e-3, ", dilated by 0.001"), (1e3, ", dilated by 1000")):
        mu_l, nu_l, mu_c_l = (dilate(law, lam) for law in (mu, nu, mu_c))
        checks = (
            ("check B of mu", ncf.check_identity, ("B", mu_l)),
            ("check R of nu", ncf.check_identity, ("R", nu_l)),
            ("check R of mu", ncf.check_identity, ("R", mu_l)),
            ("check cR of (mu_c, nu)", ncf.check_identity, ("cR", mu_c_l, nu_l)),
            ("check G of mu", ncf.check_cauchy_relation, (mu_l,)),
            ("check axioms of mu", ncf.check_nc_function_axioms, (mu_l,)),
            ("check tensor of mu", ncf.tensor_compatibility, (mu_l, 2)),
        )
        for label, check, check_args in checks:
            for order in range(1, 5):
                for seed in (0, 1):
                    yield f"{label}{dilated} at order {order}, seed {seed}", functools.partial(
                        check, order=order, seed=seed), check_args
        transforms = (
            ("eval_M of mu", ncf.eval_M, (mu_l,)),
            ("eval_B of mu", ncf.eval_B, (mu_l,)),
            ("eval_R of nu", ncf.eval_R, (nu_l,)),
            ("eval_R of mu", ncf.eval_R, (mu_l,)),
            ("eval_cR of (mu_c, nu)", ncf.eval_cR, (mu_c_l, nu_l)),
        )
        for label, transform, law_args in transforms:
            for name, point in points.items():
                yield f"{label}{dilated} at the {name}", transform, (*law_args, point)


def transform_points(rng, k, trunc):
    """Entries of the points the transforms are digested at, each reading
    up to `trunc` levels."""
    def blocks(*shape):
        shape += (k, k)
        return 0.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def upper(m):
        return blocks(m, m) * np.triu(np.ones((m, m)), 1)[:, :, None, None]

    m = trunc + 1
    superdiagonal = np.zeros((m, m, k, k), dtype=complex)
    superdiagonal[range(m - 1), range(1, m)] = blocks(m - 1)
    direct = np.zeros((m, m, k, k), dtype=complex)
    direct[:2, :2], direct[2:, 2:] = upper(2), upper(m - 2)
    return {"full chain": upper(m), "superdiagonal probe": superdiagonal,
            "direct sum": direct}


def dilate(law, lam):
    """The law of lam X: level n times lam**n."""
    from ncid.distribution import MomentFunctional

    levels = {n: lam**n * law.levels[n] for n in law.levels}
    return MomentFunctional(pair=law.pair, truncation=law.truncation, levels=levels)


def overflow_outputs():
    """(label, function, arguments) of the overflow law's certificates."""
    cert = importlib.import_module("ncid.certify")
    from ncid.distribution import scalar_from_moments

    law = scalar_from_moments((0, 1e300, 0, 2e300, 0, 5e300))
    for degree in (2, 3):
        yield f"overflow law: certify boolean at degree {degree}", cert.certify, (
            "boolean", law, degree)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding ncid/")
    ap.add_argument("--trunc", type=int, default=6, help="truncation of every law")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from ncid.errors import NCIDError

    def listing():
        for k, d in PAIRS:
            for label, fn, fn_args in outputs(k, d, args.trunc):
                yield f"(k, d) = ({k}, {d}): {label}", fn, fn_args
        yield from overflow_outputs()

    for label, fn, fn_args in listing():
        try:
            value = fn(*fn_args)
        except NCIDError as exc:
            value = f"{type(exc).__name__}: {exc}"
        print(digest(value), label, flush=True)


if __name__ == "__main__":
    main()
