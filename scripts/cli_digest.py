"""Print one sha256 per CLI output, to compare two source trees byte for byte.

For each seed pair (a, b) the script runs the CLI chain of the benchmark's
cli-k2-n8 workload (gen a, gen b, cumulants, convolve, root, certify, extract,
check; kind boolean), then `check --identity` B, R, cR, G, axioms and tensor
at each order on law a (cR with law b as --aux), and `selftest` at each
selftest seed.  Each line reads `<sha256 of stdout> <exit code> <step>`.
Every tensor file of the chain (the laws, the cumulant family and the
extraction) gets a second line, `<step> reloaded`: the digest of that file
loaded and written again by the same source tree, which equals the first
digest when writing inverts loading.
Run it once per source tree and compare the two listings:

    python scripts/cli_digest.py --src ../other/src --pairs 11 12 > other.txt
    python scripts/cli_digest.py --pairs 11 12 > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITIES = ("B", "R", "cR", "G", "axioms", "tensor")


# Loads a tensor file with ncid.serialize's <codec>_from_json and writes it
# back with <codec>_to_json, as the CLI writes its output.
RELOAD = """
import sys
from ncid import serialize
codec, path = sys.argv[1:]
back = getattr(serialize, codec + "_from_json")(serialize.load_path(path))
to_json = getattr(serialize, codec + "_to_json")
print(serialize.dumps(to_json(*back) if isinstance(back, tuple) else to_json(back)))
"""


def chain(law, s_a, s_b):
    """(step name, CLI arguments, output file, codec of a tensor file or None)
    of the benchmark's chain."""
    return [
        ("gen a", ["gen", *law, "--seed", s_a], "a.json", "functional"),
        ("gen b", ["gen", *law, "--seed", s_b], "b.json", "functional"),
        ("cumulants", ["cumulants", "--kind", "boolean", "--in", "a.json"], "ca.json", "family"),
        ("convolve", ["convolve", "--kind", "boolean", "a.json", "b.json"], "ab.json",
         "functional"),
        ("root", ["root", "--kind", "boolean", "--n", "2", "ab.json"], "r.json", "functional"),
        ("certify", ["certify", "--kind", "boolean", "--degree", "4", "r.json"], "cert.json", None),
        ("extract", ["extract", "--kind", "boolean", "r.json"], "ex.json", "extraction"),
        ("check", ["check", "--identity", "B", "r.json"], "check.json", None),
    ]


def checks(orders):
    for name in IDENTITIES:
        for order in orders:
            aux = ["--aux", "b.json"] if name == "cR" else []
            args = ["check", "--identity", name, "--order", str(order), "a.json", *aux]
            yield f"check {name} order {order}", args, f"check-{name}-{order}.json", None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding ncid/")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--trunc", type=int, default=8)
    ap.add_argument("--pairs", type=int, nargs="*", default=[11, 12], help="seeds a b [a b ...]")
    ap.add_argument("--orders", type=int, nargs="*", default=[1, 2, 4])
    ap.add_argument("--selftest", type=int, nargs="*", default=[0, 5, 11], help="selftest seeds")
    args = ap.parse_args()
    if len(args.pairs) % 2:
        ap.error("--pairs takes an even number of seeds")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(args.src.resolve()), env.get("PYTHONPATH")) if p
    )
    law = ["--k", str(args.k), "--d", str(args.d), "--trunc", str(args.trunc)]
    with tempfile.TemporaryDirectory() as work:
        def run(label, argv, outfile):
            out = Path(work) / outfile
            with open(out, "wb") as fh:
                proc = subprocess.run([sys.executable, *argv],
                                      stdout=fh, stderr=subprocess.DEVNULL, env=env, cwd=work)
            print(hashlib.sha256(out.read_bytes()).hexdigest(), proc.returncode, label, flush=True)

        for s_a, s_b in zip(args.pairs[::2], args.pairs[1::2]):
            steps = chain(law, str(s_a), str(s_b)) + list(checks(args.orders))
            for label, cli_args, outfile, codec in steps:
                label = f"seeds {s_a} {s_b}: {label}"
                run(label, ["-m", "ncid.cli", *cli_args], outfile)
                if codec is not None:
                    run(f"{label} reloaded", ["-c", RELOAD, codec, outfile], "reloaded.json")
        for seed in args.selftest:
            run(f"selftest seed {seed}", ["-m", "ncid.cli", "selftest", "--seed", str(seed)],
                "selftest.json")


if __name__ == "__main__":
    main()
