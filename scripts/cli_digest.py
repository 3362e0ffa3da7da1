"""Print one sha256 per CLI output, to compare two source trees byte for byte.

For each seed pair (a, b) the script runs the CLI chain of the benchmark's
cli-k2-n8 workload (gen a, gen b, cumulants, convolve, root, certify, extract,
check; kind boolean).  Then it runs cumulants, convolve, root, certify and
extract for kinds free and cfree on laws a and b at truncation 5 (free
recursions at k = 2 are too slow at truncation 8): c-free certify, extract
and cumulants take law b as --aux, and c-free convolve and root take the
pair files (a, b) and (b, a).  Then come `check --identity` B, R, cR, G,
axioms and tensor at each order on law a (cR with law b as --aux).  After
the seed pairs come the scalar law with moments (0, 1e300, 0, 2e300, 0,
5e300), whose evaluations pass the float range, with `check --identity B`,
`certify --kind boolean` and `cumulants --kind boolean` on it (a report or a
JSON error each), and `selftest` at each selftest seed.  Each line reads
`<sha256 of stdout> <exit code> <step>`.  Every tensor file (the laws, pair
files, cumulant families and the boolean extraction) gets a second line,
`<step> reloaded`: the digest of that file loaded and written again by the
same source tree, which equals the first digest when writing inverts
loading.
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

# Writes the pair file of two laws, the input of c-free convolve and root.
PAIR = """
import sys
from ncid import serialize
mu, nu = (serialize.functional_from_json(serialize.load_path(p)) for p in sys.argv[1:])
print(serialize.dumps(serialize.pair_file_to_json(mu, nu)))
"""

# Writes the scalar law whose moments are near the top of the float range.
OVERFLOW = """
from ncid import distribution, serialize
law = distribution.scalar_from_moments((0, 1e300, 0, 2e300, 0, 5e300))
print(serialize.dumps(serialize.functional_to_json(law)))
"""

CLI = ["-m", "ncid.cli"]


def chain(law, s_a, s_b):
    """(step name, interpreter arguments, output file, codec of a tensor file
    or None) of the benchmark's chain."""
    return [
        ("gen a", [*CLI, "gen", *law, "--seed", s_a], "a.json", "functional"),
        ("gen b", [*CLI, "gen", *law, "--seed", s_b], "b.json", "functional"),
        ("cumulants", [*CLI, "cumulants", "--kind", "boolean", "--in", "a.json"], "ca.json",
         "family"),
        ("convolve", [*CLI, "convolve", "--kind", "boolean", "a.json", "b.json"], "ab.json",
         "functional"),
        ("root", [*CLI, "root", "--kind", "boolean", "--n", "2", "ab.json"], "r.json",
         "functional"),
        ("certify", [*CLI, "certify", "--kind", "boolean", "--degree", "4", "r.json"],
         "cert.json", None),
        ("extract", [*CLI, "extract", "--kind", "boolean", "r.json"], "ex.json", "extraction"),
        ("check", [*CLI, "check", "--identity", "B", "r.json"], "check.json", None),
    ]


def kind_chains(law, s_a, s_b):
    """The free and c-free steps on laws a5 and b5 of that law at truncation 5.
    A free or c-free extract prints a certificate when it fails, so its
    output gets no reloaded line."""
    steps = [
        ("gen a5", [*CLI, "gen", *law, "--seed", s_a], "a5.json", "functional"),
        ("gen b5", [*CLI, "gen", *law, "--seed", s_b], "b5.json", "functional"),
        ("pair a5 b5", ["-c", PAIR, "a5.json", "b5.json"], "p.json", "pair_file"),
        ("pair b5 a5", ["-c", PAIR, "b5.json", "a5.json"], "q.json", "pair_file"),
    ]
    for kind, aux, (left, right), codec in (
        ("free", [], ("a5.json", "b5.json"), "functional"),
        ("cfree", ["--aux", "b5.json"], ("p.json", "q.json"), "pair_file"),
    ):
        steps += [
            (f"{kind} cumulants", [*CLI, "cumulants", "--kind", kind, "--in", "a5.json", *aux],
             f"{kind}-c.json", "family"),
            (f"{kind} convolve", [*CLI, "convolve", "--kind", kind, left, right],
             f"{kind}-ab.json", codec),
            (f"{kind} root", [*CLI, "root", "--kind", kind, "--n", "2", f"{kind}-ab.json"],
             f"{kind}-r.json", codec),
            (f"{kind} certify",
             [*CLI, "certify", "--kind", kind, "--degree", "2", "a5.json", *aux],
             f"{kind}-cert.json", None),
            (f"{kind} extract", [*CLI, "extract", "--kind", kind, "a5.json", *aux],
             f"{kind}-ex.json", None),
        ]
    return steps


def checks(orders):
    for name in IDENTITIES:
        for order in orders:
            aux = ["--aux", "b.json"] if name == "cR" else []
            args = [*CLI, "check", "--identity", name, "--order", str(order), "a.json", *aux]
            yield f"check {name} order {order}", args, f"check-{name}-{order}.json", None


def overflow_steps():
    """The law of OVERFLOW and three subcommands that load it."""
    return [
        ("overflow law", ["-c", OVERFLOW], "big.json"),
        ("overflow law: check B", [*CLI, "check", "--identity", "B", "big.json"], "big-check.json"),
        ("overflow law: certify boolean",
         [*CLI, "certify", "--kind", "boolean", "--degree", "2", "big.json"], "big-cert.json"),
        ("overflow law: cumulants boolean",
         [*CLI, "cumulants", "--kind", "boolean", "--in", "big.json"], "big-c.json"),
    ]


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
    law5 = ["--k", str(args.k), "--d", str(args.d), "--trunc", "5"]
    with tempfile.TemporaryDirectory() as work:
        def run(label, argv, outfile):
            out = Path(work) / outfile
            with open(out, "wb") as fh:
                proc = subprocess.run([sys.executable, *argv],
                                      stdout=fh, stderr=subprocess.DEVNULL, env=env, cwd=work)
            print(hashlib.sha256(out.read_bytes()).hexdigest(), proc.returncode, label, flush=True)

        for s_a, s_b in zip(args.pairs[::2], args.pairs[1::2]):
            steps = (chain(law, str(s_a), str(s_b)) + kind_chains(law5, str(s_a), str(s_b))
                     + list(checks(args.orders)))
            for label, argv, outfile, codec in steps:
                label = f"seeds {s_a} {s_b}: {label}"
                run(label, argv, outfile)
                if codec is not None:
                    run(f"{label} reloaded", ["-c", RELOAD, codec, outfile], "reloaded.json")
        for label, argv, outfile in overflow_steps():
            run(label, argv, outfile)
        for seed in args.selftest:
            run(f"selftest seed {seed}", [*CLI, "selftest", "--seed", str(seed)],
                "selftest.json")


if __name__ == "__main__":
    main()
