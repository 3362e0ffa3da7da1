"""Sweep seeded realizable laws and tabulate divisibility certificates.

For each seed the script generates a realizable moment functional, certifies
boolean divisibility of its n-th boolean root, and runs the free certificate
on the law itself.  Boolean roots should always re-certify; free divisibility
of a generic realizable law usually fails, and the table shows how negative
the witness eigenvalue gets.
"""

from __future__ import annotations

import argparse

from ncid.algebra import AlgebraPair
from ncid.certify import certify
from ncid.convolution import root
from ncid.distribution import generate_realizable


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--trunc", type=int, default=6)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--root-n", type=int, default=3)
    args = ap.parse_args()

    pair = AlgebraPair.block_diagonal(args.k, args.d)

    print(f"pair ({args.k},{args.d})  trunc {args.trunc}  degree {args.degree}")
    print(f"{'seed':>4}  {'bool-root min eig':>18}  {'free min eig':>14}  free?")
    bool_fail = 0
    free_pass = 0
    for seed in range(args.seeds):
        mu = generate_realizable(seed, pair, args.trunc, 2 * pair.d)
        bcert = certify("boolean", root("boolean", mu, args.root_n), args.degree)
        fcert = certify("free", mu, args.degree)
        bool_fail += 0 if bcert.passed else 1
        free_pass += 1 if fcert.passed else 0
        mark = "yes" if fcert.passed else "no"
        print(f"{seed:>4}  {bcert.min_eig:>18.3e}  {fcert.min_eig:>14.3e}  {mark}")
    print(f"boolean root refusals: {bool_fail}/{args.seeds} (expected 0)")
    print(f"free certificates passed: {free_pass}/{args.seeds}")


if __name__ == "__main__":
    main()
