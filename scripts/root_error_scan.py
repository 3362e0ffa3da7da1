"""Scan convolution-root errors against the 1/N prediction.

N times the n-th moment of the N-th root converges to the n-th cumulant with
an O(1/N) correction, so doubling N should roughly halve the error.  The
script prints err(N) = max_{n<=orders} |N m_n(root_N) - cum_n| for a geometric
ladder of N and the ratio between consecutive rows.
"""

from __future__ import annotations

import argparse

import numpy as np

from ncid.convolution import root
from ncid.cumulants import (
    boolean_from_moments,
    cfree_from_moments,
    free_from_moments,
)
from ncid.distribution import scalar_from_moments

SEMICIRCLE = (0.0, 1.0, 0.0, 2.0, 0.0, 5.0)


def err(kind: str, mf, levels, big_n: int, orders: int) -> float:
    if kind == "cfree":
        r, _ = root("cfree", (mf, mf), big_n)
    else:
        r = root(kind, mf, big_n)
    return max(
        float(np.abs(big_n * r.raw(n) - levels[n]).max()) for n in range(1, orders + 1)
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, default=4)
    ap.add_argument("--start", type=int, default=25)
    ap.add_argument("--steps", type=int, default=5)
    args = ap.parse_args()

    mf = scalar_from_moments(SEMICIRCLE)
    fams = {
        "boolean": boolean_from_moments(mf).levels,
        "free": free_from_moments(mf).levels,
        "cfree": cfree_from_moments(mf, mf).levels,
    }
    ns = [args.start * 2**i for i in range(args.steps)]
    for kind, levels in fams.items():
        print(f"{kind} root of the standard semicircle, n <= {args.orders}")
        prev = None
        for big_n in ns:
            e = err(kind, mf, levels, big_n, args.orders)
            ratio = "" if prev is None else f"  ratio {e / prev:.4f}"
            print(f"  N={big_n:>5}  err {e:.6e}{ratio}")
            prev = e
        print()


if __name__ == "__main__":
    main()
