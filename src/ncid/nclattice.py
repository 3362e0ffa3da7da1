"""Non-crossing partition lattice: enumeration, order, Moebius function,
block classification, and the multiplicative weight systems used to
cross-check cumulant recursions.

Ground sets are {1..n}. Partitions are canonical: each block strictly
increasing, blocks sorted by their minimum.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from math import comb

import numpy as np

from .errors import (
    GroundSetMismatch,
    NCIDError,
    NotComparable,
    PairMismatch,
    TooLarge,
    TruncationExceeded,
)

MAX_GROUND_SET = 10


@dataclasses.dataclass(frozen=True)
class NCPartition:
    n: int
    blocks: tuple

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "NCPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        p = cls(n=n, blocks=canon)
        p._validate()
        return p

    def _validate(self) -> None:
        seen = [e for b in self.blocks for e in b]
        if sorted(seen) != list(range(1, self.n + 1)):
            raise GroundSetMismatch(f"blocks do not partition 1..{self.n}")
        for b in self.blocks:
            if list(b) != sorted(set(b)):
                raise GroundSetMismatch("blocks must be strictly increasing")
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1 :]:
                if _crosses(a, b):
                    raise NCIDError(f"blocks {a} and {b} cross")

    def __str__(self) -> str:
        return "{" + "|".join("".join(str(e) for e in b) for b in self.blocks) + "}"


def _crosses(a, b) -> bool:
    tagged = sorted([(e, 0) for e in a] + [(e, 1) for e in b])
    collapsed = []
    for _, tag in tagged:
        if not collapsed or collapsed[-1] != tag:
            collapsed.append(tag)
    return len(collapsed) >= 4


def full_partition(n: int) -> NCPartition:
    return NCPartition.from_blocks(n, [tuple(range(1, n + 1))])


def discrete_partition(n: int) -> NCPartition:
    return NCPartition.from_blocks(n, [(i,) for i in range(1, n + 1)])


def _nc_partitions_of(elems: tuple):
    """All noncrossing block lists over the ordered tuple ``elems``."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    r = len(rest)
    for mask in range(1 << r):
        chosen = tuple(rest[i] for i in range(r) if mask >> i & 1)
        block = (first,) + chosen
        segments = []
        bounds = list(block) + [None]
        for s in range(len(block)):
            lo, hi = bounds[s], bounds[s + 1]
            seg = tuple(e for e in rest if e > lo and (hi is None or e < hi) and e not in chosen)
            segments.append(seg)
        rec = [[]]
        for seg in segments:
            rec = [partial + sub for partial in rec for sub in _nc_partitions_of(seg)]
        for tail in rec:
            yield [block] + tail


@lru_cache(maxsize=None)
def enumerate_nc(n: int) -> tuple:
    """All of NC(n), sorted lexicographically by block structure."""
    if n < 1 or n > MAX_GROUND_SET:
        raise TooLarge(f"ground set size {n} outside 1..{MAX_GROUND_SET}")
    parts = [
        NCPartition(n=n, blocks=tuple(sorted((tuple(b) for b in blocks), key=lambda b: b[0])))
        for blocks in _nc_partitions_of(tuple(range(1, n + 1)))
    ]
    return tuple(sorted(parts, key=lambda p: p.blocks))


def leq(sigma: NCPartition, pi: NCPartition) -> bool:
    """Refinement order: every block of sigma inside a block of pi."""
    if sigma.n != pi.n:
        raise GroundSetMismatch(f"ground sets {sigma.n} != {pi.n}")
    owner = {}
    for bi, b in enumerate(pi.blocks):
        for e in b:
            owner[e] = bi
    for b in sigma.blocks:
        if len({owner[e] for e in b}) != 1:
            return False
    return True


def moebius(sigma: NCPartition, pi: NCPartition) -> int:
    """Moebius function of the interval [sigma, pi] in NC(n).

    The interval factors over the blocks W of pi, and [sigma|W, 1_W] is
    isomorphic to the lattice below the Kreweras complement K(sigma|W), a
    product of full lattices NC(l) with moeb(0_l, 1_l) = (-1)^(l-1) Cat_(l-1)
    (Nica-Speicher, Lectures 9-10).  K(sigma|W) has the cycles of
    sigma^(-1) o gamma_W, gamma_W the cyclic shift of W, and sigma the
    permutation whose cycles are its blocks in increasing order.
    """
    if not leq(sigma, pi):
        raise NotComparable(f"{sigma} is not below {pi}")
    sigma_inv = {}
    for b in sigma.blocks:
        sigma_inv.update(zip(b[1:] + b[:1], b))
    value, seen = 1, set()
    for w in pi.blocks:
        shift = dict(zip(w, w[1:] + w[:1]))
        for start in w:
            size, e = 0, start
            while e not in seen:
                seen.add(e)
                size += 1
                e = sigma_inv[shift[e]]
            if size:
                value *= (-1) ** (size - 1) * (comb(2 * size - 2, size - 1) // size)
    return value


def classify_blocks(pi: NCPartition) -> tuple:
    """Per-block 'interior'/'exterior' labels, aligned with pi.blocks: a
    block is exterior exactly when it heads a nesting component."""
    outer = {blk for blk, _ in _components(pi.blocks)}
    return tuple("exterior" if b in outer else "interior" for b in pi.blocks)


def _components(blocks):
    """Group blocks into nesting components, left to right.

    Each component is (outer_block, nested_blocks) where nested blocks sit
    strictly inside the span of the outer one.
    """
    comps = []
    for blk in sorted(blocks, key=lambda b: b[0]):
        if comps and blk[0] < comps[-1][0][-1]:
            comps[-1][1].append(blk)
        else:
            comps.append((blk, []))
    return comps


def _component_value(outer, nested, fn_top, fn_inner, b, pair):
    """Rule (c): evaluate one nesting component as a bordered word."""
    coeffs = []
    for s in range(len(outer) - 1):
        lo, hi = outer[s], outer[s + 1]
        gap_blocks = [blk for blk in nested if lo < blk[0] and blk[-1] < hi]
        if gap_blocks:
            w = pair.pullback(_partition_value(gap_blocks, fn_inner, fn_inner, b, pair))
        else:
            w = np.eye(pair.k, dtype=np.complex128)
        coeffs.append(b @ w)
    coeffs.append(b)
    return fn_top.eval_word(coeffs)


def _partition_value(blocks, fn_top, fn_inner, b, pair):
    """Rules (a)+(c): product of component values, left to right."""
    val = np.eye(pair.d, dtype=np.complex128)
    for outer, nested in _components(blocks):
        val = val @ _component_value(outer, nested, fn_top, fn_inner, b, pair)
    return val


def nc_weights(pi: NCPartition, kind: str, mu, nu, b: np.ndarray):
    """Multiplicative weights f, F, g, G on NC(m).

    f uses nu throughout; F evaluates exterior components through mu. g and
    G are the same rules with the free cumulant functional of nu in place
    of nu and the c-free cumulant functional of (mu, nu) in place of mu.
    Nesting gaps inside F and G are filled by the nu-based inner weights.
    """
    if kind not in ("f", "F", "g", "G"):
        raise NCIDError(f"unknown weight kind {kind!r}")
    if not mu.pair.same_pair(nu.pair):
        raise PairMismatch("mu and nu live over different algebra pairs")
    m = pi.n
    if m > mu.truncation or m > nu.truncation:
        raise TruncationExceeded(f"NC({m}) weight needs truncation >= {m}")
    pair = nu.pair
    b = np.asarray(b, dtype=np.complex128)

    if kind in ("g", "G"):
        from .cumulants import cfree_from_moments, free_from_moments, functional_of
        from .distribution import _truncated

        mu, nu = _truncated(mu, m), _truncated(nu, m)  # weights read degrees <= m
        inn = functional_of("free", free_from_moments(nu))
        top = inn if kind == "g" else functional_of("cfree", cfree_from_moments(mu, nu))
    else:
        inn = nu
        top = nu if kind == "f" else mu

    return _partition_value(list(pi.blocks), top, inn, b, pair)
