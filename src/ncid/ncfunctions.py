"""Matricial function transforms on nilpotent arguments.

At a nilpotent point c of M_m(B), strictly upper triangular up to the order
of its indices, the longest chain of nonzero blocks bounds every series
degree, so every value here is exact polynomial algebra.  Two evaluators
share that support-chain check.  The path-sum series gives M, the
reconstruction and the identity checks: the terminating sum of id_m tensor
levels[p] applied to (X c)^p, each term contracted slot by slot by one
kernel, _path_sum.  The functional equations give B, R and cR from M alone,
with no cumulant tensors: B = 1 - M^(-1), R(c) = M(b) - 1 and
cR(c) = (1 - M_mu(b)^(-1)) M_nu(b), where b M_nu(b) = c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import AlgebraPair, block_matrix
from .cumulants import (
    boolean_from_moments,
    cfree_from_moments,
    free_from_moments,
)
from .distribution import MomentFunctional, _truncated, level_shape
from .errors import (
    DimensionMismatch,
    NCIDError,
    OrderExceedsTruncation,
    PairMismatch,
    TruncationExceeded,
)


@dataclass(frozen=True, eq=False)
class NilpotentPoint:
    """Element of M_m(B), entries (m, m, k, k), whose support is acyclic.

    Strictly upper triangular up to an order of its indices, so nilpotent.
    """

    m: int
    k: int
    entries: np.ndarray

    @classmethod
    def from_entries(cls, entries) -> "NilpotentPoint":
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 4 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch("entries must have shape (m, m, k, k)")
        if entries.shape[2] != entries.shape[3]:
            raise DimensionMismatch("blocks must be square")
        m = entries.shape[0]
        _support_chain(entries, m)  # DimensionMismatch when the support has a cycle
        return cls(m=m, k=entries.shape[2], entries=entries)

    @classmethod
    def random(cls, rng, m: int, k: int, scale: float = 1.0) -> "NilpotentPoint":
        entries = np.zeros((m, m, k, k), dtype=complex)
        for i in range(m):
            for j in range(i + 1, m):
                entries[i, j] = scale * (
                    rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                )
        return cls(m=m, k=k, entries=entries)

    @property
    def index(self) -> int:
        """Nilpotency index: least r with point^r = 0."""
        power = self.entries
        for r in range(1, self.m + 1):
            if np.abs(power).max(initial=0.0) == 0:
                return r
            power = np.einsum("ilab,ljbc->ijac", power, self.entries)
        return self.m + 1


def triangular_probe(coeffs) -> NilpotentPoint:
    """Superdiagonal point with the given (k, k) coefficients b1, ..., bm."""
    coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
    k = coeffs[0].shape[0]
    m = len(coeffs) + 1
    entries = np.zeros((m, m, k, k), dtype=complex)
    for i, c in enumerate(coeffs):
        if c.shape != (k, k):
            raise DimensionMismatch("probe coefficients must share one shape")
        entries[i, i + 1] = c
    return NilpotentPoint(m=m, k=k, entries=entries)


TriangularProbe = triangular_probe


def _point_entries(point, k: int) -> np.ndarray:
    entries = np.asarray(getattr(point, "entries", point), dtype=complex)
    if entries.ndim != 4 or entries.shape[2] != k or entries.shape[3] != k:
        raise DimensionMismatch(f"point must have (m, m, {k}, {k}) entries")
    return entries


def _path_sum(level: np.ndarray, pair: AlgebraPair, coeff: np.ndarray) -> np.ndarray:
    """id_m tensor mu applied to (X coeff)^p, as an (m, m, d, d) block matrix.

    level holds the (k2,)*(p-1) + (d, d) values of the words with p letters;
    block (i, j) sums the value of X coeff[t0, t1] X ... X coeff[t_{p-1}, tp]
    over all index paths i = t0, t1, ..., tp = j, the trailing edge
    multiplying on the right through the embedding.  The level's slots are
    contracted one at a time against the (m, m, k2) point, each as one
    matrix product, one start row at a time, so no intermediate exceeds
    m * k2**(p-2) * d**2 entries.  Zero blocks drop their paths: a strict
    point sums strictly increasing paths, an upper triangular one with unit
    diagonal the non-decreasing ones.
    """
    m = coeff.shape[0]
    # steps[t, s, u] = entry u of coeff[s, t], so one slot is one matmul
    steps = coeff.reshape(m, m, -1).transpose(1, 0, 2)
    embedded = pair.embed_tensor(coeff)
    out = np.empty((m, m, pair.d, pair.d), dtype=complex)
    for i in range(m):
        # t[s, ...]: the level with its leading slots summed over paths i -> s
        t, rows = level[None], slice(i, i + 1)
        for _ in range(level.ndim - 2):
            step = steps[:, rows].reshape(m, -1)
            t = (step @ t.reshape(step.shape[1], -1)).reshape((m,) + t.shape[2:])
            rows = slice(None)
        out[i] = np.einsum("sab,sjbc->jac", t, embedded[rows])
    return out


def _support_chain(entries: np.ndarray, stored: int) -> int:
    """Longest chain of nonzero blocks of a point: the highest degree read.

    Support adjacency has no cancellation, unlike powers of the point.
    Raises TruncationExceeded when the chain is longer than `stored` levels,
    and DimensionMismatch when the blocks form a cycle (a chain of m blocks
    revisits an index), so the point is not nilpotent.
    """
    m = entries.shape[0]
    adj = (np.abs(entries).max(axis=(2, 3)) > 0).astype(float)
    longest, power = 0, adj
    while power.max(initial=0.0) > 0:
        longest += 1
        if longest == m:
            raise DimensionMismatch("point is not nilpotent: its nonzero blocks form a cycle")
        power = power @ adj
    if longest > stored:
        raise TruncationExceeded(f"series needs {longest} levels, stored {stored}")
    return longest


def eval_series(levels: dict, pair: AlgebraPair, point, include_identity: bool):
    """Sum over p of the path sums of levels[p] at a nilpotent point.

    levels[p] holds the (k2,)**(p-1) + (d, d) value tensor of words with p
    letters; see _path_sum.  Raises TruncationExceeded when the point's
    support has a chain of nonzero blocks longer than the stored levels, and
    DimensionMismatch when it has a cycle, so the point is not nilpotent.
    """
    entries = _point_entries(point, pair.k)
    m, d = entries.shape[0], pair.d
    out = np.zeros((m, m, d, d), dtype=complex)
    if include_identity:
        for i in range(m):
            out[i, i] = np.eye(d)
    for p in range(1, _support_chain(entries, max(levels) if levels else 0) + 1):
        out += _path_sum(levels[p], pair, entries)
    return out


def eval_M(mu: MomentFunctional, point):
    """Moment transform 1 + sum of amplified moments of (bX)^p."""
    return eval_series(mu.levels, mu.pair, point, include_identity=True)


def _bprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ilab,ljbc->ijac", a, b)


def _one_minus_inverse(blocks: np.ndarray) -> np.ndarray:
    """1 - M^(-1) for an (m, m, v, v) block matrix M = 1 + N, N nilpotent.

    M^(-1) is the Neumann series of the m - 1 powers of -N by Horner's rule,
    so blocks that no index path reaches stay exactly zero.
    """
    m, _, v, _ = blocks.shape
    eye = np.eye(m * v)
    step, inv = eye - block_matrix(blocks), eye
    for _ in range(m - 1):
        inv = eye + step @ inv
    return (eye - inv).reshape(m, v, m, v).transpose(0, 2, 1, 3)


def _subordinate(nu: MomentFunctional, point):
    """b in M_m(B) with b M_nu(b) = c, and M_nu(b) - 1, both inside B.

    The levels the point reads are pulled back into B first (NotBValued).
    b <- c M_nu(b)^(-1) = c (1 - B_nu(b)) starts right to first order in c
    and fixes one more order per step; products of more than `longest`
    factors of c vanish, so longest - 1 steps give the exact b.
    """
    entries = _point_entries(point, nu.pair.k)
    longest = _support_chain(entries, nu.truncation)
    inner = AlgebraPair.identity(nu.pair.k)
    levels = {p: nu.pair.pullback_tensor(nu.levels[p]) for p in range(1, longest + 1)}
    b = entries
    for _ in range(longest - 1):
        b = entries - _bprod(entries, _one_minus_inverse(eval_series(levels, inner, b, True)))
    return b, eval_series(levels, inner, b, False)


def eval_B(mu: MomentFunctional, point):
    """Boolean transform B(c) = 1 - M(c)^(-1), from M - 1 = B M."""
    return _one_minus_inverse(eval_M(mu, point))


def eval_R(nu: MomentFunctional, point):
    """Free transform R(c) = M(b) - 1 with b M(b) = c, from M - 1 = R(b M)."""
    return nu.pair.embed_tensor(_subordinate(nu, point)[1])


def eval_cR(mu: MomentFunctional, nu: MomentFunctional, point):
    """C-free transform cR(c) = (1 - M_mu(b)^(-1)) M_nu(b) with b M_nu(b) = c,
    from (M_mu - 1) M_nu = M_mu cR(b M_nu)."""
    if not mu.pair.same_pair(nu.pair):
        raise PairMismatch("mu and nu live over different algebra pairs")
    # cut nu so that the point's chain must fit the levels of both laws
    b, r = _subordinate(_truncated(nu, min(mu.truncation, nu.truncation)), point)
    bmu = _one_minus_inverse(eval_series(mu.levels, mu.pair, b, True))
    return bmu + _bprod(bmu, nu.pair.embed_tensor(r))


def extract_taylor(mu: MomentFunctional, coeffs, transform: str = "M"):
    """Taylor term of a transform along the superdiagonal probe.

    With probe coefficients b1, ..., bm the only increasing path through the
    corner runs along the superdiagonal, so the (0, m) block of the transform
    at the probe is exactly the degree-m term: the moment of X b1 X b2 ... X bm
    for transform M, the corresponding cumulant value otherwise.  That term is
    returned directly.
    """
    k = mu.pair.k
    if any(np.shape(c) != (k, k) for c in coeffs):
        raise DimensionMismatch(f"probe coefficients must be {k} x {k}")
    if not 1 <= len(coeffs) <= mu.truncation:
        raise TruncationExceeded(
            f"Taylor term of degree {len(coeffs)} outside 1..{mu.truncation}"
        )
    if transform == "M":
        return mu.eval_word(coeffs)
    if transform == "B":
        return boolean_from_moments(_truncated(mu, len(coeffs))).evaluate(coeffs)
    if transform == "R":
        return free_from_moments(_truncated(mu, len(coeffs))).evaluate(coeffs)
    raise NCIDError(f"unknown transform {transform!r}")


def _pullback_blocks(pair: AlgebraPair, blocks: np.ndarray, tol: float = 1e-10):
    m = blocks.shape[0]
    out = np.zeros((m, m, pair.k, pair.k), dtype=complex)
    for i in range(m):
        for j in range(m):
            if np.abs(blocks[i, j]).max(initial=0.0) > 0:
                out[i, j] = pair.pullback(blocks[i, j], tol=tol)
    return out


def _strict_upper_or_raise(blocks: np.ndarray) -> None:
    m = blocks.shape[0]
    for i in range(m):
        for j in range(i + 1):
            if np.abs(blocks[i, j]).max(initial=0.0) > 1e-12:
                raise NCIDError("transform argument is not strictly upper")


def _rel_err(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(lhs).max(initial=0.0)), float(np.abs(rhs).max(initial=0.0)))
    return float(np.abs(lhs - rhs).max(initial=0.0)) / scale


def _require_order(order: int) -> None:
    """Checks probe points of size order + 1, which are zero below order 1."""
    if order < 1:
        raise DimensionMismatch(f"check order must be >= 1, got {order}")


def check_identity(
    name: str,
    mu: MomentFunctional,
    nu: MomentFunctional | None = None,
    order: int = 4,
    seed: int = 0,
    probes: int = 50,
    tol: float = 1e-10,
) -> dict:
    """Residual check of the transform functional equations on random points.

    B:  M_mu(b) - 1 = B_mu(b) M_mu(b)
    R:  M_nu(b) - 1 = R_nu(b M_nu(b))
    cR: (M_mu(b) - 1) M_nu(b) = M_mu(b) cR_{mu,nu}(b M_nu(b))
    """
    if name not in ("B", "R", "cR"):
        raise NCIDError(f"unknown identity {name!r}")
    _require_order(order)
    pair = mu.pair
    if order > mu.truncation or (nu is not None and order > nu.truncation):
        raise OrderExceedsTruncation(
            f"identity check at order {order} exceeds stored truncation"
        )
    # recursion level p reads levels <= p; probes read <= order
    if name == "B":
        series = boolean_from_moments(_truncated(mu, order)).levels
    elif name == "R":
        series = free_from_moments(_truncated(mu, order)).levels
    else:
        if nu is None:
            raise NCIDError("identity cR needs the second functional")
        series = cfree_from_moments(_truncated(mu, order), _truncated(nu, order)).levels
    rng = np.random.default_rng(seed)
    m = order + 1
    worst = 0.0
    for _ in range(probes):
        point = NilpotentPoint.random(rng, m, pair.k, scale=0.7)
        mm = eval_M(mu, point)
        lhs = mm.copy()
        for i in range(m):
            lhs[i, i] = lhs[i, i] - np.eye(pair.d)
        if name == "B":
            rhs = _bprod(eval_series(series, pair, point, False), mm)
        else:
            mnu = mm if name == "R" else eval_M(nu, point)
            arg = _bprod(pair.embed_tensor(point.entries), mnu)
            _strict_upper_or_raise(arg)
            rhs = eval_series(series, pair, _pullback_blocks(pair, arg), False)
            if name == "cR":
                lhs, rhs = _bprod(lhs, mnu), _bprod(mm, rhs)
        worst = max(worst, _rel_err(lhs, rhs))
    return {
        "identity": name,
        "order": order,
        "seed": seed,
        "probes": probes,
        "residual": worst,
        "pass": worst <= tol,
    }


def check_cauchy_relation(
    mu: MomentFunctional,
    order: int = 4,
    seed: int = 0,
    probes: int = 10,
    tol: float = 1e-9,
) -> dict:
    """Laurent-order comparison of the resolvent against the boolean series.

    At b = lambda(1 - c) with c nilpotent the resolvent expands as
    G = sum_s t^{s+1} G_s in t = 1/lambda, its inverse H as
    sum_r t^{r-1} H_r.  The boolean transform relation gives, order by
    order, delta_{r0} 1 - H_r G_0 = [B-series of (X (1-c)^{-1})^r].
    """
    _require_order(order)
    if order > mu.truncation:
        raise OrderExceedsTruncation(
            f"relation check at order {order} exceeds truncation {mu.truncation}"
        )
    pair = mu.pair
    k, d = pair.k, pair.d
    rng = np.random.default_rng(seed)
    m = order + 1
    bstored = boolean_from_moments(mu).levels
    worst = 0.0
    for _ in range(probes):
        c = NilpotentPoint.random(rng, m, k, scale=0.5).entries
        # p0 = (1 - c)^{-1} as an upper triangular element of M_m(B)
        p0 = np.zeros((m, m, k, k), dtype=complex)
        for i in range(m):
            p0[i, i] = np.eye(k)
        power = c.copy()
        while np.abs(power).max(initial=0.0) > 0:
            p0 = p0 + power
            power = _bprod(power, c)
        ep0 = pair.embed_tensor(p0)
        g0 = block_matrix(ep0)
        gs = [g0]
        for s in range(1, order + 1):
            gs.append(block_matrix(_bprod(ep0, _path_sum(mu.levels[s], pair, p0))))
        h0 = np.linalg.inv(g0)
        hs = [h0]
        for r in range(1, order + 1):
            acc = np.zeros_like(h0)
            for s in range(1, r + 1):
                acc = acc + hs[r - s] @ gs[s]
            hs.append(-(acc @ h0))
        for r in range(order + 1):
            lhs = -(hs[r] @ g0)
            if r == 0:
                lhs = lhs + np.eye(m * d)
            rhs = block_matrix(_path_sum(bstored[r], pair, p0)) if r else np.zeros_like(lhs)
            worst = max(worst, _rel_err(lhs, rhs))
    return {
        "identity": "G",
        "order": order,
        "seed": seed,
        "probes": probes,
        "residual": worst,
        "pass": worst <= tol,
    }


def check_nc_function_axioms(
    mu: MomentFunctional,
    order: int = 3,
    seed: int = 0,
    probes: int = 20,
    tol: float = 1e-10,
) -> dict:
    """Direct sums and similarities for the moment transform.

    Similarities use unipotent upper triangular scalar matrices, which keep
    strictly upper arguments strictly upper.
    """
    _require_order(order)
    if 2 * order - 1 > mu.truncation:  # direct sums reach size 2 * order
        raise OrderExceedsTruncation(
            f"axioms check at order {order} needs truncation {2 * order - 1}, "
            f"got {mu.truncation}"
        )
    pair = mu.pair
    k, d = pair.k, pair.d
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        m1 = int(rng.integers(1, order + 1))
        m2 = int(rng.integers(1, order + 1))
        b1 = NilpotentPoint.random(rng, m1, k, scale=0.7)
        b2 = NilpotentPoint.random(rng, m2, k, scale=0.7)
        m = m1 + m2
        direct = np.zeros((m, m, k, k), dtype=complex)
        direct[:m1, :m1] = b1.entries
        direct[m1:, m1:] = b2.entries
        got = eval_M(mu, direct)
        want = np.zeros((m, m, d, d), dtype=complex)
        want[:m1, :m1] = eval_M(mu, b1)
        want[m1:, m1:] = eval_M(mu, b2)
        worst = max(worst, _rel_err(got, want))

        b = NilpotentPoint.random(rng, m, k, scale=0.7)
        s = np.eye(m, dtype=complex)
        for i in range(m):
            for j in range(i + 1, m):
                s[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        sinv = np.linalg.inv(s)
        conj = np.einsum("il,ljab,jp->ipab", s, b.entries, sinv)
        got = eval_M(mu, conj)
        want = np.einsum("il,ljab,jp->ipab", s, eval_M(mu, b), sinv)
        worst = max(worst, _rel_err(got, want))
    return {
        "identity": "axioms",
        "order": order,
        "seed": seed,
        "probes": probes,
        "residual": worst,
        "pass": worst <= tol,
    }


def amplify_functional(mu: MomentFunctional, n: int, truncation: int) -> MomentFunctional:
    """The functional id_{M_n} tensor mu over the pair (nk, nd).

    Words in M_n(B)<X> are expanded entrywise in M_n(B<X>) and mu applied to
    every entry, which on matrix-unit tuples is a delta chain along the M_n
    legs times the original value tensor.
    """
    pair = mu.pair
    k, d = pair.k, pair.d
    nk, nd = n * k, n * d
    if truncation > mu.truncation:
        raise TruncationExceeded(
            f"amplification to degree {truncation} exceeds stored {mu.truncation}"
        )
    eye = np.eye(n)
    # row (r, i, s, j), column (r, a, s, b): unit (a, b) of B embedded at block (r, s)
    embed = np.einsum(
        "Rr,Ss,ijab->RiSjrasb", eye, eye, pair.embed_matrix.reshape(d, d, k, k)
    ).reshape(nd * nd, nk * nk)
    big_pair = AlgebraPair(k=nk, d=nd, embed_matrix=embed)
    levels = {}
    for p in range(1, truncation + 1):
        # Slot t holds the unit (r_t, a_t; s_t, b_t).  chain[r_1, s_1, ...,
        # r_(p-1), s_(p-1), r, s] is true when the M_n legs chain from
        # r = r_1 through s_t = r_(t+1) to s = s_(p-1); at p = 1 when r = s.
        chain = reduce(np.multiply.outer, [eye.astype(bool)] * p)
        chain = np.moveaxis(chain, 0, 2 * p - 2).reshape((n, 1, n, 1) * p)
        base = mu.levels[p].reshape((1, k, 1, k) * (p - 1) + (1, d, 1, d))
        levels[p] = np.where(chain, base, 0).reshape(level_shape(nk, nd, p))
    return MomentFunctional(pair=big_pair, truncation=truncation, levels=levels)


def tensor_compatibility(
    mu: MomentFunctional,
    n: int,
    order: int = 3,
    seed: int = 0,
    probes: int = 10,
    tol: float = 1e-10,
) -> dict:
    """Amplification compatibility: evaluating the transform of the
    n-amplified functional at m x m points agrees with evaluating the
    original transform at the regrouped (mn) x (mn) point."""
    _require_order(order)
    if order > mu.truncation:
        raise OrderExceedsTruncation(
            f"tensor check at order {order} exceeds truncation {mu.truncation}"
        )
    pair = mu.pair
    k = pair.k
    amp = amplify_functional(mu, n, order)
    rng = np.random.default_rng(seed)
    m = order + 1
    worst = 0.0
    for _ in range(probes):
        big = NilpotentPoint.random(rng, m, n * k, scale=0.6)
        small_entries = big.entries.reshape(m, m, n, k, n, k).transpose(0, 2, 1, 4, 3, 5)
        small_entries = small_entries.reshape(m * n, m * n, k, k)
        got = block_matrix(eval_M(amp, big))
        want = block_matrix(eval_M(mu, small_entries))
        worst = max(worst, _rel_err(got, want))
    return {
        "identity": "tensor",
        "order": order,
        "seed": seed,
        "probes": probes,
        "residual": worst,
        "pass": worst <= tol,
    }
