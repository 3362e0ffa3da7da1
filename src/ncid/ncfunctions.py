"""Matricial function transforms on nilpotent arguments.

At a nilpotent point c of M_m(B), strictly upper triangular up to the order
of its indices, the longest chain of nonzero blocks bounds every series
degree, so every value here is exact polynomial algebra.  Two evaluators
share that support-chain check.  The path-sum series gives M, the
reconstruction and the identity checks: the terminating sum of id_m tensor
levels[p] applied to (X c)^p, each term contracted slot by slot by one
kernel, _path_sum.  The functional equations give B, R and cR from M alone,
with no cumulant tensors: B = 1 - M^(-1), R(c) = M(b) - 1 and
cR(c) = (1 - M_mu(b)^(-1)) M_nu(b), where b M_nu(b) = c.  An nc function
respects direct sums, so the checks draw all their random points first and
evaluate them together: _path_sum takes a leading axis of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import MAX_GENERATE_BYTES, AlgebraPair, _graded_scale, block_matrix
from .cumulants import family_of
from .distribution import MomentFunctional, _truncated, level_shape, seeded_rng
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
        return cls(m=m, k=k, entries=_random_entries(rng, 1, m, k, scale)[0])

    @property
    def index(self) -> int:
        """Nilpotency index: least r with point^r = 0."""
        power = self.entries
        for r in range(1, self.m + 1):
            if np.abs(power).max(initial=0.0) == 0:
                return r
            power = np.einsum("ilab,ljbc->ijac", power, self.entries)
        return self.m + 1


def _random_entries(rng, count: int, m: int, k: int, scale: float) -> np.ndarray:
    """(count, m, m, k, k) entries of `count` random strictly upper points,
    from one draw that reads the generator as `count` calls of
    NilpotentPoint.random do: each upper block, row by row, its real and
    then its imaginary (k, k) part."""
    rows, cols = np.triu_indices(m, 1)
    z = rng.standard_normal((count, len(rows), 2, k, k))
    entries = np.zeros((count, m, m, k, k), dtype=complex)
    entries[:, rows, cols] = scale * (z[:, :, 0] + 1j * z[:, :, 1])
    return entries


def triangular_probe(coeffs) -> NilpotentPoint:
    """Superdiagonal point with the given (k, k) coefficients b1, ..., bm, m >= 1."""
    coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
    if not coeffs:
        raise DimensionMismatch("a triangular probe needs at least one coefficient")
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
    """The (m, m, k, k) entries of a point or array; DimensionMismatch else."""
    entries = np.asarray(getattr(point, "entries", point), dtype=complex)
    if entries.ndim != 4 or entries.shape[0] != entries.shape[1] or entries.shape[2:] != (k, k):
        raise DimensionMismatch(f"point must have (m, m, {k}, {k}) entries, got {entries.shape}")
    return entries


def _path_sum(level: np.ndarray, pair: AlgebraPair, coeff: np.ndarray) -> np.ndarray:
    """id_m tensor mu applied to (X coeff[q])^p for each of P points, as a
    (P, m, m, d, d) stack of block matrices.

    coeff holds the (P, m, m, k, k) entries of the points and level the
    (k2,)*(p-1) + (d, d) values of the words with p letters; block (i, j) of
    point q sums the value of X coeff[q, t0, t1] X ... X coeff[q, t_{p-1}, tp]
    over all index paths i = t0, t1, ..., tp = j, the trailing edge
    multiplying on the right through the embedding.  The level's slots are
    contracted one at a time against the points, each as one matrix product
    per point, one start row at a time; the first slot broadcasts the shared
    level over the points, so it is never copied.  No intermediate exceeds
    P * m * k2**(p-2) * d**2 entries: callers that batch many points split
    them into groups that fit the byte budget (_check).  Zero blocks drop
    their paths: a strict point sums strictly increasing paths, an upper
    triangular one with unit diagonal the non-decreasing ones.
    """
    count, m = coeff.shape[:2]
    # steps[q, t, s, u] = entry u of coeff[q, s, t], so one slot is one matmul.
    # Kept a view: each point's operands have the memory layout of a batch of
    # one, so BLAS sums in the same order and every point gets the same bits.
    steps = coeff.reshape(count, m, m, -1).transpose(0, 2, 1, 3)
    embedded = pair.embed_tensor(coeff)
    out = np.empty((count, m, m, pair.d, pair.d), dtype=complex)
    for i in range(m):
        # t[q, s, ...]: the level with its leading slots summed over the
        # paths i -> s of point q; a leading axis of 1 while the level is shared
        t, rows = level[None, None], slice(i, i + 1)
        for _ in range(level.ndim - 2):
            step = steps[:, :, rows].reshape(count, m, -1)
            t = (step @ t.reshape(len(t), step.shape[2], -1)).reshape((count, m) + t.shape[3:])
            rows = slice(None)
        out[:, i] = np.einsum("...sab,...sjbc->...jac", t, embedded[:, rows])
    return out


def _support_chain(entries: np.ndarray, stored: int) -> int:
    """Longest chain of nonzero blocks of a point, or of a stack of points:
    the highest degree read.

    Support adjacency has no cancellation, unlike powers of the point.
    Raises TruncationExceeded when a chain is longer than `stored` levels,
    and DimensionMismatch when the blocks of a point form a cycle (a chain
    of m blocks revisits an index), so the point is not nilpotent.
    """
    m = entries.shape[-4]
    adj = (np.abs(entries).max(axis=(-2, -1)) > 0).astype(float)
    longest, power = 0, adj
    while power.max(initial=0.0) > 0:
        longest += 1
        if longest == m:
            raise DimensionMismatch("point is not nilpotent: its nonzero blocks form a cycle")
        power = power @ adj
    if longest > stored:
        raise TruncationExceeded(f"series needs {longest} levels, stored {stored}")
    return longest


def _series(levels: dict, pair: AlgebraPair, entries: np.ndarray, include_identity: bool, cap=None):
    """eval_series at each of a (P, m, m, k, k) stack of points: P block
    matrices (P, m, m, d, d), the sum running to the longest chain of any
    point (the longer paths of the other points are exactly zero), or to
    level `cap` if less: a capped sum skips the check against the stored levels."""
    count, m = entries.shape[:2]
    out = np.zeros((count, m, m, pair.d, pair.d), dtype=complex)
    if include_identity:
        out[:, range(m), range(m)] = np.eye(pair.d)
    longest = _support_chain(entries, m if cap else max(levels, default=0))
    for p in range(1, min(longest, cap or m) + 1):
        out += _path_sum(levels[p], pair, entries)
    return out


def eval_series(levels: dict, pair: AlgebraPair, point, include_identity: bool):
    """Sum over p of the path sums of levels[p] at a nilpotent point.

    levels[p] holds the (k2,)**(p-1) + (d, d) value tensor of words with p
    letters; see _path_sum, which this calls with a batch of one point.
    Raises TruncationExceeded when the point's support has a chain of
    nonzero blocks longer than the stored levels, and DimensionMismatch when
    it has a cycle, so the point is not nilpotent.
    """
    return _series(levels, pair, _point_entries(point, pair.k)[None], include_identity)[0]


def eval_M(mu: MomentFunctional, point):
    """Moment transform 1 + sum of amplified moments of (bX)^p."""
    return eval_series(mu.levels, mu.pair, point, include_identity=True)


def _bprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (..., m, m, v, v) block matrices, point by point."""
    return np.einsum("...ilab,...ljbc->...ijac", a, b)


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
    factors of c vanish, so longest - 1 steps give the exact b.  Step i
    leaves b exact to order i + 1, so it reads M_nu(b) to order i: levels
    1..i, as b is c plus higher orders.  The dropped levels add exact zeros
    to every block that step makes exact, so b keeps the bits of full steps.
    """
    entries = _point_entries(point, nu.pair.k)
    longest = _support_chain(entries, nu.truncation)
    inner = AlgebraPair.identity(nu.pair.k)
    levels = {p: nu.pair.pullback_tensor(nu.levels[p]) for p in range(1, longest + 1)}
    b = entries
    for order in range(1, longest):
        mb = _series(levels, inner, b[None], True, cap=order)[0]
        b = entries - _bprod(entries, _one_minus_inverse(mb))
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


# The kind whose cumulant series each transform is; extract_taylor takes
# the transforms of one law, check_identity also cR of the pair (mu, nu)
_TAYLOR = {"B": "boolean", "R": "free"}
_SERIES = {**_TAYLOR, "cR": "cfree"}


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
    kind = _TAYLOR.get(transform)
    if kind is None:
        raise NCIDError(f"unknown transform {transform!r}")
    return family_of(kind, _truncated(mu, len(coeffs))).evaluate(coeffs)


def _rel_err(lhs: np.ndarray, rhs: np.ndarray) -> list:
    """Relative deviation of each point's value: the leading axis is the points."""
    axes = tuple(range(1, lhs.ndim))

    def top(a):
        return np.abs(a).max(axis=axes, initial=0.0)

    scale = np.maximum(1.0, np.maximum(top(lhs), top(rhs)))
    return (top(lhs - rhs) / scale).tolist()


def _check(identity, laws, order, need, seed, probes, tol, draw, residuals, prepare, points=1):
    """Report of the check `identity` at `order`: the scaffold the four
    checks share, each giving its draw and its residuals.

    An order below 1, no probe, or a `need` past a law's truncation is
    refused (OrderExceedsTruncation for the last).  prepare() then makes
    the data the residuals read, over the pair of the points, and
    draw(rng, s) draws every probe from the seed, s being the largest
    _graded_scale of the laws, the certificate's.  A point of scale 1/s
    keeps every compared value at its size under the dilation
    X -> lambda X, so a residual is relative at every lambda.

    The residual reported is the worst of residuals(data, drawn[group], s)
    over the fewest groups of probes whose arrays fit MAX_GENERATE_BYTES;
    one that is not finite is refused.  A probe evaluates up to `points`
    points of size m = need + 1, reading `need` levels, each holding two
    path-sum intermediates of m * k2**(need-2) * d**2 entries and at most
    2 m + 8 block matrices of (m d)**2 entries (the Cauchy check's Laurent
    orders).  A probe too large to share a group is evaluated alone.
    """
    if order < 1:
        raise DimensionMismatch(f"check order must be >= 1, got {order}")
    if probes < 1:
        raise DimensionMismatch(f"a check needs at least one probe, got {probes}")
    stored = min(law.truncation for law in laws)
    if need > stored:
        raise OrderExceedsTruncation(
            f"{identity} check at order {order} needs truncation {need}, got {stored}"
        )
    data = prepare()
    s = max(_graded_scale(law.levels) for law in laws)
    drawn = draw(seeded_rng(seed), s)
    m, k2, d = need + 1, data.pair.k**2, data.pair.d
    per = 16 * points * m * d**2 * (2 * k2 ** max(need - 2, 0) + (2 * m + 8) * m)
    size = max(1, MAX_GENERATE_BYTES // per)
    errs = []
    for start in range(0, probes, size):
        errs += residuals(data, drawn[start : start + size], s)
    if not np.isfinite(errs).all():
        raise NCIDError(f"{identity} check at order {order}: a residual is not finite")
    worst = max(errs)
    return {"identity": identity, "order": order, "seed": seed, "probes": probes,
            "residual": worst, "pass": worst <= tol}


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
    R:  M_mu(b) - 1 = R_mu(b M_mu(b))
    cR: (M_mu(b) - 1) M_nu(b) = M_mu(b) cR_{mu,nu}(b M_nu(b))

    nu is read for cR alone.  The points are drawn at scale 0.7 / s and
    evaluated together, a batch per group of probes (see _check).
    """
    if name not in _SERIES:
        raise NCIDError(f"unknown identity {name!r}")
    if name == "cR" and nu is None:
        raise NCIDError("identity cR needs the second functional")
    laws = (mu, nu) if name == "cR" else (mu,)
    pair, m = mu.pair, order + 1

    def series():
        # recursion level p reads levels <= p; probes read <= order
        data = tuple(_truncated(law, order) for law in laws)
        return family_of(_SERIES[name], data if name == "cR" else data[0])

    def residuals(fam, c, s):
        mm = _series(mu.levels, pair, c, True)
        lhs = mm.copy()
        lhs[:, range(m), range(m)] -= np.eye(pair.d)
        if name == "B":
            return _rel_err(lhs, _bprod(_series(fam.levels, pair, c, False), mm))
        mnu = mm if name == "R" else _series(nu.levels, pair, c, True)
        arg = _bprod(pair.embed_tensor(c), mnu)
        # each point's argument is pulled back on its own (NotBValued)
        rhs = _series(fam.levels, pair, np.stack([pair.pullback_tensor(a) for a in arg]), False)
        if name == "cR":
            lhs, rhs = _bprod(lhs, mnu), _bprod(mm, rhs)
        return _rel_err(lhs, rhs)

    return _check(name, laws, order, order, seed, probes, tol,
                  lambda rng, s: _random_entries(rng, probes, m, pair.k, 0.7 / s), residuals, series)


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
    Every step runs on all the points of a group of probes at once.  Order
    r reads X r times and (1-c)^{-1} has a unit diagonal, so t, not c,
    carries the dilation: the points are drawn at scale 0.5, and order r is
    compared divided by sc^r, sc the graded scale of _check.
    """
    pair = mu.pair
    k, d = pair.k, pair.d
    m = order + 1

    def residuals(bstored, c, sc):
        # p0 = (1 - c)^{-1} as an upper triangular element of M_m(B)
        p0 = np.zeros_like(c)
        p0[:, range(m), range(m)] = np.eye(k)
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
        errs = []
        for r in range(order + 1):
            lhs = -(hs[r] @ g0)
            if r == 0:
                lhs = lhs + np.eye(m * d)
            rhs = block_matrix(_path_sum(bstored.levels[r], pair, p0)) if r else np.zeros_like(lhs)
            errs += _rel_err(lhs / sc**r, rhs / sc**r)
        return errs

    return _check("G", (mu,), order, order, seed, probes, tol,
                  lambda rng, s: _random_entries(rng, probes, m, k, 0.5), residuals,
                  lambda: family_of("boolean", mu))


def check_nc_function_axioms(
    mu: MomentFunctional,
    order: int = 3,
    seed: int = 0,
    probes: int = 20,
    tol: float = 1e-10,
) -> dict:
    """Direct sums and similarities for the moment transform.

    Similarities use unipotent upper triangular scalar matrices, which keep
    strictly upper arguments strictly upper; the points are drawn at scale
    0.7 / s (see _check).  Each probe draws its own sizes, so the points of
    a group of probes are evaluated one batch per size.
    """
    pair, k = mu.pair, mu.pair.k

    def draw(rng, s):
        draws = []
        for _ in range(probes):
            m1 = int(rng.integers(1, order + 1))
            m2 = int(rng.integers(1, order + 1))
            b1, b2 = (_random_entries(rng, 1, n, k, 0.7 / s)[0] for n in (m1, m2))
            m = m1 + m2
            b = _random_entries(rng, 1, m, k, 0.7 / s)[0]
            sim = np.eye(m, dtype=complex)
            z = rng.standard_normal((m * (m - 1) // 2, 2))
            sim[np.triu_indices(m, 1)] = z[:, 0] + 1j * z[:, 1]
            draws.append((m1, b1, b2, b, sim, np.linalg.inv(sim)))
        return draws

    def residuals(_, draws, s):
        # the five points of each probe, then M at all of them, one batch per size
        points = []
        for m1, b1, b2, b, sim, sinv in draws:
            direct = np.zeros((len(sim), len(sim), k, k), dtype=complex)
            direct[:m1, :m1] = b1
            direct[m1:, m1:] = b2
            points += [direct, b1, b2, np.einsum("il,ljab,jp->ipab", sim, b, sinv), b]
        values = [None] * len(points)
        for size in {len(p) for p in points}:
            at = [i for i, p in enumerate(points) if len(p) == size]
            for i, value in zip(at, _series(mu.levels, pair, np.stack([points[i] for i in at]), True)):
                values[i] = value
        errs = []
        for n, (m1, b1, b2, b, sim, sinv) in enumerate(draws):
            got, top, bottom, conj, mb = values[5 * n : 5 * n + 5]
            want = np.zeros_like(got)
            want[:m1, :m1] = top
            want[m1:, m1:] = bottom
            errs += _rel_err(got[None], want[None])
            want = np.einsum("il,ljab,jp->ipab", sim, mb, sinv)
            errs += _rel_err(conj[None], want[None])
        return errs

    # direct sums reach size 2 * order, which reads 2 * order - 1 levels; a
    # probe's direct sum, similarity and b may all have that size
    return _check("axioms", (mu,), order, 2 * order - 1, seed, probes, tol, draw, residuals,
                  lambda: mu, points=3)


def amplify_functional(mu: MomentFunctional, n: int, truncation: int) -> MomentFunctional:
    """The functional id_{M_n} tensor mu over the pair (nk, nd).

    Words in M_n(B)<X> are expanded entrywise in M_n(B<X>) and mu applied to
    every entry, which on matrix-unit tuples is a delta chain along the M_n
    legs times the original value tensor.
    """
    pair = mu.pair
    k, d = pair.k, pair.d
    nk, nd = n * k, n * d
    if n < 1:
        raise DimensionMismatch(f"amplification needs n >= 1, got {n}")
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
    original transform at the regrouped (mn) x (mn) point.  The points are
    drawn at scale 0.6 / s (see _check), and those of a group of probes are
    evaluated together."""
    k = mu.pair.k
    m = order + 1

    def residuals(amp, big, s):
        small = big.reshape(-1, m, m, n, k, n, k).transpose(0, 1, 3, 2, 5, 4, 6)
        small = small.reshape(-1, m * n, m * n, k, k)
        got = block_matrix(_series(amp.levels, amp.pair, big, True))
        want = block_matrix(_series(mu.levels, mu.pair, small, True))
        return _rel_err(got, want)

    return _check("tensor", (mu,), order, order, seed, probes, tol,
                  lambda rng, s: _random_entries(rng, probes, m, n * k, 0.6 / s), residuals,
                  lambda: amplify_functional(mu, n, order))
