"""Shared fixtures and numeric helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from ncid.algebra import AlgebraPair, block_matrix, matrix_units
from ncid.certify import SigmaForm, family_from_levy_hincin
from ncid.cumulants import moments_from_cfree, moments_from_free
from ncid.distribution import (
    MomentFunctional,
    generate_realizable,
    level_shape,
    scalar_from_moments,
)

# frozen scalar references (moments m_1..m_6 of the standard laws)
SEMICIRCLE_MOMENTS = (0.0, 1.0, 0.0, 2.0, 0.0, 5.0)
BERNOULLI_MOMENTS = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
FREE_POISSON_MOMENTS = (1.0, 2.0, 5.0, 14.0, 42.0, 132.0)
# a law whose scale s = 1e150 puts s**6, and its products of moments, past
# the float range
OVERFLOW_MOMENTS = (0.0, 1e300, 0.0, 2e300, 0.0, 5e300)


def relerr(a, b) -> float:
    """Max-abs relative deviation, with the scale floored at 1."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def rand_b(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def zero_law(pair: AlgebraPair, truncation: int) -> MomentFunctional:
    """The zero law, each level a zero-stride view of one zero: it holds no
    tensor memory whatever its size."""
    zero = np.zeros((), dtype=complex)
    return MomentFunctional(pair, truncation, {
        n: np.broadcast_to(zero, level_shape(pair.k, pair.d, n)) for n in range(1, truncation + 1)
    })


def copied_assembly(build, *modules):
    """build() with every Gram assembled by copies, as before Grams were built
    in place: the blocks in their own (n, n, v, v) array, tiled into a new
    matrix by block_matrix, and 0.5 * (mat + mat^*) as a third."""
    made = []

    def blocks_alone(nf, v):
        made.append(np.zeros((nf, nf, v, v), dtype=complex))
        return None, made[-1]

    def copied_hermitian(_):
        mat = block_matrix(made.pop())
        return 0.5 * (mat + mat.conj().T)

    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "gram_arrays", blocks_alone)
            mp.setattr(module, "hermitian_gram", copied_hermitian)
        return build()


def twisted(moments, h):
    """The M_k-valued law of h (x) s for a scalar law s with these moments:
    mu(X b1 X ... X) = m_n h b1 h ... h."""
    units = matrix_units(h.shape[0])
    chain, levels = h, {}
    for n, m in enumerate(moments, start=1):
        levels[n] = m * chain
        chain = np.einsum("...ab,ubc,cd->...uad", chain, units, h)
    pair = AlgebraPair.identity(h.shape[0])
    return MomentFunctional(pair=pair, truncation=len(moments), levels=levels)


def dilate(mf, lam):
    """The law of lam X: level n scales by lam**n."""
    levels = {n: lam**n * mf.raw(n) for n in range(1, mf.truncation + 1)}
    return MomentFunctional(pair=mf.pair, truncation=mf.truncation, levels=levels)


def conjugate(mf, u):
    """The law of u X u^* for a unitary u in B.

    Its moment of X b1 X ... X is u mu(X (u^* b1 u) X ... X) u^*, so every
    unit slot is mapped through b -> u^* b u and the value is conjugated.
    """
    units = matrix_units(mf.pair.k)
    # slot map: u^* e_s u = sum_t c[s, t] e_t
    c = np.stack([(u.conj().T @ e @ u).reshape(-1) for e in units])
    eu = mf.pair.embed(u)
    levels = {}
    for n in range(1, mf.truncation + 1):
        lev = mf.raw(n)
        for axis in range(n - 1):
            lev = np.moveaxis(np.tensordot(c, lev, axes=([1], [axis])), 0, axis)
        levels[n] = eu @ lev @ eu.conj().T
    return MomentFunctional(pair=mf.pair, truncation=mf.truncation, levels=levels)


def bvalued_realizable(seed: int, pair: AlgebraPair, trunc: int = 6) -> MomentFunctional:
    """A realizable functional whose moments all lie in the embedded copy of B.

    Built by generating over the identity pair on B and embedding every level,
    which keeps positivity (compose the representation with the embedding).
    """
    base = generate_realizable(seed, AlgebraPair.identity(pair.k), trunc, ambient=2 * pair.k)
    levels = {n: pair.embed_tensor(base.raw(n)) for n in range(1, trunc + 1)}
    return MomentFunctional(pair=pair, truncation=trunc, levels=levels)


def free_levy_hincin_data(seed: int, pair: AlgebraPair, trunc: int = 6):
    """Realizable transform data (alpha, sigma) for a freely divisible law.

    Both pieces come from a functional over the identity pair on B, so sigma
    satisfies the positivity condition by construction; sigma is then re-paired
    onto the requested inclusion (its B-valued levels only depend on k).
    """
    base = generate_realizable(seed, AlgebraPair.identity(pair.k), trunc, ambient=2 * pair.k)
    alpha = hermitize(base.raw(1))
    sigma_id = SigmaForm.from_bordered(base, values_in="B")
    sigma = SigmaForm(
        pair=pair, values_in="B", truncation=sigma_id.truncation, levels=sigma_id.levels
    )
    return alpha, sigma


def divisible_free(seed: int, pair: AlgebraPair, trunc: int = 6) -> MomentFunctional:
    """A freely divisible functional synthesized from realizable transform data.

    The divisibility certificate passes by construction and the moments stay
    B-valued, as the free theory requires.
    """
    alpha, sigma = free_levy_hincin_data(seed, pair, trunc)
    return moments_from_free(family_from_levy_hincin("free", alpha, sigma))


def cfree_levy_hincin_data(seed: int, pair: AlgebraPair, trunc: int = 6):
    """D-valued transform data (alpha, sigma) for the c-free side."""
    mf = generate_realizable(seed, pair, trunc, ambient=2 * pair.d)
    alpha = hermitize(mf.raw(1))
    sigma = SigmaForm.from_bordered(mf, values_in="D")
    return alpha, sigma


def divisible_cfree_pair(seed: int, pair: AlgebraPair, trunc: int = 6):
    """A c-freely divisible (mu, nu) over the pair, built from transform data."""
    alpha1, sigma1 = free_levy_hincin_data(seed, pair, trunc)
    alpha2, sigma2 = cfree_levy_hincin_data(seed + 1, pair, trunc)
    nu = moments_from_free(family_from_levy_hincin("free", alpha1, sigma1))
    mu = moments_from_cfree(family_from_levy_hincin("cfree", alpha2, sigma2), nu)
    return mu, nu


@pytest.fixture(scope="session")
def semicircle() -> MomentFunctional:
    return scalar_from_moments(SEMICIRCLE_MOMENTS)


@pytest.fixture(scope="session")
def bernoulli() -> MomentFunctional:
    return scalar_from_moments(BERNOULLI_MOMENTS)


@pytest.fixture(scope="session")
def pair22() -> AlgebraPair:
    return AlgebraPair.identity(2)


@pytest.fixture(scope="session")
def pair24() -> AlgebraPair:
    return AlgebraPair.block_diagonal(2, 4)


@pytest.fixture(scope="session")
def mu22(pair22) -> MomentFunctional:
    return generate_realizable(7, pair22, 6, ambient=8)


@pytest.fixture(scope="session")
def nu22(pair22) -> MomentFunctional:
    return generate_realizable(8, pair22, 6, ambient=8)


@pytest.fixture(scope="session")
def mu228(pair22) -> MomentFunctional:
    """A realizable law at (k, d, N) = (2, 2, 8), as `gen --k 2 --d 2 --trunc 8`
    makes: 4.3 MB of JSON, and a 7.6 MB Gram at degree 4 with free term."""
    return generate_realizable(0, pair22, 8, ambient=4)


@pytest.fixture(scope="session")
def mu24(pair24) -> MomentFunctional:
    return generate_realizable(9, pair24, 6, ambient=8)


# Per-probe references for the batched nilpotent-point code: the kernel, the
# point draw and the identity checks as they ran one point at a time, each
# check drawing and grading at the scale s of its laws.


def random_point_by_blocks(rng, m: int, k: int, scale: float) -> np.ndarray:
    """Entries of a random strictly upper point, drawn block by block."""
    entries = np.zeros((m, m, k, k), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            entries[i, j] = scale * (
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            )
    return entries


def path_sum_by_point(level, pair, coeff):
    """id_m tensor mu applied to (X coeff)^p at one (m, m, k, k) point."""
    m = coeff.shape[0]
    steps = coeff.reshape(m, m, -1).transpose(1, 0, 2)
    embedded = pair.embed_tensor(coeff)
    out = np.empty((m, m, pair.d, pair.d), dtype=complex)
    for i in range(m):
        t, rows = level[None], slice(i, i + 1)
        for _ in range(level.ndim - 2):
            step = steps[:, rows].reshape(m, -1)
            t = (step @ t.reshape(step.shape[1], -1)).reshape((m,) + t.shape[2:])
            rows = slice(None)
        out[i] = np.einsum("sab,sjbc->jac", t, embedded[rows])
    return out


def series_by_point(levels, pair, entries, include_identity):
    """eval_series at one point, summed with path_sum_by_point."""
    from ncid.ncfunctions import _support_chain

    m, d = entries.shape[0], pair.d
    out = np.zeros((m, m, d, d), dtype=complex)
    if include_identity:
        for i in range(m):
            out[i, i] = np.eye(d)
    for p in range(1, _support_chain(entries, max(levels)) + 1):
        out += path_sum_by_point(levels[p], pair, entries)
    return out


def _bprod(a, b):
    return np.einsum("ilab,ljbc->ijac", a, b)


def subordinate_by_full_series(nu, entries):
    """b with b M_nu(b) = c, and M_nu(b) - 1, by longest - 1 fixed-point
    steps that each sum every level the point reads."""
    from ncid.ncfunctions import _bprod, _one_minus_inverse, _support_chain, eval_series

    longest = _support_chain(entries, nu.truncation)
    inner = AlgebraPair.identity(nu.pair.k)
    levels = {p: nu.pair.pullback_tensor(nu.levels[p]) for p in range(1, longest + 1)}
    b = entries
    for _ in range(longest - 1):
        b = entries - _bprod(entries, _one_minus_inverse(eval_series(levels, inner, b, True)))
    return b, eval_series(levels, inner, b, False)


def _point_err(lhs, rhs) -> float:
    scale = max(1.0, float(np.abs(lhs).max(initial=0.0)), float(np.abs(rhs).max(initial=0.0)))
    return float(np.abs(lhs - rhs).max(initial=0.0)) / scale


def graded_scale_by_norm(*laws) -> float:
    """The largest scale s of the laws at which the checks draw: the square
    root of the Frobenius norm of level 2, or 1 where that is 0."""
    return max(float(np.sqrt(np.linalg.norm(law.raw(2)))) or 1.0 for law in laws)


def _report(identity, order, seed, probes, worst, tol):
    return {"identity": identity, "order": order, "seed": seed, "probes": probes,
            "residual": worst, "pass": worst <= tol}


def check_identity_by_point(name, mu, nu=None, order=4, seed=0, probes=50, tol=1e-10):
    """check_identity, one probe at a time, at points of scale 0.7 / s."""
    from ncid.cumulants import family_of
    from ncid.distribution import _truncated, seeded_rng

    pair = mu.pair
    s = graded_scale_by_norm(mu, nu) if name == "cR" else graded_scale_by_norm(mu)
    data = _truncated(mu, order)
    if name == "cR":
        data = data, _truncated(nu, order)
    series = family_of({"B": "boolean", "R": "free", "cR": "cfree"}[name], data).levels
    rng = seeded_rng(seed)
    m = order + 1
    worst = 0.0
    for _ in range(probes):
        point = random_point_by_blocks(rng, m, pair.k, 0.7 / s)
        mm = series_by_point(mu.levels, pair, point, True)
        lhs = mm.copy()
        for i in range(m):
            lhs[i, i] = lhs[i, i] - np.eye(pair.d)
        if name == "B":
            rhs = _bprod(series_by_point(series, pair, point, False), mm)
        else:
            mnu = mm if name == "R" else series_by_point(nu.levels, pair, point, True)
            arg = _bprod(pair.embed_tensor(point), mnu)
            rhs = series_by_point(series, pair, pair.pullback_tensor(arg), False)
            if name == "cR":
                lhs, rhs = _bprod(lhs, mnu), _bprod(mm, rhs)
        worst = max(worst, _point_err(lhs, rhs))
    return _report(name, order, seed, probes, worst, tol)


def check_cauchy_relation_by_point(mu, order=4, seed=0, probes=10, tol=1e-9):
    """check_cauchy_relation, one probe at a time, Laurent order r divided
    by s**r."""
    from ncid.cumulants import family_of
    from ncid.distribution import seeded_rng

    pair = mu.pair
    s = graded_scale_by_norm(mu)
    k, d = pair.k, pair.d
    rng = seeded_rng(seed)
    m = order + 1
    bstored = family_of("boolean", mu).levels
    worst = 0.0
    for _ in range(probes):
        c = random_point_by_blocks(rng, m, k, 0.5)
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
        for q in range(1, order + 1):
            gs.append(block_matrix(_bprod(ep0, path_sum_by_point(mu.levels[q], pair, p0))))
        h0 = np.linalg.inv(g0)
        hs = [h0]
        for r in range(1, order + 1):
            acc = np.zeros_like(h0)
            for q in range(1, r + 1):
                acc = acc + hs[r - q] @ gs[q]
            hs.append(-(acc @ h0))
        for r in range(order + 1):
            lhs = -(hs[r] @ g0)
            if r == 0:
                lhs = lhs + np.eye(m * d)
            rhs = block_matrix(path_sum_by_point(bstored[r], pair, p0)) if r else np.zeros_like(lhs)
            worst = max(worst, _point_err(lhs / s**r, rhs / s**r))
    return _report("G", order, seed, probes, worst, tol)


def check_nc_function_axioms_by_point(mu, order=3, seed=0, probes=20, tol=1e-10):
    """check_nc_function_axioms, one probe at a time, at points of scale 0.7 / s."""
    from ncid.distribution import seeded_rng

    pair = mu.pair
    s = graded_scale_by_norm(mu)
    k, d = pair.k, pair.d
    rng = seeded_rng(seed)
    worst = 0.0
    for _ in range(probes):
        m1 = int(rng.integers(1, order + 1))
        m2 = int(rng.integers(1, order + 1))
        b1 = random_point_by_blocks(rng, m1, k, 0.7 / s)
        b2 = random_point_by_blocks(rng, m2, k, 0.7 / s)
        m = m1 + m2
        direct = np.zeros((m, m, k, k), dtype=complex)
        direct[:m1, :m1] = b1
        direct[m1:, m1:] = b2
        got = series_by_point(mu.levels, pair, direct, True)
        want = np.zeros((m, m, d, d), dtype=complex)
        want[:m1, :m1] = series_by_point(mu.levels, pair, b1, True)
        want[m1:, m1:] = series_by_point(mu.levels, pair, b2, True)
        worst = max(worst, _point_err(got, want))

        b = random_point_by_blocks(rng, m, k, 0.7 / s)
        sim = np.eye(m, dtype=complex)
        for i in range(m):
            for j in range(i + 1, m):
                sim[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        sinv = np.linalg.inv(sim)
        conj = np.einsum("il,ljab,jp->ipab", sim, b, sinv)
        got = series_by_point(mu.levels, pair, conj, True)
        want = np.einsum("il,ljab,jp->ipab", sim, series_by_point(mu.levels, pair, b, True), sinv)
        worst = max(worst, _point_err(got, want))
    return _report("axioms", order, seed, probes, worst, tol)


def tensor_compatibility_by_point(mu, n, order=3, seed=0, probes=10, tol=1e-10):
    """tensor_compatibility, one probe at a time, at points of scale 0.6 / s."""
    from ncid.distribution import seeded_rng
    from ncid.ncfunctions import amplify_functional

    k = mu.pair.k
    s = graded_scale_by_norm(mu)
    amp = amplify_functional(mu, n, order)
    rng = seeded_rng(seed)
    m = order + 1
    worst = 0.0
    for _ in range(probes):
        big = random_point_by_blocks(rng, m, n * k, 0.6 / s)
        small = big.reshape(m, m, n, k, n, k).transpose(0, 2, 1, 4, 3, 5)
        small = small.reshape(m * n, m * n, k, k)
        got = block_matrix(series_by_point(amp.levels, amp.pair, big, True))
        want = block_matrix(series_by_point(mu.levels, mu.pair, small, True))
        worst = max(worst, _point_err(got, want))
    return _report("tensor", order, seed, probes, worst, tol)
