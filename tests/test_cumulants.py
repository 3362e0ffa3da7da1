from __future__ import annotations

import time

import numpy as np
import pytest

from ncid.algebra import AlgebraPair
from ncid import cumulants
from ncid.cumulants import (
    CumulantFamily,
    boolean_from_moments,
    cfree_from_moments,
    family_of,
    free_from_moments,
    functional_of,
    moments_from_boolean,
    moments_from_cfree,
    moments_from_free,
    moments_of,
)
from ncid.distribution import MomentFunctional, generate_realizable, scalar_from_moments
from ncid.errors import DimensionMismatch, NCIDError, PairMismatch, TooLarge, TruncationExceeded
from ncid.nclattice import enumerate_nc, full_partition, moebius, nc_weights

from conftest import (
    bvalued_realizable,
    BERNOULLI_MOMENTS,
    FREE_POISSON_MOMENTS,
    SEMICIRCLE_MOMENTS,
    divisible_free,
    rand_b,
    relerr,
    zero_law,
)

# degree 1..6 cumulants of the frozen scalar laws
SEMICIRCLE_FREE = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
SEMICIRCLE_BOOL = (0.0, 1.0, 0.0, 1.0, 0.0, 2.0)
BERNOULLI_FREE = (0.0, 1.0, 0.0, -1.0, 0.0, 2.0)
BERNOULLI_BOOL = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def scalar_levels(fam) -> tuple:
    return tuple(float(fam.levels[n].real.flat[0]) for n in range(1, 7))


def test_semicircle_free_cumulants(semicircle):
    fam = free_from_moments(semicircle)
    assert np.allclose(scalar_levels(fam), SEMICIRCLE_FREE, atol=1e-13)


def test_semicircle_boolean_cumulants(semicircle):
    fam = boolean_from_moments(semicircle)
    assert np.allclose(scalar_levels(fam), SEMICIRCLE_BOOL, atol=1e-13)


def test_bernoulli_free_cumulants(bernoulli):
    fam = free_from_moments(bernoulli)
    assert np.allclose(scalar_levels(fam), BERNOULLI_FREE, atol=1e-13)


def test_bernoulli_boolean_cumulants(bernoulli):
    fam = boolean_from_moments(bernoulli)
    assert np.allclose(scalar_levels(fam), BERNOULLI_BOOL, atol=1e-13)


def test_free_poisson_moments_from_unit_cumulants():
    """kappa_n = 1 for all n gives the Catalan-transform moment sequence."""
    pair = AlgebraPair.identity(1)
    from ncid.cumulants import CumulantFamily

    fam = CumulantFamily(
        kind="free",
        pair=pair,
        truncation=6,
        levels={n: np.ones((1,) * (n - 1) + (1, 1)) for n in range(1, 7)},
    )
    mf = moments_from_free(fam)
    got = tuple(float(mf.raw(n).real.flat[0]) for n in range(1, 7))
    assert np.allclose(got, FREE_POISSON_MOMENTS, atol=1e-12)


def test_point_mass_boolean_cumulants():
    """delta_a has eta-series a z: B_1 = a, higher boolean cumulants vanish."""
    a = 1.7
    mf = scalar_from_moments(tuple(a**n for n in range(1, 7)))
    fam = boolean_from_moments(mf)
    vals = scalar_levels(fam)
    assert abs(vals[0] - a) < 1e-12
    assert np.allclose(vals[1:], 0.0, atol=1e-12)


def test_cfree_scalar_literature_values():
    """ck2 = m2 - m1^2 and ck3 = m3 - 2 m1 m2 + m1^3 - n1 m2 + n1 m1^2."""
    mu = scalar_from_moments(FREE_POISSON_MOMENTS)
    nu = scalar_from_moments((1.0,) * 6)
    fam = cfree_from_moments(mu, nu)
    vals = scalar_levels(fam)
    m1, m2, m3 = 1.0, 2.0, 5.0
    n1 = 1.0
    assert abs(vals[0] - m1) < 1e-12
    assert abs(vals[1] - (m2 - m1**2)) < 1e-12
    ck3 = m3 - 2 * m1 * m2 + m1**3 - n1 * m2 + n1 * m1**2
    assert abs(vals[2] - ck3) < 1e-12


@pytest.mark.parametrize("k,d,ambient", [(1, 1, 2), (2, 2, 4), (2, 4, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boolean_round_trip(k, d, ambient, seed):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mf = generate_realizable(seed, pair, 6, ambient=ambient)
    back = moments_from_boolean(boolean_from_moments(mf))
    for n in range(1, 7):
        assert relerr(back.raw(n), mf.raw(n)) < 1e-12


def _einsum_cross_terms(n, b_levels, m_levels, eunits, k, d):
    """The boolean split sum with one einsum per split, as the recursion
    computed it before the matmul kernel: the reference for it."""
    k2 = k * k
    total = np.zeros((k2,) * (n - 1) + (d, d), dtype=np.complex128)
    for j in range(1, n):
        be = np.einsum("...ab,ubc->...uac", b_levels[j], eunits).reshape(k2**j, d, d)
        rest = m_levels[n - j].reshape(k2 ** (n - 1 - j), d, d)
        term = np.einsum("iab,jbc->ijac", be, rest)
        total = total + term.reshape((k2,) * (n - 1) + (d, d))
    return total


@pytest.mark.parametrize("k,d,trunc", [(2, 2, 8), (2, 4, 5), (1, 1, 12)])
def test_boolean_recursions_match_the_einsum_split_sum(k, d, trunc):
    pair = AlgebraPair.identity(1) if k == 1 else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(21, pair, trunc, ambient=2 * d)
    eunits = pair.embedded_units
    want_b = {1: mu.raw(1)}
    for n in range(2, trunc + 1):
        want_b[n] = mu.raw(n) - _einsum_cross_terms(n, want_b, mu.levels, eunits, k, d)
    fam = boolean_from_moments(mu)
    want_m = {1: fam.levels[1]}
    for n in range(2, trunc + 1):
        want_m[n] = fam.levels[n] + _einsum_cross_terms(n, fam.levels, want_m, eunits, k, d)
    back = moments_from_boolean(fam)
    for n in range(1, trunc + 1):
        scale = np.abs(mu.raw(n)).max()
        assert np.abs(fam.levels[n] - want_b[n]).max() <= 1e-14 * scale
        assert np.abs(back.raw(n) - want_m[n]).max() <= 1e-14 * scale


@pytest.mark.parametrize("k,d,ambient", [(1, 1, 2), (2, 2, 4), (2, 4, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_free_round_trip(k, d, ambient, seed):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    # free cumulants live on B-valued functionals
    mf = bvalued_realizable(seed, pair, 6)
    back = moments_from_free(free_from_moments(mf))
    for n in range(1, 7):
        assert relerr(back.raw(n), mf.raw(n)) < 1e-12


@pytest.mark.parametrize("k,d,ambient", [(1, 1, 2), (2, 2, 4), (2, 4, 8)])
@pytest.mark.parametrize("seed", [0, 1])
def test_cfree_round_trip(k, d, ambient, seed):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(seed, pair, 6, ambient=ambient)
    nu = bvalued_realizable(seed + 50, pair, 6)
    back = moments_from_cfree(cfree_from_moments(mu, nu), nu)
    for n in range(1, 7):
        assert relerr(back.raw(n), mu.raw(n)) < 1e-12


def test_free_from_moments_rejects_d_valued(pair24):
    from ncid.errors import NotBValued

    nu = generate_realizable(2, pair24, 6, ambient=8)
    with pytest.raises(NotBValued):
        free_from_moments(nu)
    # a family whose levels leave the embedded copy of B has no free moments
    fam = CumulantFamily(kind="free", pair=pair24, truncation=6, levels=nu.levels)
    with pytest.raises(NotBValued):
        moments_from_free(fam)


def test_star_compatibility_of_families(mu22, nu22):
    for fam in (
        boolean_from_moments(mu22),
        free_from_moments(nu22),
        cfree_from_moments(mu22, nu22),
    ):
        phi = functional_of(fam.kind, fam)
        assert phi.star_residual() < 1e-10


def test_free_values_stay_in_embedded_b(pair24):
    """For a B-valued functional the free cumulants live inside embed(B)."""
    nu = divisible_free(31, pair24)
    fam = free_from_moments(nu)
    pair = nu.pair
    for n in range(1, 7):
        lev = fam.levels[n]
        flat = lev.reshape(-1, pair.d, pair.d)
        for block in flat:
            back = pair.embed(pair.pullback(block, tol=1e-8))
            assert relerr(back, block) < 1e-10


def test_free_matches_moebius_inversion(semicircle, pair22):
    """Recursion-based free cumulants vs the lattice Moebius computation."""
    nu22 = generate_realizable(24, pair22, 5, ambient=4)
    rng = np.random.default_rng(4)
    for nu in (semicircle, nu22):
        k = nu.pair.k
        rho = functional_of("free", free_from_moments(nu))
        for n in range(1, 6):
            b = rand_b(rng, k)
            parts = enumerate_nc(n)
            top = full_partition(n)
            via_moebius = sum(
                nc_weights(s, "f", nu, nu, b) * moebius(s, top) for s in parts
            )
            direct = rho.eval_word([b] * n)
            assert relerr(direct, via_moebius) < 1e-12


def test_cfree_matches_weight_machinery(pair22):
    """Recursion-based c-free cumulants vs the F = sum G moment identity."""
    mu = generate_realizable(25, pair22, 5, ambient=4)
    nu = generate_realizable(26, pair22, 5, ambient=4)
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        b = rand_b(rng, 2)
        parts = enumerate_nc(n)
        lhs = nc_weights(full_partition(n), "F", mu, nu, b)
        rhs = sum(nc_weights(s, "G", mu, nu, b) for s in parts)
        assert relerr(lhs, rhs) < 1e-12


@pytest.mark.parametrize("law", ["k2d2", "k2d4", "k1d1n12"])
def test_cfree_equals_free_when_laws_coincide(law, nu22, pair24):
    """With mu = nu the c-free family collapses to the free one, embedded."""
    nu = {
        "k2d2": lambda: nu22,
        "k2d4": lambda: bvalued_realizable(27, pair24, 6),
        "k1d1n12": lambda: generate_realizable(28, AlgebraPair.identity(1), 12, ambient=2),
    }[law]()
    cf = cfree_from_moments(nu, nu)
    fr = free_from_moments(nu)
    for n in range(1, nu.truncation + 1):
        assert relerr(cf.levels[n], fr.levels[n]) < 1e-11


@pytest.mark.parametrize("k, d, trunc", [(1, 1, 8), (2, 2, 5), (2, 4, 4)])
def test_cfree_against_delta_0_is_boolean(k, d, trunc):
    """Boolean independence is c-freeness against delta_0 (the zero law):
    the c-free cumulants of (mu, delta_0) are mu's boolean cumulants, and
    moments_from_cfree against delta_0 gives mu back, to 1e-12 s**n at level
    n with s the largest ||m_n||**(1/n), as in test_invariance."""
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(29, pair, trunc, ambient=2 * d)
    delta0 = zero_law(pair, trunc)
    s = max(np.linalg.norm(mu.levels[n]) ** (1 / n) for n in mu.levels)
    fam = cfree_from_moments(mu, delta0)
    want = boolean_from_moments(mu).levels
    back = moments_from_cfree(fam, delta0).levels
    for n in range(1, trunc + 1):
        assert np.abs(fam.levels[n] - want[n]).max() <= 1e-12 * s**n
        assert np.abs(back[n] - mu.levels[n]).max() <= 1e-12 * s**n


def test_functional_of_checks_kind(nu22):
    fam = free_from_moments(nu22)
    with pytest.raises(NCIDError):
        functional_of("boolean", fam)


def test_moments_of_a_cfree_family_needs_nu(mu22, nu22):
    fam = cfree_from_moments(mu22, nu22)
    with pytest.raises(PairMismatch, match="need nu"):
        moments_of(fam)
    assert np.array_equal(moments_of(fam, nu22).raw(3), moments_from_cfree(fam, nu22).raw(3))


def test_scaled_family(nu22):
    fam = free_from_moments(nu22)
    half = fam.scaled(0.5)
    for n in range(1, 7):
        assert np.allclose(half.levels[n], 0.5 * fam.levels[n])


def test_round_trips_past_thirteen_levels():
    # Level 14 needs 25 einsum slot letters, more than one alphabet holds.
    pair = AlgebraPair.identity(1)
    mu = generate_realizable(74, pair, 14, ambient=2)
    nu = generate_realizable(75, pair, 14, ambient=2)
    free_back = moments_from_free(free_from_moments(mu))
    cfree_back = moments_from_cfree(cfree_from_moments(mu, nu), nu)
    for n in range(1, 15):
        assert relerr(free_back.raw(n), mu.raw(n)) < 1e-12
        assert relerr(cfree_back.raw(n), mu.raw(n)) < 1e-12


def test_recursions_refuse_truncations_beyond_the_letters():
    law = scalar_from_moments((0.0, 1.0) * 14)  # truncation 28
    with pytest.raises(TooLarge):
        free_from_moments(law)
    with pytest.raises(TooLarge):
        cfree_from_moments(law, law)
    fam = CumulantFamily(kind="free", pair=law.pair, truncation=28, levels=law.levels)
    with pytest.raises(TooLarge):
        moments_from_free(fam)


@pytest.mark.parametrize("k, trunc", [(1, 24), (2, 9)])
def test_recursions_past_the_work_budget_are_refused_at_once(k, trunc):
    # (1, 1, 24) would run for hours and (2, 2, 9) for days; the zero-stride
    # law holds no tensor memory
    law = zero_law(AlgebraPair.identity(k), trunc)
    fams = {kind: CumulantFamily(kind=kind, pair=law.pair, truncation=trunc, levels=law.levels)
            for kind in ("free", "cfree")}
    runs = (
        lambda: free_from_moments(law),
        lambda: moments_from_free(fams["free"]),
        lambda: cfree_from_moments(law, law),
        lambda: moments_from_cfree(fams["cfree"], law),
    )
    start = time.perf_counter()
    for run in runs:
        with pytest.raises(TooLarge, match="work budget"):
            run()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k, d, trunc", [
    (1, 1, 14),  # test_free_cumulants_at_truncation_fourteen
    (1, 1, 18),  # about 18 s of free_from_moments
    (1, 1, 12),  # perfbench points-k1-n12
    (2, 2, 6),  # selftest, perfbench lib-k2-n6, divisibility_sweep
    (2, 2, 7),  # about 5 s of free_from_moments
    (2, 4, 6),  # c-free over block_diagonal(2, 4) in the tests
])
def test_recursion_sizes_in_use_fit_the_work_budget(k, d, trunc):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    cumulants._check_recursion_work(pair, trunc)


def test_evaluate_above_truncation_is_typed(mu22):
    fam = boolean_from_moments(mu22)
    eye = np.eye(2)
    assert fam.evaluate([eye] * 6).shape == (2, 2)
    with pytest.raises(TruncationExceeded):
        fam.evaluate([eye] * 7)


@pytest.mark.parametrize("kind", ["boolean", "free", "cfree"])
@pytest.mark.parametrize("truncation", [0, -1])
def test_truncation_below_one_is_refused_both_ways(kind, truncation):
    pair = AlgebraPair.identity(1)
    nu = scalar_from_moments((0.0, 1.0))
    with pytest.raises(DimensionMismatch, match="truncation must be >= 1"):
        law = MomentFunctional(pair, truncation, {})
        family_of(kind, (law, law) if kind == "cfree" else law)
    with pytest.raises(DimensionMismatch, match="truncation must be >= 1"):
        moments_of(CumulantFamily(kind, pair, truncation, {}), nu)
