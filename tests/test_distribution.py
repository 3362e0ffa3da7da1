from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncid.algebra import AlgebraPair, adjoint_unit, matrix_units
from ncid.certify import SigmaForm, gram
from ncid.cumulants import CumulantFamily
from ncid.distribution import (
    MAX_GENERATE_TRUNCATION,
    MomentFunctional,
    PolynomialWord,
    contract_units,
    eval_linear,
    generate_realizable,
    level_shape,
    moment,
    scalar_from_moments,
    seeded_rng,
)
from ncid.errors import (
    DimensionMismatch,
    NCIDError,
    NotHermitian,
    SeedExhausted,
    TooLarge,
    TruncationExceeded,
)

from conftest import OVERFLOW_MOMENTS, SEMICIRCLE_MOMENTS, rand_b, relerr


def test_level_shape():
    assert level_shape(2, 4, 3) == (4, 4, 4, 4)
    assert level_shape(1, 1, 1) == (1, 1)


def test_contract_units_matches_expansion():
    rng = np.random.default_rng(0)
    k, d = 2, 2
    t = rng.standard_normal((4, 4, d, d)) + 1j * rng.standard_normal((4, 4, d, d))
    b1, b2 = rand_b(rng, k), rand_b(rng, k)
    out = contract_units(t, [b1, b2])
    expect = np.zeros((d, d), dtype=complex)
    for u in range(4):
        for v in range(4):
            expect += b1.flat[u] * b2.flat[v] * t[u, v]
    assert relerr(out, expect) < 1e-13


def test_scalar_from_moments_round_trip():
    mf = scalar_from_moments(SEMICIRCLE_MOMENTS)
    assert mf.truncation == 6
    one = np.ones((1, 1))
    for n, m in enumerate(SEMICIRCLE_MOMENTS, start=1):
        assert abs(mf.eval_word([one] * n)[0, 0] - m) < 1e-15


@pytest.mark.parametrize("k,d,ambient", [(1, 1, 2), (1, 2, 2), (2, 2, 4), (2, 4, 8)])
def test_generate_realizable_star_compatible(k, d, ambient):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mf = generate_realizable(0, pair, 5, ambient=ambient)
    assert mf.star_residual() < 1e-12
    assert np.allclose(mf.raw(1), mf.raw(1).conj().T)


def star_gap_by_axes(t, k):
    """The *-residual of one level, one unit slot at a time."""
    slots = t.ndim - 2
    perm = np.array([adjoint_unit(u, k) for u in range(k * k)])
    ta = np.conj(np.swapaxes(t, -1, -2))
    ta = np.transpose(ta, tuple(reversed(range(slots))) + (slots, slots + 1))
    for ax in range(slots):
        ta = np.take(ta, perm, axis=ax)
    return float(np.abs(t - ta).max())


@pytest.mark.parametrize("k,d", [(1, 1), (2, 2), (2, 4)])
def test_star_residual_matches_the_slot_by_slot_reference(k, d):
    rng = np.random.default_rng(k + d)
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    law = generate_realizable(1, pair, 5, ambient=2 * d)
    noisy = {n: t + 1e-3j * rng.standard_normal(t.shape) for n, t in law.levels.items()}
    for levels in (law.levels, noisy):
        mf = MomentFunctional(pair, 5, levels)
        want = max(star_gap_by_axes(levels[n], k) for n in levels)
        assert mf.star_residual() == want
    with pytest.raises(NotHermitian):
        MomentFunctional(pair, 5, noisy).check_star()
    law.check_star()


def test_check_star_reads_a_threshold_past_the_float_range_as_infinite():
    # DEFAULT_TOL * s**6 with s = 1e150 overflows; it must neither raise nor warn
    scalar_from_moments(OVERFLOW_MOMENTS).check_star()


def test_check_star_bounds_level_n_by_the_laws_scale_to_the_n(pair22):
    law = generate_realizable(2, pair22, 4, ambient=4)
    noise = dict(law.levels)
    # a level of rounding noise with no *-symmetry passes
    noise[3] = 1e-16 * (1 + 1j) * np.arange(law.levels[3].size).reshape(law.levels[3].shape)
    MomentFunctional(pair22, 4, noise).check_star()
    s = max(np.abs(law.levels[n]).max() ** (1 / n) for n in range(1, 5))
    for nudge, star in ((1e-6, False), (1e-11, True)):  # the bound is 1e-9 s^3
        bent = dict(law.levels)
        bent[3] = law.levels[3].copy()
        bent[3][1, 2, 0, 1] += nudge * s**3
        if star:
            MomentFunctional(pair22, 4, bent).check_star()
        else:
            with pytest.raises(NotHermitian, match="level 3"):
                MomentFunctional(pair22, 4, bent).check_star()


def test_generate_realizable_deterministic(pair22):
    a = generate_realizable(4, pair22, 4, ambient=4)
    b = generate_realizable(4, pair22, 4, ambient=4)
    for n in range(1, 5):
        assert np.array_equal(a.raw(n), b.raw(n))


def test_generate_realizable_gram_psd_sweep():
    """Degree-2 moment Gram certificates across 100 seeds (scalar lane)."""
    pair = AlgebraPair.identity(1)
    for seed in range(100):
        mf = generate_realizable(seed, pair, 4, ambient=3)
        mat, _ = gram(mf, 2, no_free_term=False)
        assert np.linalg.eigvalsh(mat)[0] > -1e-10


def test_generate_realizable_gram_psd_matrix(pair24):
    for seed in range(8):
        mf = generate_realizable(seed, pair24, 4, ambient=8)
        mat, _ = gram(mf, 2, no_free_term=False)
        assert np.linalg.eigvalsh(mat)[0] > -1e-10


def test_seed_exhausted_on_impossible_ambient(pair22):
    with pytest.raises(SeedExhausted):
        generate_realizable(0, pair22, 4, ambient=3)


@pytest.mark.parametrize(
    "truncation, ambient",
    [(13, 4), (30, 4), (10**9, 4), (4, 10**5), (1, 2000)],
)
def test_generate_refuses_oversized_requests(pair22, truncation, ambient):
    # Each request is refused from its sizes alone, before any allocation:
    # truncation 13 at k = d = 2 needs 3.6 GB, the others far more.  Ambient
    # 2000 fits in 0.5 GB, but the SVD of its norm alone is 8e9 operations.
    with pytest.raises(TooLarge):
        generate_realizable(0, pair22, truncation, ambient)


def test_eval_word_is_multilinear(mu22):
    rng = np.random.default_rng(1)
    b1, b2, c = rand_b(rng, 2), rand_b(rng, 2), rand_b(rng, 2)
    s = 0.3 - 1.2j
    lhs = mu22.eval_word([b1 + s * c, b2])
    rhs = mu22.eval_word([b1, b2]) + s * mu22.eval_word([c, b2])
    assert relerr(lhs, rhs) < 1e-12


def test_moment_matches_unit_expansion_oracle(mu22):
    """moment() against a from-scratch bimodular expansion in matrix units."""
    rng = np.random.default_rng(2)
    pair = mu22.pair
    for n in (1, 2, 3):
        coeffs = [rand_b(rng, 2) for _ in range(n + 1)]
        word = PolynomialWord(coefficients=coeffs)
        assert word.degree == n
        got = moment(mu22, word)
        lev = mu22.raw(n)
        expect = np.zeros((2, 2), dtype=complex)
        for idx in np.ndindex(*(4,) * (n - 1)):
            w = complex(np.prod([coeffs[s + 1].flat[u] for s, u in enumerate(idx)]))
            expect = expect + w * lev[idx]
        expect = pair.embed(coeffs[0]) @ expect @ pair.embed(coeffs[n])
        assert relerr(got, expect) < 1e-12


def test_eval_linear_combines_words(mu22):
    rng = np.random.default_rng(3)
    b = rand_b(rng, 2)
    w1 = PolynomialWord(coefficients=[np.eye(2), b])
    w2 = PolynomialWord(coefficients=[np.eye(2), b, np.eye(2)])
    got = eval_linear(mu22, [(2.0, w1), (-1j, w2)])
    expect = 2.0 * moment(mu22, w1) - 1j * moment(mu22, w2)
    assert relerr(got, expect) < 1e-13


def test_eval_word_rejects_beyond_truncation(mu22):
    with pytest.raises(TruncationExceeded):
        mu22.eval_word([np.eye(2)] * (mu22.truncation + 1))


def test_eval_word_rejects_wrong_block_size(mu22):
    with pytest.raises(DimensionMismatch):
        mu22.eval_word([np.eye(3)])


def test_missing_or_misshapen_levels_are_dimension_mismatch(mu22):
    # Moments, cumulant families and sigma forms check their levels alike.
    pair, moments = mu22.pair, {n: mu22.raw(n) for n in (1, 2, 3)}
    cases = (
        ("moment", lambda lv: MomentFunctional(pair, 3, lv), moments),
        ("cumulant", lambda lv: CumulantFamily("free", pair, 3, lv), moments),
        ("sigma", lambda lv: SigmaForm(pair, "D", 2, lv), {m: mu22.raw(m + 2) for m in (0, 1, 2)}),
    )
    for what, make, levels in cases:
        top = max(levels)
        make(levels)
        with pytest.raises(DimensionMismatch, match=f"missing {what} level {top}"):
            make({n: t for n, t in levels.items() if n != top})
        with pytest.raises(DimensionMismatch, match=f"{what} level {top} has shape"):
            make({**levels, top: levels[top][0]})


def test_degree_zero_word_is_embedded_coefficient(mu22):
    b = np.array([[0.5, 1.0], [0.0, -2.0]])
    w = PolynomialWord(coefficients=[b])
    assert np.allclose(moment(mu22, w), mu22.pair.embed(b))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**5))
def test_realizable_moments_growth_envelope(seed):
    """Empirical exponential-growth spot check: |m_n| <= M^(n+1) for some M."""
    pair = AlgebraPair.identity(1)
    mf = generate_realizable(seed, pair, 6, ambient=3)
    base = max(float(np.abs(mf.raw(n)).max()) for n in range(1, 7))
    bound = max(2.0, 2.0 * base)
    for n in range(1, 7):
        assert float(np.abs(mf.raw(n)).max()) <= bound ** (n + 1)


def test_generate_truncation_stops_at_the_einsum_limit():
    # k = 1 levels hold one entry each, so only the einsum subscript count
    # limits the truncation; one step past it is refused before computing.
    pair = AlgebraPair.identity(1)
    top = MAX_GENERATE_TRUNCATION
    mf = generate_realizable(0, pair, top, 2)
    assert mf.levels[top].shape == level_shape(1, 1, top)
    with pytest.raises(TooLarge):
        generate_realizable(0, pair, top + 1, 2)


@pytest.mark.parametrize("seed", [-1, -(2**64), 1.5, "3", None])
def test_seeds_must_be_non_negative_integers(pair22, seed):
    with pytest.raises(NCIDError, match="seed must be a non-negative integer"):
        generate_realizable(seed, pair22, 2, ambient=4)


def test_seeded_rng_takes_numpy_integers():
    assert seeded_rng(np.int64(3)).integers(100) == np.random.default_rng(3).integers(100)
