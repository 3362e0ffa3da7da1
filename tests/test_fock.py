from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from ncid.algebra import AlgebraPair
from ncid.certify import SigmaForm, family_from_levy_hincin
from ncid.convolution import boolean_convolve, cfree_convolve, free_convolve, root
from ncid.cumulants import moments_from_cfree, moments_from_free
from ncid.distribution import generate_realizable, scalar_from_moments
from ncid.errors import (
    DepthExceeded,
    DimensionMismatch,
    GramNotPSD,
    TooLarge,
    TruncationExceeded,
)
from ncid.fock import (
    _basis_size,
    _h_degree,
    boolean_root_model,
    boolean_sum_model,
    build_boolean,
    build_cfree,
    build_free,
    cfree_root_model,
    cfree_sum_model,
    free_root_model,
    fock_basis,
    free_sum_model,
    gram_matrix,
    model_moment,
    operator_matrix,
)

from conftest import (
    cfree_levy_hincin_data,
    free_levy_hincin_data,
    relerr,
)


def rand_words(seed: int, k: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for _ in range(n)]


def key_degree(model, key) -> int:
    if key == ():
        return 0
    if model.kind == "boolean":
        return len(key[1])
    return _h_degree(key)


def centered_word_state(model, tags, coeffs, centers, state="phi"):
    """State of prod_i (X^{t_i} b_i - centers_i) by expanding the product.

    centers_i are constants (same size as the state values); replaced letters
    fold into the trailing coefficient of the previous surviving letter, or
    accumulate as a left prefix when nothing survives yet.
    """
    d = model.pair.d
    n = len(tags)
    total = np.zeros((d, d), dtype=complex)
    for mask in range(1 << n):
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        prefix = np.eye(d, dtype=complex)
        wtags: list = []
        wcoeffs: list = []
        for i in range(n):
            if (mask >> i) & 1:
                if wcoeffs:
                    wcoeffs[-1] = wcoeffs[-1] @ centers[i]
                else:
                    prefix = prefix @ centers[i]
            else:
                wtags.append(tags[i])
                wcoeffs.append(np.array(coeffs[i], dtype=complex))
        if wcoeffs:
            val = prefix @ model_moment(model, wcoeffs, state=state, components=wtags)
        else:
            val = prefix
        total = total + sign * val
    return total


def run_factorization(mus, tags, coeffs):
    """Expected boolean value: the word split at component changes."""
    d = mus[0].pair.d
    out = np.eye(d, dtype=complex)
    i = 0
    while i < len(tags):
        j = i
        while j < len(tags) and tags[j] == tags[i]:
            j += 1
        out = out @ mus[tags[i]].eval_word(coeffs[i:j])
        i = j
    return out


def test_boolean_model_reproduces_moments(semicircle, mu22, mu24):
    for mf, seed in ((semicircle, 1), (mu22, 2), (mu24, 3)):
        model = build_boolean(mf)
        bs = rand_words(seed, mf.pair.k, 6)
        for n in range(1, 7):
            assert relerr(model_moment(model, bs[:n]), mf.eval_word(bs[:n])) < 1e-10


def test_free_model_reproduces_moments(pair22):
    alpha, sigma = free_levy_hincin_data(50, pair22, 6)
    model = build_free(alpha, sigma)
    nu = moments_from_free(family_from_levy_hincin("free", alpha, sigma))
    bs = rand_words(4, 2, 6)
    for n in range(1, 7):
        assert relerr(model_moment(model, bs[:n]), nu.eval_word(bs[:n])) < 1e-10


def scalar_sigma(levels_scalar: dict, values_in: str = "B") -> SigmaForm:
    pair = AlgebraPair.identity(1)
    trunc = max(levels_scalar)
    levels = {
        m: np.full((1,) * (m + 1) + (1, 1), complex(levels_scalar.get(m, 0.0)))
        for m in range(trunc + 1)
    }
    return SigmaForm(pair=pair, values_in=values_in, truncation=trunc, levels=levels)


def test_free_model_semicircle_catalan():
    """alpha=0 and a rank-one sigma give the semicircle: Catalan even moments."""
    sigma = scalar_sigma({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0})
    model = build_free(np.zeros((1, 1)), sigma)
    one = np.eye(1)
    want = {1: 0.0, 2: 1.0, 3: 0.0, 4: 2.0, 5: 0.0, 6: 5.0}
    for n, value in want.items():
        got = model_moment(model, [one] * n)
        assert abs(complex(got[0, 0]) - value) < 1e-12


def test_cfree_model_two_states(pair22):
    a1, s1 = free_levy_hincin_data(50, pair22, 6)
    a2, s2 = cfree_levy_hincin_data(52, pair22, 6)
    model = build_cfree(a1, s1, a2, s2)
    nu = moments_from_free(family_from_levy_hincin("free", a1, s1))
    mu = moments_from_cfree(family_from_levy_hincin("cfree", a2, s2), nu)
    bs = rand_words(5, 2, 4)
    for n in range(1, 5):
        assert relerr(model_moment(model, bs[:n], state="theta"), mu.eval_word(bs[:n])) < 1e-10
        assert relerr(model_moment(model, bs[:n], state="phi"), nu.eval_word(bs[:n])) < 1e-10


def test_cfree_zero_second_data_kills_theta(pair22):
    a1, s1 = free_levy_hincin_data(50, pair22, 4)
    zero_sigma = SigmaForm(
        pair=pair22,
        values_in="D",
        truncation=2,
        levels={m: np.zeros((4,) * (m + 1) + (2, 2), dtype=complex) for m in range(3)},
    )
    model = build_cfree(a1, s1, np.zeros((2, 2)), zero_sigma)
    bs = rand_words(6, 2, 4)
    for n in range(1, 5):
        assert np.abs(model_moment(model, bs[:n], state="theta")).max() < 1e-12


def test_empty_word_is_identity(semicircle):
    model = build_boolean(semicircle)
    assert np.array_equal(model_moment(model, []), np.eye(1, dtype=complex))


def test_depth_exceeded(mu22):
    model = build_boolean(mu22, depth=3)
    bs = rand_words(8, 2, 4)
    with pytest.raises(DepthExceeded):
        model_moment(model, bs)


def test_component_tags_must_match_length(mu22):
    model = build_boolean(mu22)
    with pytest.raises(DimensionMismatch):
        model_moment(model, rand_words(9, 2, 3), components=[0, 0])


@pytest.mark.parametrize("tags", [[2], [-1], ["x"], [0.0]])
def test_component_tags_must_name_a_component(mu22, nu22, tags):
    model = boolean_sum_model([mu22, nu22])
    with pytest.raises(DimensionMismatch):
        model_moment(model, rand_words(9, 2, 1), components=tags)


def test_sum_models_need_a_component():
    for build in (boolean_sum_model, free_sum_model, cfree_sum_model):
        with pytest.raises(DimensionMismatch):
            build([])


def test_boolean_depth_is_bounded_by_the_truncation(mu22, nu22):
    # mu22 has truncation 6: degree-7 words would read moments never stored
    with pytest.raises(TruncationExceeded):
        build_boolean(mu22, depth=7)
    short = generate_realizable(8, mu22.pair, 4, ambient=8)
    with pytest.raises(TruncationExceeded):
        boolean_sum_model([mu22, short], depth=5)
    assert boolean_sum_model([mu22, short]).depth == 4


def test_truncation_exact_at_extra_depth(mu22, pair22):
    bs = rand_words(10, 2, 4)
    m4 = build_boolean(mu22, depth=4)
    m5 = build_boolean(mu22, depth=5)
    alpha, sigma = free_levy_hincin_data(50, pair22, 6)
    f4 = build_free(alpha, sigma, depth=4)
    f5 = build_free(alpha, sigma, depth=5)
    for n in range(1, 5):
        assert np.array_equal(model_moment(m4, bs[:n]), model_moment(m5, bs[:n]))
        assert np.array_equal(model_moment(f4, bs[:n]), model_moment(f5, bs[:n]))


@pytest.mark.parametrize("cap", [2, 3])
def test_adjointness_through_gram(mu22, pair22, cap):
    """create and annihilate are mutually adjoint for the (possibly
    degenerate) pairing; rows whose image leaves the truncation are skipped."""
    alpha, sigma = free_levy_hincin_data(50, pair22, 6)
    models = [build_boolean(mu22), build_free(alpha, sigma)]
    for model in models:
        G, keys = gram_matrix(model, cap)
        A, _ = operator_matrix(model, "annihilate", cap)
        C, _ = operator_matrix(model, "create", cap)
        T, _ = operator_matrix(model, "gauge", cap)
        v = G.shape[0] // len(keys)
        resid = C.conj().T @ G - G @ A
        rows = np.concatenate(
            [
                np.arange(i * v, (i + 1) * v)
                for i, key in enumerate(keys)
                if key_degree(model, key) <= cap - 1
            ]
        )
        scale = max(1.0, float(np.abs(G).max()))
        assert np.abs(resid[rows]).max() / scale < 1e-12
        assert np.abs(T.conj().T @ G - G @ T).max() / scale < 1e-12
        assert np.linalg.eigvalsh(G)[0] > -1e-10 * scale


def test_gram_gate_rejects_bad_moments():
    bad = scalar_from_moments((0.0, -1.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(GramNotPSD):
        build_boolean(bad)
    sigma = scalar_sigma({0: -1.0, 1: 0.0, 2: 0.0})
    with pytest.raises(GramNotPSD):
        build_free(np.zeros((1, 1)), sigma)


def test_components_must_share_pair(mu22, mu24):
    with pytest.raises(DimensionMismatch):
        boolean_sum_model([mu22, mu24])


def test_boolean_factorization(mu22, nu22):
    model = boolean_sum_model([mu22, nu22])
    mus = [mu22, nu22]
    bs = rand_words(11, 2, 3)
    for tags in ([0, 1], [1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]):
        got = model_moment(model, bs[: len(tags)], components=list(tags))
        want = run_factorization(mus, list(tags), bs[: len(tags)])
        assert relerr(got, want) < 1e-12


def test_free_alternating_centered_vanish(pair22):
    datas = [free_levy_hincin_data(s, pair22, 6) for s in (50, 51)]
    model = free_sum_model(datas)
    margs = [
        moments_from_free(family_from_levy_hincin("free", a, s)) for a, s in datas
    ]
    bs = rand_words(12, 2, 4)
    for tags in ([0, 1], [0, 1, 0], [1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]):
        cs = bs[: len(tags)]
        centers = [margs[t].eval_word([c]) for t, c in zip(tags, cs)]
        out = centered_word_state(model, list(tags), cs, centers, state="phi")
        assert np.abs(out).max() < 1e-12


def test_cfree_theta_factorization(pair22):
    frees = [free_levy_hincin_data(s, pair22, 6) for s in (50, 51)]
    cfrees = [cfree_levy_hincin_data(s, pair22, 6) for s in (52, 53)]
    model = cfree_sum_model(
        [(a1, s1, a2, s2) for (a1, s1), (a2, s2) in zip(frees, cfrees)]
    )
    nus = [moments_from_free(family_from_levy_hincin("free", a, s)) for a, s in frees]
    mus = [
        moments_from_cfree(family_from_levy_hincin("cfree", a, s), nu)
        for (a, s), nu in zip(cfrees, nus)
    ]
    bs = rand_words(13, 2, 3)
    for tags in ([0, 1], [1, 0], [0, 1, 0]):
        cs = bs[: len(tags)]
        centers = [nus[t].eval_word([c]) for t, c in zip(tags, cs)]
        lhs = centered_word_state(model, list(tags), cs, centers, state="theta")
        rhs = np.eye(2, dtype=complex)
        for t, c, q in zip(tags, cs, centers):
            rhs = rhs @ (mus[t].eval_word([c]) - q)
        assert relerr(lhs, rhs) < 1e-12


def test_sum_models_match_convolutions(mu22, nu22, pair22):
    bs = rand_words(14, 2, 4)

    bool_sum = boolean_sum_model([mu22, nu22])
    bool_conv = boolean_convolve([mu22, nu22])

    frees = [free_levy_hincin_data(s, pair22, 6) for s in (50, 51)]
    free_sum = free_sum_model(frees)
    free_margs = [
        moments_from_free(family_from_levy_hincin("free", a, s)) for a, s in frees
    ]
    free_conv = free_convolve(free_margs)

    cfrees = [cfree_levy_hincin_data(s, pair22, 6) for s in (52, 53)]
    cf_sum = cfree_sum_model(
        [(a1, s1, a2, s2) for (a1, s1), (a2, s2) in zip(frees, cfrees)]
    )
    cf_mus = [
        moments_from_cfree(family_from_levy_hincin("cfree", a, s), nu)
        for (a, s), nu in zip(cfrees, free_margs)
    ]
    cf_mu, cf_nu = cfree_convolve(list(zip(cf_mus, free_margs)))

    for n in range(1, 5):
        w = bs[:n]
        assert relerr(model_moment(bool_sum, w), bool_conv.eval_word(w)) < 1e-10
        assert relerr(model_moment(free_sum, w), free_conv.eval_word(w)) < 1e-10
        assert relerr(model_moment(cf_sum, w, state="theta"), cf_mu.eval_word(w)) < 1e-10
        assert relerr(model_moment(cf_sum, w, state="phi"), cf_nu.eval_word(w)) < 1e-10


def test_root_models_match_convolution_roots(mu22, pair22):
    bs = rand_words(15, 2, 4)
    n_parts = 3

    bmodel = boolean_root_model(build_boolean(mu22), n_parts)
    broot = root("boolean", mu22, n_parts)

    alpha, sigma = free_levy_hincin_data(50, pair22, 6)
    nu = moments_from_free(family_from_levy_hincin("free", alpha, sigma))
    fmodel = free_root_model(build_free(alpha, sigma), n_parts)
    froot = root("free", nu, n_parts)

    a2, s2 = cfree_levy_hincin_data(52, pair22, 6)
    mu = moments_from_cfree(family_from_levy_hincin("cfree", a2, s2), nu)
    cmodel = cfree_root_model(build_cfree(alpha, sigma, a2, s2), n_parts)
    cmu, cnu = root("cfree", (mu, nu), n_parts)

    for n in range(1, 5):
        w = bs[:n]
        assert relerr(model_moment(bmodel, w), broot.eval_word(w)) < 1e-10
        assert relerr(model_moment(fmodel, w), froot.eval_word(w)) < 1e-10
        assert relerr(model_moment(cmodel, w, state="theta"), cmu.eval_word(w)) < 1e-10
        assert relerr(model_moment(cmodel, w, state="phi"), cnu.eval_word(w)) < 1e-10


def test_oversized_fock_matrices_are_refused_before_allocation(mu22):
    # 5461 boolean keys up to degree 6 at k = 2 tile a 10922^2 complex matrix
    model = build_boolean(mu22)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            gram_matrix(model, 6)
        with pytest.raises(TooLarge):
            operator_matrix(model, "annihilate", 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**23


def test_oversized_free_matrices_are_refused_before_listing(pair22):
    # 149797 free keys up to degree 6 at k = 2: they are counted, not listed
    model = build_free(*free_levy_hincin_data(50, pair22, 6))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            gram_matrix(model, 6)
        with pytest.raises(TooLarge):
            operator_matrix(model, "annihilate", 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("k", [1, 2])
def test_basis_size_counts_the_basis(k):
    pair = AlgebraPair.identity(k)
    mus = [generate_realizable(s, pair, 4, ambient=4) for s in (7, 8)]
    frees = [free_levy_hincin_data(s, pair, 4) for s in (50, 51)]
    cfrees = [f + cfree_levy_hincin_data(s, pair, 4) for f, s in zip(frees, (52, 53))]
    for n in (1, 2):
        for model in (
            boolean_sum_model(mus[:n]),
            free_sum_model(frees[:n]),
            cfree_sum_model(cfrees[:n]),
        ):
            for cap in range(5):
                assert _basis_size(model, cap) == len(fock_basis(model, cap))
