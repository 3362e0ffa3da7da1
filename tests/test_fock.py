from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from ncid.algebra import AlgebraPair
from ncid import fock
from ncid.algebra import block_matrix
from ncid.certify import (
    SigmaForm,
    certify,
    certify_levy_hincin,
    family_from_levy_hincin,
    levy_hincin_extract,
    word_pairing,
)
from ncid.convolution import boolean_convolve, cfree_convolve, free_convolve, root
from ncid.cumulants import moments_from_cfree, moments_from_free
from ncid.distribution import generate_realizable, scalar_from_moments
from ncid.errors import (
    CertificateFailed,
    DepthExceeded,
    DimensionMismatch,
    GramNotPSD,
    TooLarge,
    TruncationExceeded,
)
from ncid.fock import (
    _OPS,
    _layout,
    apply_op,
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
    SEMICIRCLE_MOMENTS,
    bvalued_realizable,
    cfree_levy_hincin_data,
    copied_assembly,
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
    return sum(len(w) for _, w in key)


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


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("pair", [AlgebraPair.identity(2), AlgebraPair.block_diagonal(2, 4)],
                         ids=["identity22", "block24"])
def test_boolean_model_is_the_cfree_k_leg_against_delta_0(pair, ncomp):
    """Boolean independence is c-freeness against delta_0: a c-free model
    with a zero free side and the boolean Levy-Hincin data of each law as
    its c-free side has the boolean model's moments as its theta moments."""
    k = pair.k
    mus = [generate_realizable(seed, pair, 5, ambient=8) for seed in (11, 12)[:ncomp]]
    zero = SigmaForm(pair, "B", 3, {m: np.zeros((k * k,) * (m + 1) + (k, k)) for m in range(4)})
    cmodel = cfree_sum_model([(np.zeros((k, k)), zero, *levy_hincin_extract("boolean", mu))
                              for mu in mus])
    bmodel = boolean_sum_model(mus)
    assert cmodel.depth == bmodel.depth == 5
    bs = rand_words(6, k, 5)
    for n in range(6):
        for comps in (None, [i % ncomp for i in range(n)]):
            got = model_moment(cmodel, bs[:n], state="theta", components=comps)
            assert relerr(got, model_moment(bmodel, bs[:n], components=comps)) <= 1e-14


def conjugated_pair(k: int, seed: int) -> AlgebraPair:
    """B = D = M_k with the embedding b -> q b q^* for a random unitary q."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return AlgebraPair(k=k, d=k, embed_matrix=np.kron(q, q.conj()))


# The c-free D-vacuum reads B-values through the embedding.  Only the
# conjugated pair tells an embedded value from a bare one: on the identity
# pair they are equal, and b (x) 1 acts on a D-coordinate as b does on its
# rows taken k at a time.
PAIRS = pytest.mark.parametrize(
    "pair",
    [AlgebraPair.identity(2), AlgebraPair.block_diagonal(2, 4), conjugated_pair(2, 5)],
    ids=["identity22", "block24", "conjugated22"],
)


@PAIRS
def test_free_model_reproduces_moments(pair):
    alpha, sigma = free_levy_hincin_data(50, pair, 6)
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


@PAIRS
def test_cfree_model_two_states(pair):
    a1, s1 = free_levy_hincin_data(50, pair, 6)
    a2, s2 = cfree_levy_hincin_data(52, pair, 6)
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


def test_model_depth_is_bounded_by_the_truncation(mu22, pair22):
    # mu22 has truncation 6: degree-7 words would read moments never stored
    with pytest.raises(TruncationExceeded, match="boolean model depth 7 exceeds the truncation 6"):
        build_boolean(mu22, depth=7)
    short = generate_realizable(8, mu22.pair, 4, ambient=8)
    with pytest.raises(TruncationExceeded):
        boolean_sum_model([mu22, short], depth=5)
    assert boolean_sum_model([mu22, short]).depth == 4
    # Levy-Hincin data with sigma to level 4 fixes its law to degree 6
    a1, s1 = free_levy_hincin_data(50, pair22, 6)
    a2, s2 = cfree_levy_hincin_data(52, pair22, 6)
    assert build_free(a1, s1).depth == build_cfree(a1, s1, a2, s2).depth == 6
    with pytest.raises(TruncationExceeded, match="free model depth 7 exceeds the truncation 6"):
        build_free(a1, s1, depth=7)
    with pytest.raises(TruncationExceeded, match="cfree model depth 9 exceeds the truncation 6"):
        build_cfree(a1, s1, a2, s2, depth=9)
    with pytest.raises(TruncationExceeded):
        free_sum_model([(a1, s1), free_levy_hincin_data(51, pair22, 4)], depth=5)


def test_cfree_depth_is_that_of_the_shorter_side(pair22):
    # sigma2 stops at level 2, so the c-free cumulants, and the theta law,
    # are fixed only to degree 4 although the free side reaches degree 6
    a1, s1 = free_levy_hincin_data(50, pair22, 6)
    a2, s2 = cfree_levy_hincin_data(52, pair22, 4)
    model = build_cfree(a1, s1, a2, s2)
    assert model.depth == s2.truncation + 2 == 4
    bs = rand_words(11, 2, 5)
    nu = moments_from_free(family_from_levy_hincin("free", a1, s1))
    mu = moments_from_cfree(family_from_levy_hincin("cfree", a2, s2), nu)
    assert relerr(model_moment(model, bs[:4], state="theta"), mu.eval_word(bs[:4])) < 1e-10
    for state in ("phi", "theta"):
        with pytest.raises(DepthExceeded):
            model_moment(model, bs, state=state)


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


def test_side_alpha_of_the_wrong_shape_is_refused():
    # the certificate's cumulant family checks alpha against the pair
    sigma_b, sigma_d = scalar_sigma({0: 1.0, 1: 0.0, 2: 0.0}), scalar_sigma({0: 1.0}, "D")
    for alpha in (np.zeros((2, 2)), np.zeros(1)):
        with pytest.raises(DimensionMismatch):
            build_free(alpha, sigma_b)
        with pytest.raises(DimensionMismatch):
            build_cfree(np.zeros((1, 1)), sigma_b, alpha, sigma_d)


def negative_variance_law(lam: float):
    """m = (lam, lam^2 / 2, lam^3, 2 lam^4, 3 lam^5, 6 lam^6): its variance
    is -lam^2 / 2, and its boolean certificate reads -0.848 at every lam."""
    return scalar_from_moments((lam, 0.5 * lam**2, lam**3, 2 * lam**4, 3 * lam**5, 6 * lam**6))


def dilated_semicircle(i: int):
    """The semicircle dilated by 10^(-3 + 0.2 i)."""
    lam = 10.0 ** (-3 + 0.2 * i)
    return scalar_from_moments(tuple(m * lam ** (n + 1) for n, m in enumerate(SEMICIRCLE_MOMENTS)))


def builds(build, data) -> bool:
    """Whether build(*data()) makes a model: extraction refuses data whose
    certificate fails, the builder data whose own certificate fails."""
    try:
        build(*data())
    except (CertificateFailed, GramNotPSD):
        return False
    return True


def free_model_builds(law) -> bool:
    return builds(build_free, lambda: levy_hincin_extract("free", law))


def cfree_model_builds(law) -> bool:
    return builds(build_cfree, lambda: levy_hincin_extract("free", law)
                  + levy_hincin_extract("cfree", (law, law)))


@pytest.mark.parametrize("lam", [1.0, 10.0, 100.0, 1000.0])
def test_boolean_gate_refuses_negative_variance_at_every_scale(lam):
    law = negative_variance_law(lam)
    cert = certify("boolean", law, 3)
    assert not cert.passed and abs(cert.min_eig + 0.848) < 1e-3
    with pytest.raises(GramNotPSD, match="boolean certificate at degree 3: min eigenvalue -8.478e-01"):
        build_boolean(law)


def test_free_and_cfree_models_exist_exactly_where_the_certificates_pass():
    # 10^2.4 (i = 27) and 10^2.6 (i = 28) are among the dilations
    for i in range(31):
        law = dilated_semicircle(i)
        assert free_model_builds(law) == certify("free", law, 3).passed, i
        assert cfree_model_builds(law) == certify("cfree", (law, law), 3).passed, i


@pytest.mark.parametrize("kind, law, builds_model", [
    # the raw least eigenvalue against -tol max|G| let this law through
    ("boolean", negative_variance_law(100.0), lambda law: builds(build_boolean, lambda: [law])),
    # the ungraded sigma Gram refused these two divisible laws
    ("free", dilated_semicircle(27), free_model_builds),
    ("cfree", dilated_semicircle(28), cfree_model_builds),
], ids=["boolean", "free", "cfree"])
def test_model_gate_agrees_with_the_certificate(kind, law, builds_model):
    data = (law, law) if kind == "cfree" else law
    assert builds_model(law) == certify(kind, data, 3).passed


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


def scaled_data(alpha, sigma: SigmaForm, c: float):
    """Levy-Hincin data (c alpha, c sigma)."""
    levels = {m: c * t for m, t in sigma.levels.items()}
    return c * alpha, SigmaForm(sigma.pair, sigma.values_in, sigma.truncation, levels)


def test_a_root_model_is_the_model_of_the_root_data(mu22, pair22):
    """The n-th root model's operators and Gram are those of the model of
    the data divided by n, not the parent model's."""
    n = 3
    frees = free_levy_hincin_data(50, pair22, 6)
    cfrees = cfree_levy_hincin_data(52, pair22, 6)
    root_frees, root_cfrees = (scaled_data(*data, 1.0 / n) for data in (frees, cfrees))
    cases = (
        (free_root_model(build_free(*frees), n), build_free(*root_frees)),
        (cfree_root_model(build_cfree(*frees, *cfrees), n), build_cfree(*root_frees, *root_cfrees)),
    )
    for model, direct in cases:
        for name in _OPS[model.kind]:
            assert np.array_equal(operator_matrix(model, name, 2)[0],
                                  operator_matrix(direct, name, 2)[0]), name
    assert np.array_equal(gram_matrix(cases[0][0], 3)[0], gram_matrix(cases[0][1], 3)[0])
    # the boolean root law is positive, so its model builds
    model = boolean_root_model(build_boolean(mu22), n)
    direct = build_boolean(root("boolean", mu22, n))
    for name in _OPS["boolean"]:
        assert relerr(operator_matrix(model, name, 2)[0], operator_matrix(direct, name, 2)[0]) < 1e-12
    assert relerr(gram_matrix(model, 3)[0], gram_matrix(direct, 3)[0]) < 1e-12


def test_a_b_valued_cfree_side_builds_exactly_when_certified(pair24):
    # a B-valued c-free sigma is embedded, as certify_levy_hincin embeds it
    frees = free_levy_hincin_data(50, pair24, 6)
    sigma = SigmaForm.from_bordered(bvalued_realizable(3, pair24, 6), "B")
    alpha = np.eye(4)
    assert certify_levy_hincin("cfree", alpha, sigma).passed
    model = build_cfree(*frees, alpha, sigma)
    nu = moments_from_free(family_from_levy_hincin("free", *frees))
    mu = moments_from_cfree(family_from_levy_hincin("cfree", alpha, sigma), nu)
    words = rand_words(16, 2, 6)
    for n in range(7):
        bs = words[:n]
        assert relerr(model_moment(model, bs, state="theta"), mu.eval_word(bs)) < 1e-10, n
        assert relerr(model_moment(model, bs, state="phi"), nu.eval_word(bs)) < 1e-10, n
    negated = scaled_data(alpha, sigma, -1.0)
    assert not certify_levy_hincin("cfree", *negated).passed
    with pytest.raises(GramNotPSD):
        build_cfree(*frees, *negated)


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
                assert _layout(model, cap, 0)[2] == len(fock_basis(model, cap))


def free_pairing_reference(model, ka: tuple, kb: tuple) -> np.ndarray:
    """<ka, kb> in B for free tensor keys, one key pair at a time: the
    sigma-pairing of the first factors multiplies the rest of kb from the
    left, on its first letter's row or on the vacuum coordinate."""
    k = model.pair.k
    if not ka or not kb:
        return np.eye(k, dtype=complex) if ka == kb else np.zeros((k, k), dtype=complex)
    (ta, wa), (tb, wb) = ka[0], kb[0]
    val = None
    if ta == tb:
        val = word_pairing(model.components[ta]["kb"], wa, wb, k)
    if val is None:
        return np.zeros((k, k), dtype=complex)
    if len(kb) == 1:
        return free_pairing_reference(model, ka[1:], ()) @ val
    t, w = kb[1]
    i, j = divmod(w[0], k)
    return sum(
        val[a, i] * free_pairing_reference(model, ka[1:], ((t, (a * k + j,) + w[1:]),) + kb[2:])
        for a in range(k)
    )


@pytest.mark.parametrize("ncomp, cap", [(1, 2), (1, 3), (2, 2)])
def test_free_gram_matches_the_key_by_key_pairing(pair22, ncomp, cap):
    model = free_sum_model([free_levy_hincin_data(s, pair22, 6) for s in (50, 51)[:ncomp]])
    G, keys = gram_matrix(model, cap)
    blocks = np.array([[free_pairing_reference(model, ka, kb) for kb in keys] for ka in keys])
    want = block_matrix(blocks)
    want = 0.5 * (want + want.conj().T)
    assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()


def test_fock_grams_are_bit_identical_to_the_copied_assembly(pair22, pair24):
    mus = [generate_realizable(s, pair24, 6, ambient=8) for s in (7, 8)]
    frees = [free_levy_hincin_data(s, pair22, 6) for s in (50, 51)]
    for model, cap in (
        (boolean_sum_model(mus[:1]), 3),
        (boolean_sum_model(mus), 2),
        (free_sum_model(frees[:1]), 3),
        (free_sum_model(frees), 2),
    ):
        def build():
            return gram_matrix(model, cap)

        (G, keys), (want, want_keys) = build(), copied_assembly(build, fock)
        assert keys == want_keys
        assert np.array_equal(G, want)


def split_key(kind: str, key):
    """(shape, letters) of a basis key: the key with each word (t, w) as
    (t, len(w)), and the letters of its words in order."""
    letters = []

    def length(word):
        letters.extend(word[1])
        return word[0], len(word[1])

    if kind == "boolean":
        shape = length(key) if key else ()
    elif kind == "free":
        shape = tuple(map(length, key))
    elif key[0] == "O":
        shape = key
    else:
        hs = tuple(map(length, key[1]))
        shape = ("D", hs) if key[0] == "D" else ("K", hs, length(key[2]))
    return shape, tuple(letters)


def test_operator_matrix_columns_are_apply_op_on_one_key(mu22, nu22, pair22):
    """Each key's column block is apply_op on that key's one-hot vector, and
    the keys of a shape are one run in the lexicographic order of letters."""
    frees = [free_levy_hincin_data(s, pair22, 6) for s in (50, 51)]
    cfrees = [f + cfree_levy_hincin_data(s, pair22, 6) for f, s in zip(frees, (52, 53))]
    cap, v = 2, 2
    for model in (boolean_sum_model([mu22, nu22]), free_sum_model(frees), cfree_sum_model(cfrees)):
        keys = fock_basis(model, cap)
        split = [split_key(model.kind, key) for key in keys]
        starts: dict = {}
        for i, (shape, letters) in enumerate(split):
            start = starts.setdefault(shape, i)
            assert letters == np.unravel_index(i - start, (4,) * len(letters))
        for name in _OPS[model.kind]:
            for comp in range(2):
                mat, mkeys = operator_matrix(model, name, cap, comp)
                assert mkeys == keys
                for i, (shape, letters) in enumerate(split):
                    one = np.zeros((4,) * len(letters) + (v, v), dtype=complex)
                    one[letters] = np.eye(v)
                    want = np.zeros((len(mat), v), dtype=complex)
                    for okey, arr in apply_op(model, name, {shape: one}, comp).items():
                        if okey in starts:
                            rows = slice(starts[okey] * v, starts[okey] * v + arr.size // v)
                            want[rows] = arr.reshape(-1, v)
                    assert np.abs(mat[:, i * v : (i + 1) * v] - want).max() <= 1e-15
