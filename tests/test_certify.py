from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncid.algebra import AlgebraPair, matrix_units
from ncid.certify import (
    Certificate,
    SigmaForm,
    certify,
    certify_levy_hincin,
    family_from_levy_hincin,
    gram,
    levy_hincin_extract,
    levy_hincin_reconstruct,
)
from ncid import certify as certify_module, cumulants
from ncid.convolution import convolve, root
from ncid.cumulants import family_of, free_from_moments, functional_of
from ncid.distribution import generate_realizable, scalar_from_moments
from ncid.errors import (
    CertificateFailed,
    DimensionMismatch,
    NCIDError,
    TooLarge,
    TruncationExceeded,
)
from ncid.ncfunctions import NilpotentPoint, eval_B, eval_R, eval_cR

from conftest import (
    BERNOULLI_MOMENTS,
    OVERFLOW_MOMENTS,
    SEMICIRCLE_MOMENTS,
    conjugate,
    copied_assembly,
    dilate,
    divisible_cfree_pair,
    divisible_free,
    hermitize,
    rand_b,
    relerr,
    twisted,
    zero_law,
)


def rho_gram(mf, degree):
    fam = functional_of("free", free_from_moments(mf))
    return gram(fam, degree, no_free_term=True)


def test_free_gram_semicircle(semicircle):
    mat, labels = rho_gram(semicircle, 2)
    assert labels == [(0,), (0, 0)]
    assert np.allclose(mat, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_free_gram_bernoulli(bernoulli):
    mat, _ = rho_gram(bernoulli, 2)
    assert np.allclose(mat, [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)


def test_gram_degree_validation(mu22):
    with pytest.raises(TruncationExceeded):
        gram(mu22, 4)
    with pytest.raises(NCIDError):
        gram(mu22, 0)


def word_pair_value(mf, left, right):
    """phi(m_left^* m_right) through eval_word, independent of gram's lookup."""
    units = matrix_units(mf.pair.k)
    k = mf.pair.k
    coeffs = [units[u].conj().T for u in reversed(left[1:])]
    coeffs.append(units[left[0]].conj().T @ units[right[0]])
    coeffs.extend(units[u] for u in right[1:])
    coeffs.append(np.eye(k, dtype=complex))
    return mf.eval_word(coeffs)


def test_gram_matches_polynomial_pairing(mu22):
    mat, labels = gram(mu22, 2, no_free_term=True)
    d = mu22.pair.d
    for i, wi in enumerate(labels):
        for j, wj in enumerate(labels):
            want = word_pair_value(mu22, wi, wj)
            got = mat[i * d : (i + 1) * d, j * d : (j + 1) * d]
            assert relerr(got, want) < 1e-12


def test_spanning_compression_soundness(mu22, pair22):
    """Polynomial families with arbitrary coefficients inherit positivity
    from the monomial Gram."""
    mat, labels = gram(mu22, 3, no_free_term=False)
    scale = max(1.0, float(np.abs(mat).max()))
    assert np.linalg.eigvalsh(mat)[0] > -1e-10 * scale
    rng = np.random.default_rng(60)
    nm = mat.shape[0]
    for _ in range(20):
        r = int(rng.integers(2, 7))
        c = rng.normal(size=(nm, r)) + 1j * rng.normal(size=(nm, r))
        fammat = c.conj().T @ mat @ c
        fammat = 0.5 * (fammat + fammat.conj().T)
        fscale = max(1.0, float(np.abs(fammat).max()))
        assert np.linalg.eigvalsh(fammat)[0] > -1e-8 * fscale


def test_condition1_certifies_realizable(pair22, pair24):
    for seed, pair, ambient in ((0, pair22, 4), (1, pair22, 6), (2, pair24, 8)):
        mf = generate_realizable(seed, pair, 6, ambient=ambient)
        cert = certify("condition1", mf, 3)
        assert cert.passed
        assert cert.witness is None


def test_boolean_certifies_realizable(mu22, mu24):
    for mf in (mu22, mu24):
        cert = certify("boolean", mf, 3)
        assert cert.passed


def test_free_certificate_semicircle_and_bernoulli(semicircle, bernoulli):
    good = certify("free", semicircle, 2)
    assert good.passed
    bad = certify("free", bernoulli, 2)
    assert not bad.passed
    assert abs(bad.min_eig - (-1.0)) < 1e-9
    assert bad.witness is not None
    coeffs = np.asarray(bad.witness["coeffs"])
    # witness concentrates on X^2, the monomial with negative rho-square
    assert abs(abs(coeffs[1]) - 1.0) < 1e-9
    # reproduce the quadratic form from kappa values independently
    kappa = {2: 1.0, 3: 0.0, 4: -1.0}
    form = 0.0
    for a in (1, 2):
        for b in (1, 2):
            form += (np.conj(coeffs[a - 1]) * coeffs[b - 1] * kappa[a + b]).real
    assert abs(form - bad.witness["quadratic_form"]) < 1e-8
    assert bad.witness["quadratic_form"] < -0.5


def graded(mat, labels, phi):
    """S G S and the diagonal of S = diag(s^-len(word)), s^2 the Frobenius
    norm of phi's level 2 (bare units have length 0)."""
    s = np.sqrt(np.linalg.norm(phi.raw(2))) or 1.0
    lengths = [len(w) if isinstance(w, tuple) else 0 for w in labels]
    grade = np.repeat(s ** -np.array(lengths, dtype=float), mat.shape[0] // len(labels))
    return grade[:, None] * mat * grade, grade


@pytest.mark.parametrize("seed", [0, 1])
def test_failed_verdict_eigenvalue_matches_its_witness(seed):
    # min_eig comes from the eigenvalues alone, the witness from the
    # eigenvectors of the same graded Gram; both must describe one eigenpair,
    # and the witness mapped back through S is a value of the Gram's own form.
    mu = generate_realizable(seed, AlgebraPair.identity(2), 6, 4)
    rho = functional_of("free", free_from_moments(mu))
    mat, labels = gram(rho, 3)
    smat, grade = graded(mat, labels, rho)
    assert grade.min() < grade.max()  # s != 1, so the grading is at work
    cert = certify("free", mu, 3)
    assert not cert.passed
    scale = np.abs(smat).max()
    assert abs(cert.min_eig - np.linalg.eigvalsh(smat)[0]) <= 1e-12 * scale
    coeffs = np.asarray(cert.witness["coeffs"])
    vec = coeffs / grade
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    form = cert.witness["quadratic_form"]
    assert abs(form - cert.min_eig) <= 1e-12 * scale
    assert abs((coeffs.conj() @ mat @ coeffs).real - form) <= 1e-10 * scale
    assert np.abs(smat @ vec - cert.min_eig * vec).max() <= 1e-10 * scale


def test_cfree_certificate_on_divisible_pair(pair22):
    mu, nu = divisible_cfree_pair(61, pair22)
    cert = certify("cfree", (mu, nu), 3)
    assert cert.passed


def test_unknown_kind_rejected(mu22):
    # Every entry that takes a kind asks the one kind table.  The three
    # *_convolve names pass their own kind to convolve, so it stands for them.
    entries = (
        lambda: certify("monotone", mu22, 2),
        lambda: levy_hincin_extract("monotone", mu22),
        lambda: root("monotone", mu22, 2),
        lambda: convolve("monotone", [mu22, mu22]),
        lambda: convolve("monotone", [mu22]),
        lambda: family_of("monotone", mu22),
    )
    for entry in entries:
        with pytest.raises(NCIDError, match="unknown cumulant kind"):
            entry()


@pytest.mark.parametrize("kind", ["free", "cfree"])
def test_extract_runs_each_recursion_once(kind, pair22, monkeypatch):
    # The certificate and the extracted data share one family of each kind.
    mu, nu = divisible_cfree_pair(66, pair22)
    calls = []
    for name in ("boolean_from_moments", "free_from_moments", "cfree_from_moments"):
        real = getattr(cumulants, name)
        monkeypatch.setattr(
            cumulants, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    levy_hincin_extract(kind, nu if kind == "free" else (mu, nu))
    want = ["free_from_moments"] + (["cfree_from_moments"] if kind == "cfree" else [])
    assert calls == want


def test_certificate_json_key_order(semicircle, bernoulli):
    good = certify("free", semicircle, 2).to_json()
    assert list(good) == ["kind", "degree", "min_eig", "tol", "pass"]
    bad = certify("free", bernoulli, 2).to_json()
    assert list(bad) == ["kind", "degree", "min_eig", "tol", "pass", "witness"]
    assert list(bad["witness"]) == ["coeffs", "quadratic_form"]


def test_bordered_sigma_form_passes_its_certificate(mu22):
    # sigma(f) = mu(X f X) of a positive law is positive, as a c-free (D) or
    # a free (B) form; its certificate pairs levels up to the family's
    # truncation, so a Gram of one degree more is refused
    alpha = hermitize(mu22.raw(1))
    for kind, where in (("cfree", "D"), ("free", "B")):
        sigma = SigmaForm.from_bordered(mu22, values_in=where)
        cert = certify_levy_hincin(kind, alpha, sigma)
        assert cert.passed and cert.kind == kind
        assert cert.degree == (sigma.truncation + 2) // 2
        rho = functional_of(kind, family_from_levy_hincin(kind, alpha, sigma))
        with pytest.raises(TruncationExceeded):
            gram(rho, cert.degree + 1)


def test_free_levy_hincin_data_needs_a_b_valued_sigma(mu24):
    # a D-valued sigma is no free data: its family's level 3 is not in the
    # embedded copy of B, yet its Gram passes; every reader of free data
    # refuses it, while boolean and c-free data may embed a B-valued sigma
    alpha, sigma_d = np.eye(2), SigmaForm.from_bordered(mu24, values_in="D")
    point = np.triu(np.ones((3, 3)), 1)[:, :, None, None] * np.eye(2)
    for read in (family_from_levy_hincin, certify_levy_hincin):
        with pytest.raises(DimensionMismatch, match="B-valued sigma"):
            read("free", alpha, sigma_d)
    with pytest.raises(DimensionMismatch, match="B-valued sigma"):
        levy_hincin_reconstruct("free", alpha, sigma_d, point)
    sigma_b = SigmaForm.from_bordered(divisible_free(61, mu24.pair), values_in="B")
    for kind in ("boolean", "cfree"):
        fam = family_from_levy_hincin(kind, np.eye(4), sigma_b)
        assert np.array_equal(fam.levels[3], mu24.pair.embed_tensor(sigma_b.levels[1]))


def test_boolean_extract_always_succeeds(mu22, mu24):
    for mf in (mu22, mu24):
        alpha, sigma = levy_hincin_extract("boolean", mf)
        assert alpha.shape == (mf.pair.d, mf.pair.d)
        assert sigma.values_in == "D"
        assert sigma.truncation == mf.truncation - 2


def test_free_extract_gates_on_certificate(bernoulli, pair22):
    nu = divisible_free(62, pair22)
    alpha, sigma = levy_hincin_extract("free", nu)
    assert sigma.values_in == "B"
    with pytest.raises(CertificateFailed) as exc:
        levy_hincin_extract("free", bernoulli)
    cert = exc.value.certificate
    assert isinstance(cert, Certificate)
    assert not cert.passed
    assert cert.witness["quadratic_form"] < -1e-9


def test_extract_reconstruct_boolean(mu22):
    alpha, sigma = levy_hincin_extract("boolean", mu22)
    rng = np.random.default_rng(63)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        point = NilpotentPoint.random(rng, m, 2, scale=0.6)
        got = levy_hincin_reconstruct("boolean", alpha, sigma, point)
        assert relerr(got, eval_B(mu22, point)) < 1e-10


def test_extract_reconstruct_free(pair22):
    nu = divisible_free(64, pair22)
    alpha, sigma = levy_hincin_extract("free", nu)
    rng = np.random.default_rng(65)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        point = NilpotentPoint.random(rng, m, 2, scale=0.6)
        got = levy_hincin_reconstruct("free", alpha, sigma, point)
        assert relerr(got, eval_R(nu, point)) < 1e-10


def test_extract_reconstruct_cfree(pair22):
    mu, nu = divisible_cfree_pair(66, pair22)
    alpha, sigma = levy_hincin_extract("cfree", (mu, nu))
    rng = np.random.default_rng(67)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        point = NilpotentPoint.random(rng, m, 2, scale=0.6)
        got = levy_hincin_reconstruct("cfree", alpha, sigma, point)
        assert relerr(got, eval_cR(mu, nu, point)) < 1e-10


def test_reconstruct_rejects_deep_points(mu22):
    alpha, sigma = levy_hincin_extract("boolean", mu22)
    rng = np.random.default_rng(68)
    point = NilpotentPoint.random(rng, 8, 2, scale=0.5)
    with pytest.raises(TruncationExceeded):
        levy_hincin_reconstruct("boolean", alpha, sigma, point)


def test_reconstruct_boolean_twisted_embedding():
    # alpha of the boolean data already lies in D; a k x k alpha must not be
    # embedded a second time when k = d.
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    pair = AlgebraPair(2, 2, np.kron(rot, rot.conj()))
    mu = generate_realizable(69, pair, 6, ambient=4)
    alpha, sigma = levy_hincin_extract("boolean", mu)
    rng = np.random.default_rng(70)
    for m in (2, 3, 4):
        point = NilpotentPoint.random(rng, m, 2, scale=0.6)
        got = levy_hincin_reconstruct("boolean", alpha, sigma, point)
        assert relerr(got, eval_B(mu, point)) < 1e-10


def test_reconstruct_rejects_long_support_chains(pair22):
    # c^2 = 0 here, but the support chain 0 -> 1 -> 2 -> 3 has three edges,
    # one more than sigma truncation 0 covers.
    mu = generate_realizable(71, pair22, 2, ambient=4)
    alpha, sigma = levy_hincin_extract("boolean", mu)
    assert sigma.truncation == 0
    entries = np.zeros((4, 4, 2, 2), dtype=complex)
    for i in range(3):
        entries[i, i + 1] = [[0, 1], [0, 0]]
    point = NilpotentPoint.from_entries(entries)
    with pytest.raises(TruncationExceeded):
        eval_B(mu, point)
    with pytest.raises(TruncationExceeded):
        levy_hincin_reconstruct("boolean", alpha, sigma, point)


def test_roots_recertify(mu22, pair22):
    broot = root("boolean", mu22, 4)
    assert certify("boolean", broot, 3).passed

    nu = divisible_free(69, pair22)
    froot = root("free", nu, 3)
    assert certify("free", froot, 3).passed

    mu, nv = divisible_cfree_pair(70, pair22)
    cmu, cnu = root("cfree", (mu, nv), 3)
    assert certify("cfree", (cmu, cnu), 3).passed


@pytest.mark.parametrize("degree", [2, 3])
def test_a_law_past_the_float_range_fails_its_boolean_certificate(degree):
    # m4 < m2^2, so the law is not positive; the Frobenius norm of its level
    # 2 overflows when squared, and the grade s**-len(word) must not vanish
    cert = certify("boolean", scalar_from_moments(OVERFLOW_MOMENTS), degree)
    assert not cert.passed
    assert -1.0 < cert.min_eig < -0.5


def test_free_certificate_is_dilation_invariant_for_bernoulli():
    # The free Gram of Bernoulli dilated by lam is diag(lam^2, -lam^4); a
    # tolerance floored at 1 let min_eig = -1e-12 pass at lam = 1e-3.  The
    # graded Gram is diag(1, -1) at every lam, and the witness (0, lam^-2)
    # takes the Gram's own form to -1.
    for lam in (1.0, 0.1, 0.01, 1e-3, 1e3):
        law = dilate(scalar_from_moments(BERNOULLI_MOMENTS), lam)
        cert = certify("free", law, 2)
        assert not cert.passed
        assert abs(cert.min_eig + 1.0) < 1e-9
        coeffs = np.asarray(cert.witness["coeffs"])
        assert coeffs[0] == 0 and abs(abs(coeffs[1]) - lam**-2) < 1e-9 * lam**-2
        assert abs(cert.witness["quadratic_form"] + 1.0) < 1e-9


def test_free_certificate_passes_the_dilated_semicircle_at_degree_3():
    # On the ungraded Gram the rounding noise of kappa_6 grows as lam^6
    # against a floor that grows as lam^2: it failed at lam = 10^2.4, 10^2.6.
    for log_lam in np.linspace(-3.0, 3.0, 31):
        law = dilate(scalar_from_moments(SEMICIRCLE_MOMENTS), 10.0**log_lam)
        assert certify("free", law, 3).passed, log_lam


LAWS = ("semicircle", "bernoulli", "realizable")


def scalar_or_realizable(name, seed):
    if name == "realizable":
        return generate_realizable(seed, AlgebraPair.identity(2), 6, ambient=4)
    return scalar_from_moments(SEMICIRCLE_MOMENTS if name == "semicircle" else BERNOULLI_MOMENTS)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(LAWS),
    st.integers(0, 10**6),
    st.sampled_from(("boolean", "free")),
    st.floats(-3.0, 3.0),
)
def test_verdict_is_invariant_under_dilation(name, seed, kind, log_lam):
    mf = scalar_or_realizable(name, seed)
    want = certify(kind, mf, 3).passed
    assert certify(kind, dilate(mf, 10.0**log_lam), 3).passed == want


def twisted_or_realizable(name, seed):
    """A law over M_2 that conjugation moves: semicircle and Bernoulli
    twisted by a Hermitian h of norm 1, or a realizable law."""
    if name == "realizable":
        return generate_realizable(seed, AlgebraPair.identity(2), 4, ambient=4)
    h = hermitize(rand_b(np.random.default_rng(seed), 2))
    h = h / np.linalg.norm(h, 2)
    moments = SEMICIRCLE_MOMENTS if name == "semicircle" else BERNOULLI_MOMENTS
    return twisted(moments[:4], h)


def gram_of(kind, mf):
    if kind == "boolean":
        return gram(mf, 2, no_free_term=False)[0]
    return rho_gram(mf, 2)[0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LAWS), st.integers(0, 10**6), st.sampled_from(("boolean", "free")))
def test_verdict_is_invariant_under_unitary_conjugation(name, seed, kind):
    mf = twisted_or_realizable(name, seed)
    u, _ = np.linalg.qr(rand_b(np.random.default_rng(seed + 1), 2))
    moved = conjugate(mf, u)
    assert relerr(moved.raw(2), mf.raw(2)) > 1e-3  # u really moves the law
    cert, cert_u = certify(kind, mf, 2), certify(kind, moved, 2)
    assert cert_u.passed == cert.passed
    # the Gram matrices are unitarily congruent, so the spectrum stays
    scale = float(np.abs(gram_of(kind, mf)).max())
    assert abs(cert_u.min_eig - cert.min_eig) < 1e-10 * scale


def test_conjugate_matches_direct_evaluation(pair22):
    mf = generate_realizable(72, pair22, 4, ambient=4)
    rng = np.random.default_rng(73)
    u, _ = np.linalg.qr(rand_b(rng, 2))
    bs = [rand_b(rng, 2) for _ in range(3)]
    got = conjugate(mf, u).eval_word(bs)
    moved = [u.conj().T @ b @ u for b in bs[:-1]] + [u.conj().T @ bs[-1]]
    assert relerr(got, u @ mf.eval_word(moved)) < 1e-12


def test_oversized_grams_are_refused_before_allocation(pair22):
    # certify --degree 6 at k = 2 asks for 5460 words: a 10920^2 complex Gram
    # of 1.9 GB, held three times over.  The zero-stride law and sigma form
    # hold nothing, so the traced peak shows that no Gram array was made.
    law = zero_law(pair22, 12)
    zero = np.zeros((), dtype=complex)
    sigma = SigmaForm(pair22, "D", 10, {m: np.broadcast_to(zero, (4,) * (m + 1) + (2, 2))
                                         for m in range(11)})
    refusals = (
        lambda: gram(law, 6),
        lambda: certify("boolean", law, 6),
        lambda: certify("condition1", law, 6),
        lambda: certify_levy_hincin("cfree", np.zeros((2, 2)), sigma),
    )
    tracemalloc.start()
    try:
        for refuse in refusals:
            with pytest.raises(TooLarge):
                refuse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_grams_are_bit_identical_to_the_copied_assembly(mu22, mu24, semicircle, bernoulli):
    builds = [
        lambda: gram(mu22, 3, no_free_term=False),
        lambda: gram(mu22, 3),
        lambda: gram(mu24, 2, no_free_term=False),
        lambda: gram(semicircle, 3, no_free_term=False),
        lambda: rho_gram(bernoulli, 3),
    ]
    for build in builds:
        (mat, family), (want, want_family) = build(), copied_assembly(build, certify_module)
        assert family == want_family
        assert mat.dtype == want.dtype and np.array_equal(mat, want)


def test_gram_holds_at_most_two_matrices_at_once(mu228):
    # The blocks are written into the matrix itself; only the adjoint that
    # hermitian_gram adds is a second copy.
    tracemalloc.start()
    try:
        mat, _ = gram(mu228, 4, no_free_term=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (2 * 344, 2 * 344)  # 4 units and 340 words, 2 x 2 blocks
    assert peak <= 2.5 * mat.nbytes


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_non_negative(semicircle, tol):
    with pytest.raises(NCIDError, match="tolerance must be finite and >= 0"):
        certify("boolean", semicircle, 2, tol)
    with pytest.raises(NCIDError, match="tolerance must be finite and >= 0"):
        levy_hincin_extract("free", semicircle, tol)


def test_zero_tolerance_is_accepted(semicircle):
    assert certify("free", semicircle, 2, 0.0).tol == 0.0
