from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from ncid.certify import levy_hincin_extract, levy_hincin_reconstruct
from ncid.cumulants import boolean_from_moments, free_from_moments
from ncid.errors import (
    DimensionMismatch,
    NCIDError,
    NotBValued,
    OrderExceedsTruncation,
    TruncationExceeded,
)
from ncid.ncfunctions import (
    NilpotentPoint,
    amplify_functional,
    check_cauchy_relation,
    check_identity,
    check_nc_function_axioms,
    eval_B,
    eval_M,
    eval_R,
    extract_taylor,
    tensor_compatibility,
    triangular_probe,
)

from conftest import relerr


def rand_coeffs(seed: int, k: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for _ in range(n)]


def test_point_rejects_non_strict_triangles():
    bad = np.zeros((2, 2, 1, 1), dtype=complex)
    bad[1, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        NilpotentPoint.from_entries(bad)
    diag = np.zeros((2, 2, 1, 1), dtype=complex)
    diag[0, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        NilpotentPoint.from_entries(diag)
    with pytest.raises(DimensionMismatch):
        NilpotentPoint.from_entries(np.zeros((2, 3, 1, 1)))


def test_nilpotency_index():
    probe = triangular_probe([np.eye(2)] * 2)
    assert probe.m == 3
    assert probe.index == 3
    zero = NilpotentPoint.from_entries(np.zeros((3, 3, 2, 2)))
    assert zero.index == 1


def test_triangular_probe_layout():
    cs = rand_coeffs(0, 2, 3)
    probe = triangular_probe(cs)
    assert probe.entries.shape == (4, 4, 2, 2)
    for i, c in enumerate(cs):
        assert np.array_equal(probe.entries[i, i + 1], c)
    assert np.abs(probe.entries[0, 2]).max() == 0


def test_moment_transform_at_zero_is_identity(mu22):
    out = eval_M(mu22, NilpotentPoint.from_entries(np.zeros((2, 2, 2, 2))))
    assert np.array_equal(out[0, 0], np.eye(2, dtype=complex))
    assert np.array_equal(out[1, 1], np.eye(2, dtype=complex))
    assert np.abs(out[0, 1]).max() == 0


def test_moment_transform_superdiagonal_blocks(mu22):
    cs = rand_coeffs(1, 2, 4)
    bool_fam = boolean_from_moments(mu22)
    free_fam = free_from_moments(mu22)
    for m in range(1, 5):
        probe = triangular_probe(cs[:m])
        out = eval_M(mu22, probe)
        assert np.array_equal(out[0, 0], np.eye(2, dtype=complex))
        assert relerr(out[0, m], mu22.eval_word(cs[:m])) < 1e-15
        assert np.abs(out[1, 0]).max() == 0
        assert relerr(eval_B(mu22, probe)[0, m], bool_fam.evaluate(cs[:m])) < 1e-15
        assert relerr(eval_R(mu22, probe)[0, m], free_fam.evaluate(cs[:m])) < 1e-15


def test_moment_transform_follows_index_reversal(mu22):
    # Reversing the index order conjugates the point by a permutation into a
    # strictly lower triangular, still nilpotent, point; the transform follows.
    point = NilpotentPoint.random(np.random.default_rng(6), 4, 2, scale=0.7)
    flipped = eval_M(mu22, point.entries[::-1, ::-1])
    assert relerr(flipped, eval_M(mu22, point)[::-1, ::-1]) < 1e-13


def test_cyclic_support_is_rejected(semicircle):
    # Both off-diagonal blocks are 1, so the point squares to the identity:
    # its support adjacency never vanishes and it is not nilpotent.
    entries = np.zeros((2, 2, 1, 1), dtype=complex)
    entries[0, 1] = entries[1, 0] = 1.0
    alpha, sigma = levy_hincin_extract("boolean", semicircle)
    for evaluate in (
        lambda: eval_M(semicircle, entries),
        lambda: levy_hincin_reconstruct("boolean", alpha, sigma, entries),
    ):
        start = perf_counter()
        with pytest.raises(DimensionMismatch):
            evaluate()
        assert perf_counter() - start < 1.0


def test_free_transform_small_blocks(mu22):
    zero = NilpotentPoint.from_entries(np.zeros((2, 2, 2, 2)))
    assert np.abs(eval_R(mu22, zero)).max() == 0
    beta = rand_coeffs(2, 2, 1)[0]
    out = eval_R(mu22, triangular_probe([beta]))
    kappa1 = free_from_moments(mu22).levels[1]
    assert relerr(out[0, 1], kappa1 @ mu22.pair.embed(beta)) < 1e-15


def test_free_transform_needs_b_valued(mu24):
    beta = rand_coeffs(3, 2, 1)[0]
    with pytest.raises(NotBValued):
        eval_R(mu24, triangular_probe([beta]))


def test_taylor_extraction_is_exact(mu22):
    cs = rand_coeffs(4, 2, 4)
    for m in range(1, 5):
        assert np.array_equal(extract_taylor(mu22, cs[:m], "M"), mu22.eval_word(cs[:m]))
    bool_fam = boolean_from_moments(mu22)
    free_fam = free_from_moments(mu22)
    for m in range(1, 5):
        assert np.array_equal(extract_taylor(mu22, cs[:m], "B"), bool_fam.evaluate(cs[:m]))
        assert np.array_equal(extract_taylor(mu22, cs[:m], "R"), free_fam.evaluate(cs[:m]))
    with pytest.raises(NCIDError):
        extract_taylor(mu22, cs[:2], "Q")


def test_long_probe_exceeds_truncation(mu22):
    cs = rand_coeffs(5, 2, 7)
    with pytest.raises(TruncationExceeded):
        eval_M(mu22, triangular_probe(cs))


def test_boolean_identity_holds(semicircle, mu22):
    for mf in (semicircle, mu22):
        res = check_identity("B", mf, order=4, probes=10)
        assert res["pass"], res
        assert res["residual"] <= 1e-10


def test_free_identity_holds(semicircle, mu22):
    for mf in (semicircle, mu22):
        res = check_identity("R", mf, order=4, probes=10)
        assert res["pass"], res


def test_cfree_identity_holds(mu22, nu22):
    res = check_identity("cR", mu22, nu22, order=4, probes=10)
    assert res["pass"], res
    assert res["residual"] <= 1e-10


def test_identity_input_validation(mu22):
    with pytest.raises(NCIDError):
        check_identity("Q", mu22)
    with pytest.raises(NCIDError):
        check_identity("cR", mu22)
    with pytest.raises(OrderExceedsTruncation):
        check_identity("B", mu22, order=7)


def test_cauchy_relation_holds(semicircle, mu22):
    for mf in (semicircle, mu22):
        res = check_cauchy_relation(mf, order=4, probes=5)
        assert res["pass"], res
        assert res["residual"] <= 1e-9
    with pytest.raises(OrderExceedsTruncation):
        check_cauchy_relation(mu22, order=7)


def test_transform_axioms(semicircle, mu22):
    for mf in (semicircle, mu22):
        res = check_nc_function_axioms(mf, order=3, probes=10)
        assert res["pass"], res
        assert res["residual"] <= 1e-10


def test_amplify_by_one_is_identity(mu22):
    amp = amplify_functional(mu22, 1, 4)
    assert amp.pair.k == 2 and amp.pair.d == 2
    assert np.array_equal(amp.pair.embed_matrix, mu22.pair.embed_matrix)
    for p in range(1, 5):
        assert np.array_equal(amp.levels[p], mu22.levels[p])


def test_amplification_respects_direct_sums(mu22):
    amp = amplify_functional(mu22, 2, 4)
    bs = rand_coeffs(6, 2, 3)
    cs = rand_coeffs(7, 2, 3)
    big = [np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), c]]) for b, c in zip(bs, cs)]
    got = amp.eval_word(big)
    top = mu22.eval_word(bs)
    bottom = mu22.eval_word(cs)
    want = np.block([[top, np.zeros((2, 2))], [np.zeros((2, 2)), bottom]])
    assert relerr(got, want) < 1e-12


def test_amplification_truncation_gate(mu22):
    with pytest.raises(TruncationExceeded):
        amplify_functional(mu22, 2, 7)


def test_tensor_compatibility(semicircle, mu22):
    res = tensor_compatibility(semicircle, 3, order=3, probes=5)
    assert res["pass"], res
    res = tensor_compatibility(mu22, 2, order=3, probes=5)
    assert res["pass"], res
    assert res["residual"] <= 1e-10
