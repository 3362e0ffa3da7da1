from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

import ncid.ncfunctions
from ncid.algebra import AlgebraPair
from ncid.certify import levy_hincin_extract, levy_hincin_reconstruct
from ncid.cumulants import boolean_from_moments, cfree_from_moments, free_from_moments
from ncid.distribution import MomentFunctional, generate_realizable
from ncid.errors import (
    DimensionMismatch,
    NCIDError,
    NotBValued,
    OrderExceedsTruncation,
    PairMismatch,
    TruncationExceeded,
)
from ncid.ncfunctions import (
    NilpotentPoint,
    amplify_functional,
    check_cauchy_relation,
    check_identity,
    check_nc_function_axioms,
    eval_B,
    eval_cR,
    eval_M,
    eval_R,
    eval_series,
    extract_taylor,
    tensor_compatibility,
    triangular_probe,
)

from conftest import bvalued_realizable, relerr


def rand_coeffs(seed: int, k: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for _ in range(n)]


def test_point_rejects_non_strict_triangles():
    # no order of the indices makes a 2-cycle or a diagonal block strictly upper
    bad = np.zeros((2, 2, 1, 1), dtype=complex)
    bad[0, 1] = bad[1, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        NilpotentPoint.from_entries(bad)
    diag = np.zeros((2, 2, 1, 1), dtype=complex)
    diag[0, 0] = 1.0
    with pytest.raises(DimensionMismatch):
        NilpotentPoint.from_entries(diag)
    with pytest.raises(DimensionMismatch):
        NilpotentPoint.from_entries(np.zeros((2, 3, 1, 1)))


def test_lower_point_matches_its_reversed_upper_twin(mu22):
    # A strictly lower point is accepted: reversing its indices gives a
    # strictly upper twin, and the transforms follow the reversal back.
    upper = NilpotentPoint.random(np.random.default_rng(8), 5, 2, scale=0.7)
    lower = NilpotentPoint.from_entries(upper.entries[::-1, ::-1])
    assert np.abs(np.triu(np.abs(lower.entries).max(axis=(2, 3)))).max() == 0
    assert lower.index == upper.index
    for evaluate in (eval_M, eval_B, eval_R):
        want = evaluate(mu22, upper)[::-1, ::-1]
        assert relerr(evaluate(mu22, lower), want) < 1e-13, evaluate.__name__


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


@pytest.mark.parametrize("seed", range(8))
def test_axioms_need_twice_the_order_minus_one_levels(seed):
    # direct sums reach size 2 * order, which reads 2 * order - 1 levels
    mu = generate_realizable(3, AlgebraPair.identity(1), 12, 2)
    assert check_nc_function_axioms(mu, order=6, seed=seed)["pass"]
    with pytest.raises(OrderExceedsTruncation):
        check_nc_function_axioms(mu, order=7, seed=seed)


def test_tensor_order_is_bounded_by_the_truncation():
    mu = generate_realizable(3, AlgebraPair.identity(1), 6, 2)
    assert tensor_compatibility(mu, 2, order=6, probes=3)["pass"]
    with pytest.raises(OrderExceedsTruncation):
        tensor_compatibility(mu, 2, order=7, probes=3)


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


def _cut(mu, n):
    return MomentFunctional(
        pair=mu.pair, truncation=n, levels={j: mu.levels[j] for j in range(1, n + 1)}
    )


@pytest.fixture(scope="module")
def law_k1():
    """A k = d = 1 law at truncation 12, as the point benchmark uses."""
    return generate_realizable(11, AlgebraPair.identity(1), 12, ambient=2)


# (k, d, truncation, point sizes): the k = 1 law reads all 12 levels at m = 12;
# d = 4 > k sends R and cR through the pullback into B and back.
ORACLE_CASES = {
    "k1": (1, 1, 12, (2, 7, 12)),
    "k2": (2, 2, 6, (3, 5, 7)),
    "k2d4": (2, 4, 5, (4, 6)),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    """A law, a B-valued law, and the recursion families of the pair."""
    k, d, trunc, sizes = ORACLE_CASES[request.param]
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(21, pair, trunc, ambient=2 * d)
    nu = bvalued_realizable(22, pair, trunc)
    families = {
        "B": boolean_from_moments(mu),
        "R": free_from_moments(nu),
        "cR": cfree_from_moments(mu, nu),
    }
    return mu, nu, families, sizes


def test_transforms_match_recursion_series(oracle_case):
    # The functional-equation evaluator against the path-sum series of the
    # recursion families, at strictly upper points and their index reversals.
    mu, nu, families, sizes = oracle_case
    evaluators = {
        "B": lambda e: eval_B(mu, e),
        "R": lambda e: eval_R(nu, e),
        "cR": lambda e: eval_cR(mu, nu, e),
    }
    for m in sizes:
        point = NilpotentPoint.random(np.random.default_rng(m), m, mu.pair.k, scale=0.7)
        for entries in (point.entries, point.entries[::-1, ::-1]):
            for name, evaluate in evaluators.items():
                want = eval_series(families[name].levels, mu.pair, entries, False)
                got = evaluate(entries)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err < 1e-13, (name, m, err)


def test_transforms_build_no_cumulant_tensors(monkeypatch, mu22, nu22):
    def refuse(*args):
        raise AssertionError("cumulant recursion called")

    for name in ("boolean_from_moments", "free_from_moments", "cfree_from_moments"):
        monkeypatch.setattr(ncid.ncfunctions, name, refuse)
    point = NilpotentPoint.random(np.random.default_rng(3), 5, 2, scale=0.7)
    for value in (eval_B(mu22, point), eval_R(nu22, point), eval_cR(mu22, nu22, point)):
        assert value.shape == (5, 5, 2, 2)


def test_transform_errors(mu22, nu22, mu24, pair24):
    evaluators = (
        lambda e: eval_B(mu22, e),
        lambda e: eval_R(nu22, e),
        lambda e: eval_cR(mu22, nu22, e),
    )
    cyclic = np.zeros((2, 2, 2, 2), dtype=complex)
    cyclic[0, 1] = cyclic[1, 0] = np.eye(2)
    too_long = triangular_probe(rand_coeffs(5, 2, 7))
    for evaluate in evaluators:
        with pytest.raises(DimensionMismatch):
            evaluate(cyclic)
        with pytest.raises(TruncationExceeded):
            evaluate(too_long)
    probe = triangular_probe(rand_coeffs(3, 2, 2))
    nu24 = bvalued_realizable(4, pair24)
    with pytest.raises(NotBValued):
        eval_R(mu24, probe)
    with pytest.raises(NotBValued):
        eval_cR(mu24, mu24, probe)
    assert eval_cR(mu24, nu24, probe).shape == (3, 3, 4, 4)
    with pytest.raises(PairMismatch):
        eval_cR(mu22, nu24, probe)


def test_identity_reports_read_only_order_levels(law_k1):
    nu = generate_realizable(12, AlgebraPair.identity(1), 12, ambient=2)
    for name in ("B", "R", "cR"):
        full = check_identity(name, law_k1, nu, order=4, probes=10)
        cut = check_identity(name, _cut(law_k1, 4), _cut(nu, 4), order=4, probes=10)
        assert full == cut


def _amplified_level_by_loop(mu, n, p):
    """Level p of id_n tensor mu, one unit tuple at a time."""
    k, d = mu.pair.k, mu.pair.d
    nk, nd = n * k, n * d
    lev = np.zeros((nk * nk,) * (p - 1) + (nd, nd), dtype=complex)
    for units in np.ndindex(*(nk * nk,) * (p - 1)):
        rows = [divmod(u, nk) for u in units]
        legs = [(r // k, s // k) for r, s in rows]
        if any(legs[t][1] != legs[t + 1][0] for t in range(len(legs) - 1)):
            continue
        small = mu.levels[p][tuple((r % k) * k + s % k for r, s in rows)]
        starts = [legs[0][0]] if legs else range(n)
        for r0 in starts:
            s_last = legs[-1][1] if legs else r0
            lev[units][r0 * d : (r0 + 1) * d, s_last * d : (s_last + 1) * d] = small
    return lev


@pytest.mark.parametrize("n", [1, 2, 3])
def test_amplification_matches_unit_by_unit_loop(semicircle, mu22, mu24, n):
    for mu in (semicircle, mu22, mu24):
        amp = amplify_functional(mu, n, 4)
        for p in range(1, 5):
            assert np.array_equal(amp.levels[p], _amplified_level_by_loop(mu, n, p))
