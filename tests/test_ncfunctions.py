from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np
import pytest

import ncid.cumulants
from ncid import ncfunctions
from ncid.algebra import AlgebraPair
from ncid.certify import levy_hincin_extract, levy_hincin_reconstruct
from ncid.cumulants import boolean_from_moments, cfree_from_moments, free_from_moments
from ncid.distribution import MomentFunctional, generate_realizable, scalar_from_moments
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

from conftest import (
    OVERFLOW_MOMENTS,
    bvalued_realizable,
    dilate,
    check_cauchy_relation_by_point,
    check_identity_by_point,
    check_nc_function_axioms_by_point,
    path_sum_by_point,
    random_point_by_blocks,
    relerr,
    series_by_point,
    subordinate_by_full_series,
    tensor_compatibility_by_point,
)


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


def test_triangular_probe_needs_a_coefficient():
    with pytest.raises(DimensionMismatch, match="at least one coefficient"):
        triangular_probe([])


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


def test_a_check_whose_residuals_overflow_is_refused():
    law = scalar_from_moments(OVERFLOW_MOMENTS)
    with np.errstate(all="ignore"), pytest.raises(NCIDError, match="B check at order 4"):
        check_identity("B", law, order=4)


def test_identity_input_validation(mu22):
    with pytest.raises(NCIDError):
        check_identity("Q", mu22)
    with pytest.raises(NCIDError):
        check_identity("cR", mu22)
    with pytest.raises(OrderExceedsTruncation):
        check_identity("B", mu22, order=7)


def test_b_and_r_checks_do_not_read_nu(mu22, nu22):
    # nu is read by cR alone: a short, dilated nu neither refuses B or R
    # nor moves their reports through its truncation or its scale
    short = dilate(_cut(nu22, 3), 1e3)
    for name in ("B", "R"):
        assert check_identity(name, mu22, short, order=5, probes=10) == check_identity(
            name, mu22, order=5, probes=10)
    with pytest.raises(OrderExceedsTruncation, match="cR check at order 5 needs truncation 5"):
        check_identity("cR", mu22, short, order=5)


# how far a check's clean residual may move under dilation, either way
DILATION_FACTOR = 100


@pytest.mark.parametrize("lam", [1e-4, 1e4])
def test_check_residuals_stay_put_under_dilation(mu22, nu22, lam):
    # the points are drawn at the laws' graded scale (G grades its Laurent
    # orders), so a dilated law's residuals are rounding of the same size:
    # within DILATION_FACTOR of lam = 1 either way, not lam**2 times smaller
    def residuals(mu, nu):
        return {
            "B": check_identity("B", mu, order=4, probes=10)["residual"],
            "R": check_identity("R", nu, order=4, probes=10)["residual"],
            "cR": check_identity("cR", mu, nu, order=4, probes=10)["residual"],
            "G": check_cauchy_relation(mu, order=4, probes=10)["residual"],
        }

    base = residuals(mu22, nu22)
    got = residuals(dilate(mu22, lam), dilate(nu22, lam))
    for name, r in got.items():
        assert base[name] / DILATION_FACTOR <= r <= base[name] * DILATION_FACTOR, (name, r, base)


@pytest.mark.parametrize("probes", [0, -3])
def test_a_check_without_probes_is_refused(mu22, nu22, probes):
    # no probe would evaluate nothing and report residual 0.0, pass true
    for check, args in (
        (check_identity, ("B", mu22)),
        (check_identity, ("cR", mu22, nu22)),
        (check_cauchy_relation, (mu22,)),
        (check_nc_function_axioms, (mu22,)),
        (tensor_compatibility, (mu22, 2)),
    ):
        with pytest.raises(DimensionMismatch, match="at least one probe"):
            check(*args, probes=probes)


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


@pytest.mark.parametrize("n", [0, -1])
def test_amplification_needs_a_positive_size(mu22, n):
    with pytest.raises(DimensionMismatch, match="amplification needs n >= 1"):
        amplify_functional(mu22, n, 3)
    with pytest.raises(DimensionMismatch, match="amplification needs n >= 1"):
        tensor_compatibility(mu22, n)


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

    # the kind table in ncid.cumulants looks the recursions up there
    for name in ("boolean_from_moments", "free_from_moments", "cfree_from_moments"):
        monkeypatch.setattr(ncid.cumulants, name, refuse)
    point = NilpotentPoint.random(np.random.default_rng(3), 5, 2, scale=0.7)
    for value in (eval_B(mu22, point), eval_R(nu22, point), eval_cR(mu22, nu22, point)):
        assert value.shape == (5, 5, 2, 2)


def test_transform_errors(mu22, nu22, mu24, pair24):
    alpha, sigma = levy_hincin_extract("boolean", mu22)
    evaluators = (
        lambda e: eval_B(mu22, e),
        lambda e: eval_R(nu22, e),
        lambda e: eval_cR(mu22, nu22, e),
        lambda e: eval_M(mu22, e),
        lambda e: eval_series(mu22.levels, mu22.pair, e, False),
        lambda e: levy_hincin_reconstruct("boolean", alpha, sigma, e),
    )
    cyclic = np.zeros((2, 2, 2, 2), dtype=complex)
    cyclic[0, 1] = cyclic[1, 0] = np.eye(2)
    # (2, 3) grids of blocks are not points of any M_m(B), zero or not
    non_square = np.zeros((2, 3, 2, 2), dtype=complex)
    nonzero = non_square.copy()
    nonzero[0, 1] = np.eye(2)
    too_long = triangular_probe(rand_coeffs(5, 2, 7))
    for evaluate in evaluators:
        for bad in (cyclic, non_square, nonzero):
            with pytest.raises(DimensionMismatch):
                evaluate(bad)
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


# (k, d, truncation) of the laws whose free and c-free transforms are
# compared byte for byte with the fixed point of full series steps
SUBORDINATION_CASES = {"k1": (1, 1, 12), "k2": (2, 2, 8), "k2d4": (2, 4, 6)}


def _subordination_points(rng, k: int, trunc: int) -> dict:
    """Points of every support shape the fixed point meets: a full chain
    reading all `trunc` levels, a superdiagonal probe, a zero row, a direct
    sum of chains of different lengths, a sparse support, and sizes 1 and 2
    (no step and one step)."""
    def full(m):
        return NilpotentPoint.random(rng, m, k, scale=0.7).entries

    holed, sparse = full(trunc + 1), full(trunc + 1)
    holed[trunc // 2] = 0
    sparse[rng.random((trunc + 1, trunc + 1)) < 0.5] = 0
    direct = np.zeros((trunc + 2, trunc + 2, k, k), dtype=complex)
    direct[:2, :2], direct[2:, 2:] = full(2), full(trunc)
    return {
        "full chain": full(trunc + 1),
        "superdiagonal": triangular_probe(rand_coeffs(trunc, k, trunc)).entries,
        "zero row": holed,
        "direct sum": direct,
        "sparse": sparse,
        "size 1": full(1),
        "size 2": full(2),
    }


@pytest.fixture(scope="module", params=sorted(SUBORDINATION_CASES))
def subordination_case(request):
    """A law, a B-valued law and the points, at one (k, d, truncation)."""
    k, d, trunc = SUBORDINATION_CASES[request.param]
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(41, pair, trunc, ambient=2 * d)
    nu = bvalued_realizable(42, pair, trunc)
    return mu, nu, _subordination_points(np.random.default_rng(trunc), k, trunc)


@pytest.mark.parametrize("lam", [1.0, 1e-3, 1e3])
def test_order_cut_fixed_point_keeps_the_bytes_of_full_steps(subordination_case, lam):
    mu, nu, points = subordination_case
    mu, nu = dilate(mu, lam), dilate(nu, lam)
    for name, entries in points.items():
        b, r = subordinate_by_full_series(nu, entries)
        want_r = nu.pair.embed_tensor(r)
        bmu = ncfunctions._one_minus_inverse(eval_series(mu.levels, mu.pair, b, True))
        want_cr = bmu + ncfunctions._bprod(bmu, want_r)
        assert eval_R(nu, entries).tobytes() == want_r.tobytes(), name
        assert eval_cR(mu, nu, entries).tobytes() == want_cr.tobytes(), name


def test_order_cut_fixed_point_refuses_a_d_valued_law_as_before(mu24):
    points = _subordination_points(np.random.default_rng(6), 2, 6)
    for name, entries in points.items():
        if name == "size 1":  # reads no level, so no law is refused
            continue
        with pytest.raises(NotBValued) as want:
            subordinate_by_full_series(mu24, entries)
        for evaluate in (lambda e: eval_R(mu24, e), lambda e: eval_cR(mu24, mu24, e)):
            with pytest.raises(NotBValued) as got:
                evaluate(entries)
            assert str(got.value) == str(want.value), name


@pytest.mark.parametrize("m, calls, summed", [(10, 45, 165), (12, 66, 286)])
def test_eval_r_sums_each_level_only_in_the_steps_it_can_change(monkeypatch, law_k1, m, calls,
                                                                summed):
    # Full series steps would read 81 and 121 path sums of 405 and 726
    # levels in all at these sizes.
    levels = []
    path_sum = ncfunctions._path_sum

    def counted(level, pair, coeff):
        levels.append(level.ndim - 1)
        return path_sum(level, pair, coeff)

    monkeypatch.setattr(ncfunctions, "_path_sum", counted)
    eval_R(law_k1, NilpotentPoint.random(np.random.default_rng(m), m, 1))
    # step i sums levels 1..i for i < m - 1, the last series levels 1..m - 1
    assert Counter(levels) == {p: m - p for p in range(1, m)}
    assert (len(levels), sum(levels)) == (calls, summed)


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


def test_random_points_read_the_generator_as_the_block_loop():
    for k in (1, 2, 3):
        for m in (1, 2, 5, 7):
            one, other = np.random.default_rng(9), np.random.default_rng(9)
            for scale in (1.0, 0.7):
                got = NilpotentPoint.random(one, m, k, scale=scale).entries
                assert np.array_equal(got, random_point_by_blocks(other, m, k, scale))
            assert one.bit_generator.state == other.bit_generator.state


def _points_of_different_chains(rng, m: int, k: int) -> np.ndarray:
    """Points of one size whose longest chains differ: a full strictly upper
    point, a superdiagonal probe, a full point with a zero row, a direct sum
    of two blocks, and zero."""
    full = NilpotentPoint.random(rng, m, k, scale=0.7).entries
    probe = triangular_probe(rand_coeffs(int(rng.integers(100)), k, m - 1)).entries
    holed = NilpotentPoint.random(rng, m, k, scale=0.7).entries
    holed[1] = 0
    split = NilpotentPoint.random(rng, m, k, scale=0.7).entries
    split[:2, 2:] = 0
    return np.stack([full, probe, holed, split, np.zeros_like(full)])


@pytest.mark.parametrize("k, d", [(1, 1), (2, 2), (2, 4)])
def test_batched_kernel_and_series_match_each_point(k, d):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(5, pair, 6, ambient=2 * d)
    points = _points_of_different_chains(np.random.default_rng(k + d), 5, k)
    # unit diagonal, as the Cauchy check's (1 - c)^(-1)
    unipotent = points.copy()
    unipotent[:, range(5), range(5)] = np.eye(k)
    for batch in (points, unipotent):
        for p in range(1, 7):
            got = ncfunctions._path_sum(mu.levels[p], pair, batch)
            for q, entries in enumerate(batch):
                assert np.array_equal(got[q], path_sum_by_point(mu.levels[p], pair, entries)), (p, q)
    for include_identity in (True, False):
        got = ncfunctions._series(mu.levels, pair, points, include_identity)
        for q, entries in enumerate(points):
            want = series_by_point(mu.levels, pair, entries, include_identity)
            assert np.array_equal(got[q], want), q
            assert np.array_equal(eval_series(mu.levels, pair, entries, include_identity), want)
    # the chain is checked on every point of a batch
    cyclic = points.copy()
    cyclic[2, 4, 0] = np.eye(k)
    with pytest.raises(DimensionMismatch):
        ncfunctions._series(mu.levels, pair, cyclic, True)
    with pytest.raises(TruncationExceeded):
        ncfunctions._series(_cut(mu, 3).levels, pair, points, True)


# (k, d, truncation): the point benchmark's law, a k = 2 law, and d = 4 > k,
# where R and cR pull their arguments back into B
CHECK_CASES = {"k1": (1, 1, 12), "k2": (2, 2, 6), "k2d4": (2, 4, 5)}


@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_checks_match_their_per_probe_loops(case):
    k, d, trunc = CHECK_CASES[case]
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    mu = generate_realizable(31, pair, trunc, ambient=2 * d)
    nu = bvalued_realizable(32, pair, trunc)
    for seed in (0, 5):
        for order in (1, 2, 4):
            for name, args in (("B", (mu,)), ("R", (nu,)), ("cR", (mu, nu))):
                got = check_identity(name, *args, order=order, seed=seed, probes=12)
                assert got == check_identity_by_point(name, *args, order=order, seed=seed,
                                                      probes=12), (name, order, seed)
            got = check_cauchy_relation(mu, order=order, seed=seed)
            assert got == check_cauchy_relation_by_point(mu, order=order, seed=seed)
            got = tensor_compatibility(mu, 2, order=order, seed=seed, probes=4)
            assert got == tensor_compatibility_by_point(mu, 2, order=order, seed=seed, probes=4)
        for order in (1, 2, 3):
            got = check_nc_function_axioms(mu, order=order, seed=seed)
            assert got == check_nc_function_axioms_by_point(mu, order=order, seed=seed)
    # the default probe counts
    assert check_identity("R", nu, order=3, seed=2) == check_identity_by_point(
        "R", nu, order=3, seed=2)


def test_a_batch_past_the_byte_budget_is_split_not_refused(monkeypatch, mu22, nu22):
    checks = {
        "B": lambda: check_identity("B", mu22, order=3, probes=12),
        "cR": lambda: check_identity("cR", mu22, nu22, order=3, probes=12),
        "G": lambda: check_cauchy_relation(mu22, order=3, probes=12),
        "axioms": lambda: check_nc_function_axioms(mu22, order=2, probes=12),
        "tensor": lambda: tensor_compatibility(mu22, 2, order=3, probes=12),
    }
    batches = []
    path_sum = ncfunctions._path_sum

    def spy(level, pair, coeff):
        batches.append(len(coeff))
        return path_sum(level, pair, coeff)

    monkeypatch.setattr(ncfunctions, "_path_sum", spy)
    whole = {}
    for name, check in checks.items():
        batches.clear()
        whole[name] = check(), len(batches)
    # the least budget that fits more than one probe of order 3 in a batch:
    # one probe fits, the 12 do not
    for j in range(40):
        monkeypatch.setattr(ncfunctions, "MAX_GENERATE_BYTES", 2**j)
        batches.clear()
        checks["B"]()
        if max(batches) > 1:
            break
    size = max(batches)
    assert 1 < size < 12
    for name, check in checks.items():
        batches.clear()
        report, calls = whole[name]
        assert check() == report, name
        assert len(batches) > calls, name
        if name in ("B", "cR", "G"):
            assert max(batches) == size, (name, batches)


def test_r_and_cr_checks_refuse_a_d_valued_law(mu24):
    for name, args in (("R", (mu24,)), ("cR", (mu24, mu24))):
        for order in (1, 3):
            with pytest.raises(NotBValued):
                check_identity(name, *args, order=order)
