from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncid.algebra import AlgebraPair
from ncid.distribution import generate_realizable
from ncid.errors import GroundSetMismatch, TooLarge
from ncid.nclattice import (
    MAX_GROUND_SET,
    NCPartition,
    classify_blocks,
    discrete_partition,
    enumerate_nc,
    full_partition,
    leq,
    moebius,
    nc_weights,
)

from conftest import relerr


def catalan(n: int) -> int:
    """Independent Catalan recurrence, C_0 = 1."""
    cs = [1]
    for m in range(n):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs[n]


def order_matrix(parts) -> np.ndarray:
    size = len(parts)
    out = np.zeros((size, size), dtype=np.int64)
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            if leq(a, b):
                out[i, j] = 1
    return out


def test_counts_match_catalan():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)


def test_too_large_ground_set():
    with pytest.raises(TooLarge):
        enumerate_nc(MAX_GROUND_SET + 1)


def test_partitions_are_noncrossing_and_sorted():
    for pi in enumerate_nc(6):
        blocks = pi.blocks
        mins = [b[0] for b in blocks]
        assert mins == sorted(mins)
        for b in blocks:
            assert list(b) == sorted(b)
        # no i < j < k < l with {i,k} and {j,l} split across two blocks
        for a in blocks:
            for b in blocks:
                if a is b:
                    continue
                for i in a:
                    for k in a:
                        if i >= k:
                            continue
                        assert not any(i < j < k < l for j in b for l in b)


def test_moebius_small_values():
    assert moebius(discrete_partition(3), full_partition(3)) == 2
    assert moebius(full_partition(4), full_partition(4)) == 1
    assert moebius(discrete_partition(2), full_partition(2)) == -1


def test_moebius_bottom_to_top_is_signed_catalan():
    """moebius(0_n, 1_n) = (-1)^(n-1) Cat_(n-1), the product formula's value
    on the whole lattice (Nica-Speicher, Lecture 10)."""
    for n in range(1, 7):
        want = (-1) ** (n - 1) * catalan(n - 1)
        assert moebius(discrete_partition(n), full_partition(n)) == want


def test_moebius_inverts_zeta():
    """M Z = I where Z is the order indicator and M the moebius table, n <= 6."""
    for n in range(1, 7):
        parts = enumerate_nc(n)
        zeta = order_matrix(parts)
        moeb = np.zeros_like(zeta)
        for i, a in enumerate(parts):
            for j, b in enumerate(parts):
                if zeta[i, j]:
                    moeb[i, j] = moebius(a, b)
        assert np.array_equal(moeb @ zeta, np.eye(len(parts), dtype=np.int64))


def test_moebius_bound_four_to_n():
    for n in range(1, 8):
        top = full_partition(n)
        for sigma in enumerate_nc(n):
            assert abs(moebius(sigma, top)) <= 4**n


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_moebius_inversion_random_g(seed, n):
    rng = np.random.default_rng(seed)
    parts = enumerate_nc(n)
    g = {pi: rng.standard_normal() + 1j * rng.standard_normal() for pi in parts}
    f = {pi: sum(g[s] for s in parts if leq(s, pi)) for pi in parts}
    for pi in parts:
        back = sum(f[s] * moebius(s, pi) for s in parts if leq(s, pi))
        assert abs(back - g[pi]) < 1e-10


def test_leq_is_partial_order():
    parts = enumerate_nc(4)
    zeta = order_matrix(parts)
    assert np.all(np.diag(zeta) == 1)
    sym = (zeta == 1) & (zeta.T == 1)
    assert np.array_equal(np.argwhere(sym), np.argwhere(np.eye(len(parts), dtype=bool)))
    for i in range(len(parts)):
        for j in range(len(parts)):
            if not zeta[i, j]:
                continue
            implied = zeta[j].astype(bool)
            assert np.all(zeta[i].astype(bool) | ~implied)


def test_leq_rejects_mismatched_ground_sets():
    with pytest.raises(GroundSetMismatch):
        leq(full_partition(2), full_partition(3))


def test_classify_blocks():
    pi = NCPartition(4, ((1, 4), (2, 3)))
    assert classify_blocks(pi) == ("exterior", "interior")
    assert classify_blocks(full_partition(3)) == ("exterior",)


def test_weight_f_nested_example(semicircle):
    """pi = {13|2}: rule (c) gives nu(X nu(X) X) = m1 * m2 (0 for semicircle)."""
    pi = NCPartition(3, ((1, 3), (2,)))
    b = np.ones((1, 1))
    val = nc_weights(pi, "f", semicircle, semicircle, b)
    assert abs(val[0, 0]) < 1e-14


def test_moment_cumulant_weight_identity_scalar(semicircle, bernoulli):
    """F at the full partition equals the sum of G over the whole lattice."""
    rng = np.random.default_rng(0)
    mu, nu = bernoulli, semicircle
    for m in range(1, 6):
        b = np.array([[rng.standard_normal()]])
        parts = enumerate_nc(m)
        lhs = nc_weights(full_partition(m), "F", mu, nu, b)
        rhs = sum(nc_weights(s, "G", mu, nu, b) for s in parts)
        assert relerr(lhs, rhs) < 1e-12


def test_moment_cumulant_weight_identity_matrix(pair22):
    mu = generate_realizable(21, pair22, 5, ambient=4)
    nu = generate_realizable(22, pair22, 5, ambient=4)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for m in range(1, 5):
        parts = enumerate_nc(m)
        lhs = nc_weights(full_partition(m), "F", mu, nu, b)
        rhs = sum(nc_weights(s, "G", mu, nu, b) for s in parts)
        assert relerr(lhs, rhs) < 1e-12


def test_free_weight_full_lattice_identity(pair22):
    """With mu = nu the f/g weight systems satisfy f(pi) = sum of g below pi."""
    nu = generate_realizable(23, pair22, 5, ambient=4)
    rng = np.random.default_rng(2)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for m in range(1, 5):
        parts = enumerate_nc(m)
        gvals = [nc_weights(s, "g", nu, nu, b) for s in parts]
        for i, pi in enumerate(parts):
            lhs = nc_weights(pi, "f", nu, nu, b)
            rhs = sum(gvals[j] for j, s in enumerate(parts) if leq(s, pi))
            assert relerr(lhs, rhs) < 1e-12
