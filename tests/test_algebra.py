from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncid.algebra import (
    DEFAULT_TOL,
    AlgebraPair,
    adjoint,
    adjoint_unit,
    check_square,
    cnorm,
    is_psd,
    matrix_units,
    min_eigenvalue,
    require_hermitian,
    unit_index,
)
from ncid.errors import NotBValued, NotHermitian, NotSquare, TooLarge
from ncid.serialize import pair_from_json

from conftest import rand_b


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_adjoint_involution(seed, n):
    m = random_matrix(seed, n)
    assert np.allclose(adjoint(adjoint(m)), m)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_adjoint_antimultiplicative(seed, n):
    a = random_matrix(seed, n)
    b = random_matrix(seed + 1, n)
    assert np.allclose(adjoint(a @ b), adjoint(b) @ adjoint(a))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_star_square_is_psd(seed, n):
    a = random_matrix(seed, n)
    assert is_psd(adjoint(a) @ a, tol=1e-12)


def test_min_eigenvalue_known():
    m = np.diag([3.0, -2.0, 0.5]).astype(complex)
    assert abs(min_eigenvalue(m) + 2.0) < 1e-14


def test_check_square_rejects_rectangular():
    with pytest.raises(NotSquare):
        check_square(np.zeros((2, 3)))


def test_require_hermitian_rejects():
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_cnorm_is_max_abs():
    m = np.array([[1.0, -4.0], [2.0, 3.0]])
    assert cnorm(m) == 4.0


def test_unit_index_round_trip():
    k = 3
    units = matrix_units(k)
    for i in range(k):
        for j in range(k):
            u = unit_index(i, j, k)
            assert units[u][i, j] == 1.0
            assert np.count_nonzero(units[u]) == 1
            # adjoint of e_ij is e_ji
            assert adjoint_unit(u, k) == unit_index(j, i, k)


@pytest.mark.parametrize("k,d", [(1, 1), (1, 2), (2, 2), (2, 4), (2, 6)])
def test_embed_is_unital_star_homomorphism(k, d):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    units = matrix_units(k)
    assert np.allclose(pair.embed(np.eye(k)), np.eye(d))
    for a in range(k * k):
        ea = pair.embed(units[a])
        assert np.allclose(pair.embed(adjoint(units[a])), adjoint(ea))
        for b in range(k * k):
            eb = pair.embed(units[b])
            assert np.allclose(pair.embed(units[a] @ units[b]), ea @ eb)


@pytest.mark.parametrize("k,d", [(1, 2), (2, 4)])
def test_pullback_inverts_embed(k, d):
    pair = AlgebraPair.block_diagonal(k, d)
    rng = np.random.default_rng(5)
    for _ in range(5):
        b = rand_b(rng, k)
        assert np.allclose(pair.pullback(pair.embed(b)), b)


def test_pullback_rejects_outside_range():
    pair = AlgebraPair.block_diagonal(1, 2)
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(NotBValued):
        pair.pullback(bad)


def test_embedded_units_layout():
    pair = AlgebraPair.block_diagonal(2, 4)
    eu = pair.embedded_units
    assert eu.shape == (4, 4, 4)
    units = matrix_units(2)
    for u in range(4):
        assert np.allclose(eu[u], pair.embed(units[u]))


def test_embed_tensor_matches_entrywise():
    pair = AlgebraPair.block_diagonal(2, 4)
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    out = pair.embed_tensor(t)
    for i in range(3):
        assert np.allclose(out[i], pair.embed(t[i]))
    back = pair.pullback_tensor(out)
    assert np.allclose(back, t)


def test_default_tol_value():
    assert DEFAULT_TOL == 1e-9


def test_oversized_pairs_are_refused_before_allocation():
    # each (d^2, k^2) embed matrix here is 1.6 GB of complex entries
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            AlgebraPair.identity(100)
        with pytest.raises(TooLarge):
            AlgebraPair.block_diagonal(50, 200)
        with pytest.raises(TooLarge):
            pair_from_json({"k": 100, "d": 100, "embed": [[0.0]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
