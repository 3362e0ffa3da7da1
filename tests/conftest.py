"""Shared fixtures and numeric helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from ncid.algebra import AlgebraPair, block_matrix, matrix_units
from ncid.certify import SigmaForm, family_from_levy_hincin
from ncid.cumulants import moments_from_cfree, moments_from_free
from ncid.distribution import (
    MomentFunctional,
    generate_realizable,
    level_shape,
    scalar_from_moments,
)

# frozen scalar references (moments m_1..m_6 of the standard laws)
SEMICIRCLE_MOMENTS = (0.0, 1.0, 0.0, 2.0, 0.0, 5.0)
BERNOULLI_MOMENTS = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
FREE_POISSON_MOMENTS = (1.0, 2.0, 5.0, 14.0, 42.0, 132.0)


def relerr(a, b) -> float:
    """Max-abs relative deviation, with the scale floored at 1."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def rand_b(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def zero_law(pair: AlgebraPair, truncation: int) -> MomentFunctional:
    """The zero law, each level a zero-stride view of one zero: it holds no
    tensor memory whatever its size."""
    zero = np.zeros((), dtype=complex)
    return MomentFunctional(pair, truncation, {
        n: np.broadcast_to(zero, level_shape(pair.k, pair.d, n)) for n in range(1, truncation + 1)
    })


def copied_assembly(build, *modules):
    """build() with every Gram assembled by copies, as before Grams were built
    in place: the blocks in their own (n, n, v, v) array, tiled into a new
    matrix by block_matrix, and 0.5 * (mat + mat^*) as a third."""
    made = []

    def blocks_alone(nf, v):
        made.append(np.zeros((nf, nf, v, v), dtype=complex))
        return None, made[-1]

    def copied_hermitian(_):
        mat = block_matrix(made.pop())
        return 0.5 * (mat + mat.conj().T)

    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "gram_arrays", blocks_alone)
            mp.setattr(module, "hermitian_gram", copied_hermitian)
        return build()


def twisted(moments, h):
    """The M_k-valued law of h (x) s for a scalar law s with these moments:
    mu(X b1 X ... X) = m_n h b1 h ... h."""
    units = matrix_units(h.shape[0])
    chain, levels = h, {}
    for n, m in enumerate(moments, start=1):
        levels[n] = m * chain
        chain = np.einsum("...ab,ubc,cd->...uad", chain, units, h)
    pair = AlgebraPair.identity(h.shape[0])
    return MomentFunctional(pair=pair, truncation=len(moments), levels=levels)


def bvalued_realizable(seed: int, pair: AlgebraPair, trunc: int = 6) -> MomentFunctional:
    """A realizable functional whose moments all lie in the embedded copy of B.

    Built by generating over the identity pair on B and embedding every level,
    which keeps positivity (compose the representation with the embedding).
    """
    base = generate_realizable(seed, AlgebraPair.identity(pair.k), trunc, ambient=2 * pair.k)
    levels = {n: pair.embed_tensor(base.raw(n)) for n in range(1, trunc + 1)}
    return MomentFunctional(pair=pair, truncation=trunc, levels=levels)


def free_levy_hincin_data(seed: int, pair: AlgebraPair, trunc: int = 6):
    """Realizable transform data (alpha, sigma) for a freely divisible law.

    Both pieces come from a functional over the identity pair on B, so sigma
    satisfies the positivity condition by construction; sigma is then re-paired
    onto the requested inclusion (its B-valued levels only depend on k).
    """
    base = generate_realizable(seed, AlgebraPair.identity(pair.k), trunc, ambient=2 * pair.k)
    alpha = hermitize(base.raw(1))
    sigma_id = SigmaForm.from_bordered(base, values_in="B")
    sigma = SigmaForm(
        pair=pair, values_in="B", truncation=sigma_id.truncation, levels=sigma_id.levels
    )
    return alpha, sigma


def divisible_free(seed: int, pair: AlgebraPair, trunc: int = 6) -> MomentFunctional:
    """A freely divisible functional synthesized from realizable transform data.

    The divisibility certificate passes by construction and the moments stay
    B-valued, as the free theory requires.
    """
    alpha, sigma = free_levy_hincin_data(seed, pair, trunc)
    return moments_from_free(family_from_levy_hincin("free", alpha, sigma))


def cfree_levy_hincin_data(seed: int, pair: AlgebraPair, trunc: int = 6):
    """D-valued transform data (alpha, sigma) for the c-free side."""
    mf = generate_realizable(seed, pair, trunc, ambient=2 * pair.d)
    alpha = hermitize(mf.raw(1))
    sigma = SigmaForm.from_bordered(mf, values_in="D")
    return alpha, sigma


def divisible_cfree_pair(seed: int, pair: AlgebraPair, trunc: int = 6):
    """A c-freely divisible (mu, nu) over the pair, built from transform data."""
    alpha1, sigma1 = free_levy_hincin_data(seed, pair, trunc)
    alpha2, sigma2 = cfree_levy_hincin_data(seed + 1, pair, trunc)
    nu = moments_from_free(family_from_levy_hincin("free", alpha1, sigma1))
    mu = moments_from_cfree(family_from_levy_hincin("cfree", alpha2, sigma2), nu)
    return mu, nu


@pytest.fixture(scope="session")
def semicircle() -> MomentFunctional:
    return scalar_from_moments(SEMICIRCLE_MOMENTS)


@pytest.fixture(scope="session")
def bernoulli() -> MomentFunctional:
    return scalar_from_moments(BERNOULLI_MOMENTS)


@pytest.fixture(scope="session")
def pair22() -> AlgebraPair:
    return AlgebraPair.identity(2)


@pytest.fixture(scope="session")
def pair24() -> AlgebraPair:
    return AlgebraPair.block_diagonal(2, 4)


@pytest.fixture(scope="session")
def mu22(pair22) -> MomentFunctional:
    return generate_realizable(7, pair22, 6, ambient=8)


@pytest.fixture(scope="session")
def nu22(pair22) -> MomentFunctional:
    return generate_realizable(8, pair22, 6, ambient=8)


@pytest.fixture(scope="session")
def mu228(pair22) -> MomentFunctional:
    """A realizable law at (k, d, N) = (2, 2, 8), as `gen --k 2 --d 2 --trunc 8`
    makes: 4.3 MB of JSON, and a 7.6 MB Gram at degree 4 with free term."""
    return generate_realizable(0, pair22, 8, ambient=4)


@pytest.fixture(scope="session")
def mu24(pair24) -> MomentFunctional:
    return generate_realizable(9, pair24, 6, ambient=8)
