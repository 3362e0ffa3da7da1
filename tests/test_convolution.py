from __future__ import annotations

import numpy as np
import pytest

from ncid.algebra import AlgebraPair
from ncid.certify import certify
from ncid.convolution import boolean_convolve, cfree_convolve, convolve, free_convolve, root
from ncid.cumulants import (
    boolean_from_moments,
    cfree_from_moments,
    free_from_moments,
)
from ncid.distribution import generate_realizable, scalar_from_moments
from ncid.errors import DimensionMismatch, PairMismatch

from conftest import (
    SEMICIRCLE_MOMENTS,
    bvalued_realizable,
    divisible_cfree_pair,
    relerr,
)


def scalar_moments(mf) -> tuple:
    return tuple(float(mf.raw(n).real.flat[0]) for n in range(1, mf.truncation + 1))


def test_boolean_point_masses_add():
    """delta_a boxplus-boolean delta_b is delta_(a+b)."""
    a, b = 0.8, -1.3
    da = scalar_from_moments(tuple(a**n for n in range(1, 7)))
    db = scalar_from_moments(tuple(b**n for n in range(1, 7)))
    out = boolean_convolve([da, db])
    expect = tuple((a + b) ** n for n in range(1, 7))
    assert np.allclose(scalar_moments(out), expect, atol=1e-12)


def test_free_semicircle_sum(semicircle):
    out = free_convolve([semicircle, semicircle])
    assert np.allclose(scalar_moments(out), (0, 2, 0, 8, 0, 40), atol=1e-12)


def test_boolean_bernoulli_sum(bernoulli):
    out = boolean_convolve([bernoulli, bernoulli])
    assert np.allclose(scalar_moments(out), (0, 2, 0, 4, 0, 8), atol=1e-12)


def test_cumulant_additivity_exact(mu22, nu22):
    conv = boolean_convolve([mu22, nu22])
    lhs = boolean_from_moments(conv)
    f1 = boolean_from_moments(mu22)
    f2 = boolean_from_moments(nu22)
    for n in range(1, 7):
        assert relerr(lhs.levels[n], f1.levels[n] + f2.levels[n]) < 1e-12


def test_convolutions_commute_and_associate(pair22):
    xs = [generate_realizable(s, pair22, 6, ambient=4) for s in (11, 12, 13)]
    ab = boolean_convolve([xs[0], xs[1]])
    ba = boolean_convolve([xs[1], xs[0]])
    abc = boolean_convolve([ab, xs[2]])
    abc2 = boolean_convolve([xs[0], boolean_convolve([xs[1], xs[2]])])
    for n in range(1, 7):
        assert relerr(ab.raw(n), ba.raw(n)) < 1e-12
        assert relerr(abc.raw(n), abc2.raw(n)) < 1e-12


def test_free_convolution_commutes(pair22):
    a = bvalued_realizable(14, pair22, 6)
    b = bvalued_realizable(15, pair22, 6)
    ab = free_convolve([a, b])
    ba = free_convolve([b, a])
    for n in range(1, 7):
        assert relerr(ab.raw(n), ba.raw(n)) < 1e-12


def test_pair_mismatch_rejected(pair22, pair24):
    a = generate_realizable(0, pair22, 4, ambient=4)
    b = generate_realizable(0, pair24, 4, ambient=8)
    with pytest.raises(PairMismatch):
        boolean_convolve([a, b])


@pytest.mark.parametrize(
    "kind,named",
    [("boolean", boolean_convolve), ("free", free_convolve), ("cfree", cfree_convolve)],
)
def test_empty_convolution_rejected(kind, named):
    for call in (lambda: named([]), lambda: convolve(kind, [])):
        with pytest.raises(DimensionMismatch, match="at least one operand"):
            call()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_boolean_root_self_convolves_back(mu22, n):
    r = root("boolean", mu22, n)
    back = boolean_convolve([r] * n)
    for m in range(1, 7):
        assert relerr(back.raw(m), mu22.raw(m)) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_free_root_self_convolves_back(pair22, n):
    nu = bvalued_realizable(16, pair22, 6)
    r = root("free", nu, n)
    back = free_convolve([r] * n)
    for m in range(1, 7):
        assert relerr(back.raw(m), nu.raw(m)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_cfree_root_self_convolves_back(pair22, n):
    mu, nu = divisible_cfree_pair(40, pair22)
    rmu, rnu = root("cfree", (mu, nu), n)
    bmu, bnu = cfree_convolve([(rmu, rnu)] * n)
    for m in range(1, 7):
        assert relerr(bmu.raw(m), mu.raw(m)) < 1e-12
        assert relerr(bnu.raw(m), nu.raw(m)) < 1e-12


def test_cfree_convolution_additive_on_both_slots(pair22):
    mu1, nu1 = divisible_cfree_pair(41, pair22)
    mu2, nu2 = divisible_cfree_pair(43, pair22)
    smu, snu = cfree_convolve([(mu1, nu1), (mu2, nu2)])
    cf = cfree_from_moments(smu, snu)
    c1 = cfree_from_moments(mu1, nu1)
    c2 = cfree_from_moments(mu2, nu2)
    fr = free_from_moments(snu)
    f1 = free_from_moments(nu1)
    f2 = free_from_moments(nu2)
    for n in range(1, 7):
        assert relerr(cf.levels[n], c1.levels[n] + c2.levels[n]) < 1e-11
        assert relerr(fr.levels[n], f1.levels[n] + f2.levels[n]) < 1e-11


def test_boolean_roots_recertify(pair22):
    """Every realizable law is boolean infinitely divisible: roots stay positive."""
    for seed in range(6):
        mf = generate_realizable(seed, pair22, 6, ambient=4)
        for n in (2, 7):
            r = root("boolean", mf, n)
            cert = certify("boolean", r, 3)
            assert cert.passed, f"seed {seed} root {n}: min eig {cert.min_eig:.3e}"


def test_root_asymptotics_scale_as_one_over_n(semicircle):
    """N * m_n(root(law, N)) converges to cumulant_n at rate 1/N."""
    kinds_and_data = [
        ("boolean", semicircle, boolean_from_moments(semicircle)),
        ("free", semicircle, free_from_moments(semicircle)),
    ]
    for kind, mf, fam in kinds_and_data:
        errs = []
        for big_n in (100, 200):
            r = root(kind, mf, big_n)
            worst = 0.0
            for n in range(1, 5):
                got = big_n * r.raw(n)
                worst = max(worst, float(np.abs(got - fam.levels[n]).max()))
            errs.append(worst)
        ratio = errs[1] / errs[0]
        assert 0.4 < ratio < 0.6, f"{kind}: ratio {ratio}"
