"""The cumulant families transform as the law does.

Dilation X -> lam X scales level n of every family by lam**n, and the law of
u X u^* for a unitary u in B has the conjugated families.  Both are checked
for the boolean, free and c-free kinds, from moments to cumulants and back,
on realizable laws (B-valued where the kind needs it).  Errors are measured
against s**n at level n, with s the largest ||m_n||**(1/n) of the laws'
moments (a Frobenius norm, so conjugation leaves it alone): a level's own
largest entry is the wrong scale, since a cumulant level can be rounding
noise of the levels below it.

The boolean Fock model of each law gives back its moments, to the same
tolerance at s**n times the norms of the word's coefficients.  Convolving n
copies of a kind's n-th root gives back its data, to the same tolerance.  At
random nilpotent points, the transforms eval_B, eval_R and eval_cR, which
solve the functional equations from M alone, equal the series of the
boolean, free and c-free families, to the same tolerance at the value's
largest entry.

The free and c-free Fock models of Levy-Hincin data give back the laws of
the data's families, and the n-th root model of each kind the moments of
convolution.root, to the same tolerance as the boolean models.

The mutation gate: a relative error of 1e-6 planted in one level of a
family fails the matching identity check, the Cauchy relation for a
boolean plant, and the functional-equation comparison, on laws dilated by
1e-3, 1 and 1e3.  So these tests can see a wrong cumulant kernel.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncid.algebra import AlgebraPair
from ncid.certify import family_from_levy_hincin
from ncid.convolution import convolve, root
from ncid.cumulants import (
    KINDS,
    CumulantFamily,
    family_of,
    moments_from_cfree,
    moments_from_free,
    moments_of,
)
from ncid.distribution import MomentFunctional, generate_realizable
from ncid.fock import (
    boolean_root_model,
    build_boolean,
    build_cfree,
    build_free,
    cfree_root_model,
    free_root_model,
    model_moment,
)
from ncid import ncfunctions
from ncid.ncfunctions import (
    NilpotentPoint,
    check_cauchy_relation,
    check_identity,
    eval_B,
    eval_cR,
    eval_R,
    eval_series,
)

from conftest import (
    bvalued_realizable,
    cfree_levy_hincin_data,
    conjugate,
    dilate,
    free_levy_hincin_data,
    graded_scale_by_norm,
)

# (k, d, largest truncation)
SHAPES = ((1, 1, 8), (1, 2, 5), (2, 2, 5), (2, 4, 4))
TOL = 1e-12


@st.composite
def laws(draw):
    """A realizable law mu and a B-valued one nu over one pair, each with a
    scale s of its moments."""
    k, d, top = draw(st.sampled_from(SHAPES))
    pair = AlgebraPair.block_diagonal(k, d)
    trunc = draw(st.integers(2, top))
    seed = draw(st.integers(0, 10**6))
    mu = generate_realizable(seed, pair, trunc, ambient=2 * d)
    nu = bvalued_realizable(seed + 1, pair, trunc)
    s = max(np.linalg.norm(law.levels[n]) ** (1 / n) for law in (mu, nu) for n in law.levels)
    return mu, nu, s


def family_map(fam: CumulantFamily, move) -> CumulantFamily:
    """The family whose levels are move() of fam's, read as a law's levels."""
    moved = move(MomentFunctional(fam.pair, fam.truncation, fam.levels))
    return CumulantFamily(fam.kind, fam.pair, fam.truncation, moved.levels)


def level_err(got: dict, want: dict, s) -> float:
    """The largest error of got's levels against want's, at s**n for level n."""
    return max(np.abs(got[n] - want[n]).max() / s**n for n in want)


def assert_families_follow(mu, nu, move, s):
    """family(move(data)) = move(family(data)), and the moments of
    move(family) are move(mu), for every kind, to TOL * s**n at level n."""
    for kind in KINDS:
        law = nu if kind == "free" else mu
        data, moved = ((mu, nu), (move(mu), move(nu))) if kind == "cfree" else (law, move(law))
        fam = family_of(kind, data)
        want = family_map(fam, move)
        assert level_err(family_of(kind, moved).levels, want.levels, s) <= TOL, kind
        back = moments_of(want, move(nu) if kind == "cfree" else None)
        assert level_err(back.levels, move(law).levels, s) <= TOL, kind


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws(), st.floats(-3.0, 3.0))
def test_families_scale_under_dilation(case, log_lam):
    mu, nu, s = case
    lam = 10.0**log_lam
    assert_families_follow(mu, nu, lambda law: dilate(law, lam), lam * s)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws(), st.integers(0, 10**6))
def test_families_follow_unitary_conjugation(case, seed):
    mu, nu, s = case
    k = mu.pair.k
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    assert_families_follow(mu, nu, lambda law: conjugate(law, u), s)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws(), st.integers(0, 10**6))
def test_boolean_models_give_back_the_moments(case, seed):
    mu, nu, s = case
    k = mu.pair.k
    rng = np.random.default_rng(seed)
    bs = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
          for _ in range(mu.truncation)]
    for law in (mu, nu):
        model = build_boolean(law)
        for n in range(mu.truncation + 1):
            scale = s**n * np.prod([np.linalg.norm(b) for b in bs[:n]])
            err = np.abs(model_moment(model, bs[:n]) - law.eval_word(bs[:n])).max()
            assert err <= TOL * scale


@st.composite
def levy_hincin_cases(draw):
    """conftest's free and c-free Levy-Hincin data over one pair, a
    realizable law mu, the divisible laws nu and mu_c of the data, and a
    scale s of the three laws' moments."""
    k, d, top = draw(st.sampled_from(SHAPES))
    pair = AlgebraPair.block_diagonal(k, d)
    trunc = draw(st.integers(2, top))
    seed = draw(st.integers(0, 10**6))
    free, cfree = free_levy_hincin_data(seed, pair, trunc), cfree_levy_hincin_data(seed + 1, pair, trunc)
    mu = generate_realizable(seed + 2, pair, trunc, ambient=2 * d)
    nu = moments_from_free(family_from_levy_hincin("free", *free))
    mu_c = moments_from_cfree(family_from_levy_hincin("cfree", *cfree), nu)
    s = max(np.linalg.norm(law.levels[n]) ** (1 / n) for law in (mu, nu, mu_c) for n in law.levels)
    return free, cfree, mu, nu, mu_c, s


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(levy_hincin_cases(), st.integers(0, 10**6))
def test_fock_models_and_their_roots_give_back_the_laws(case, seed):
    """The free and c-free models of Levy-Hincin data give back the laws of
    the data's families, and each kind's n-th root model the moments of
    convolution.root, to TOL * s**n times the norms of the word's
    coefficients."""
    free, cfree, mu, nu, mu_c, s = case
    k = mu.pair.k
    rng = np.random.default_rng(seed)
    bs = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
          for _ in range(mu.truncation)]
    models = {"boolean": build_boolean(mu), "free": build_free(*free),
              "cfree": build_cfree(*free, *cfree)}

    def check(model, states):
        for n in range(model.depth + 1):
            scale = s**n * np.prod([np.linalg.norm(b) for b in bs[:n]])
            for state, law in states.items():
                err = np.abs(model_moment(model, bs[:n], state) - law.eval_word(bs[:n])).max()
                assert err <= TOL * scale, (model.kind, state, n)

    check(models["free"], {"phi": nu})
    check(models["cfree"], {"phi": nu, "theta": mu_c})
    for n in (2, 3):
        check(boolean_root_model(models["boolean"], n), {"phi": root("boolean", mu, n)})
        check(free_root_model(models["free"], n), {"phi": root("free", nu, n)})
        cmu, cnu = root("cfree", (mu_c, nu), n)
        check(cfree_root_model(models["cfree"], n), {"phi": cnu, "theta": cmu})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(laws())
def test_root_then_convolve_gives_back_the_data(case):
    mu, nu, s = case
    for kind in KINDS:
        data = {"boolean": mu, "free": nu, "cfree": (mu, nu)}[kind]
        for n in (2, 3):
            back = convolve(kind, [root(kind, data, n)] * n)
            pairs = zip(back, data) if kind == "cfree" else [(back, data)]
            for got, want in pairs:
                assert level_err(got.levels, want.levels, s) <= TOL, (kind, n)


def transforms(mu, nu):
    """(kind, data, transform at a point) of each kind: eval_B, eval_R and
    eval_cR, which solve the functional equations from M alone."""
    return (
        ("boolean", mu, lambda point: eval_B(mu, point)),
        ("free", nu, lambda point: eval_R(nu, point)),
        ("cfree", (mu, nu), lambda point: eval_cR(mu, nu, point)),
    )


def transform_gap(transform, levels, pair, point) -> float:
    """Largest entry of transform(point) minus the series of the family's
    levels at the point, over the largest entry of that series."""
    want = eval_series(levels, pair, point, False)
    return np.abs(transform(point) - want).max() / np.abs(want).max()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws(), st.integers(0, 10**6))
def test_functional_equations_match_the_recursions(case, seed):
    mu, nu, _ = case
    rng = np.random.default_rng(seed)
    for kind, data, transform in transforms(mu, nu):
        levels = family_of(kind, data).levels
        for m in (3, mu.truncation):
            point = NilpotentPoint.random(rng, m, mu.pair.k)
            assert transform_gap(transform, levels, mu.pair, point) <= TOL, (kind, m)


PLANT = 1e-6
GATE_ORDER = 4


def planted(fam: CumulantFamily, n: int) -> CumulantFamily:
    """fam with a relative error of PLANT in its level n."""
    return CumulantFamily(fam.kind, fam.pair, fam.truncation,
                          {**fam.levels, n: fam.levels[n] * (1 + PLANT)})


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_a_planted_error_fails_the_checks_at_every_scale(monkeypatch, lam):
    # A wrong level 2..GATE_ORDER of one kind's family fails that kind's
    # identity check (and, for boolean, the Cauchy relation), and the
    # functional-equation comparison above, for a law dilated by lam.
    # The points of the comparison are drawn at scale 1 / s, as the checks'.
    pair = AlgebraPair.identity(2)
    mu = dilate(generate_realizable(5, pair, GATE_ORDER, ambient=4), lam)
    nu = dilate(bvalued_realizable(6, pair, GATE_ORDER), lam)
    s = graded_scale_by_norm(mu, nu)
    rng = np.random.default_rng(7)
    checks = {
        "boolean": [lambda: check_identity("B", mu, order=GATE_ORDER),
                    lambda: check_cauchy_relation(mu, order=GATE_ORDER)],
        "free": [lambda: check_identity("R", nu, order=GATE_ORDER)],
        "cfree": [lambda: check_identity("cR", mu, nu, order=GATE_ORDER)],
    }
    for kind, data, transform in transforms(mu, nu):
        for n in range(2, GATE_ORDER + 1):
            with monkeypatch.context() as mp:
                mp.setattr(ncfunctions, "family_of", lambda k, d: (
                    planted(family_of(k, d), n) if k == kind else family_of(k, d)))
                for check in checks[kind]:
                    report = check()
                    assert not report["pass"], (kind, n, report)
            levels = planted(family_of(kind, data), n).levels
            point = NilpotentPoint.random(rng, GATE_ORDER + 1, pair.k, scale=1 / s)
            assert transform_gap(transform, levels, pair, point) > TOL, (kind, n)
