"""Divisibility certificates, sigma-forms, and transform extraction.

A distribution is infinitely divisible for a given independence exactly when
an associated bilinear form is positive semidefinite on polynomials without
free term.  The certifier materializes that form as a finite Gram matrix on
monomials up to a degree, checks its minimal eigenvalue, and on failure emits
the offending coefficient vector together with its quadratic form value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraPair, adjoint_unit
from .cumulants import (
    CumulantFamily,
    boolean_from_moments,
    cfree_from_moments,
    free_from_moments,
    functional_of,
)
from .distribution import MomentFunctional
from .errors import (
    CertificateFailed,
    DimensionMismatch,
    NCIDError,
    TruncationExceeded,
)
from .ncfunctions import eval_series


@dataclass(frozen=True, eq=False)
class SigmaForm:
    """B-multilinear form representing the jump part of a divisible law.

    Level m stores the values on coefficient-bordered words with m inner
    coefficient slots, sigma(c0 X c1 ... c_{m} ...), as a tensor of shape
    (k^2,)*(m+1) + (v, v) over matrix-unit tuples.  Values live in B for the
    free transform (v = k) and in D for the boolean and c-free ones (v = d).
    """

    pair: AlgebraPair
    values_in: str
    truncation: int
    levels: dict

    def __post_init__(self):
        if self.values_in not in ("B", "D"):
            raise NCIDError(f"values_in must be 'B' or 'D', got {self.values_in!r}")
        if self.truncation < 0:
            raise NCIDError("sigma form needs at least level 0")
        v = self.value_dim
        k2 = self.pair.k * self.pair.k
        for m in range(self.truncation + 1):
            want = (k2,) * (m + 1) + (v, v)
            got = np.asarray(self.levels[m]).shape
            if got != want:
                raise DimensionMismatch(
                    f"sigma level {m} has shape {got}, expected {want}"
                )

    @property
    def value_dim(self) -> int:
        return self.pair.k if self.values_in == "B" else self.pair.d

    def level(self, m: int) -> np.ndarray:
        if m > self.truncation:
            raise TruncationExceeded(
                f"sigma level {m} requested, stored up to {self.truncation}"
            )
        return self.levels[m]

    def eval_coeffs(self, coeffs) -> np.ndarray:
        """Value on the word c0 X c1 X ... X c_m given its m+1 coefficients."""
        coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
        t = self.level(len(coeffs) - 1)
        for c in coeffs:
            t = np.tensordot(c.reshape(-1), t, axes=([0], [0]))
        return t

    @classmethod
    def from_bordered(cls, mf: MomentFunctional, values_in: str = "D") -> "SigmaForm":
        """Sigma form sigma(f) = rho(X f X) of a positive functional rho.

        Positivity of rho makes the resulting form automatically certifiable;
        this is the standard way to manufacture divisible test inputs.
        """
        if mf.truncation < 2:
            raise TruncationExceeded("need moments up to degree 2 to border")
        levels = {}
        for m in range(mf.truncation - 2 + 1):
            raw = mf.raw(m + 2)
            levels[m] = mf.pair.pullback_tensor(raw) if values_in == "B" else raw
        return cls(
            pair=mf.pair,
            values_in=values_in,
            truncation=mf.truncation - 2,
            levels=levels,
        )


def _no_free_term_family(k: int, degree: int):
    """Monomials u0 X u1 ... u_{j-1} X for j = 1..degree (tuples of units)."""
    fam = []
    for j in range(1, degree + 1):
        fam.extend(product(range(k * k), repeat=j))
    return fam


def _blocks_to_matrix(blocks: np.ndarray) -> np.ndarray:
    f, _, v, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(f * v, f * v)


def _word_product_lookup(stored, left, right, k):
    """phi(m_left^* m_right) for X-ended left-bordered words via one lookup.

    m^* m concatenates through the product of the adjoint first letter of the
    left word with the first letter of the right word, which is delta-sparse
    on matrix units.
    """
    j, l = len(left), len(right)
    a0, b0 = divmod(left[0], k)
    a1, b1 = divmod(right[0], k)
    if a0 != a1:
        return None
    mid = b0 * k + b1
    idx = tuple(adjoint_unit(u, k) for u in reversed(left[1:])) + (mid,) + tuple(
        right[1:]
    )
    return stored[j + l][idx]


def gram(phi: MomentFunctional, degree: int, no_free_term: bool = True):
    """Block Gram matrix [phi(m_a^* m_b)] over the monomial family.

    Returns (matrix, family) where family lists the monomial labels: tuples
    of unit indices (u0, ..., u_{j-1}) for u0 X u1 ... u_{j-1} X, preceded by
    the bare units of B when the free term is included.
    """
    k, d = phi.pair.k, phi.pair.d
    if 2 * degree > phi.truncation:
        raise TruncationExceeded(
            f"gram degree {degree} needs moments to order {2 * degree}, "
            f"stored {phi.truncation}"
        )
    if degree < 1:
        raise NCIDError("gram degree must be >= 1")
    words = _no_free_term_family(k, degree)
    consts = list(range(k * k)) if not no_free_term else []
    fam = [("const", u) for u in consts] + [("word", w) for w in words]
    nf = len(fam)
    blocks = np.zeros((nf, nf, d, d), dtype=complex)
    stored = {n: phi.raw(n) for n in range(1, 2 * degree + 1)}
    eunits = phi.pair.embedded_units
    for i, (ti, xi) in enumerate(fam):
        for j, (tj, xj) in enumerate(fam):
            if ti == "const" and tj == "const":
                a0, b0 = divmod(xi, k)
                a1, b1 = divmod(xj, k)
                if a0 == a1:
                    blocks[i, j] = eunits[b0 * k + b1]
            elif ti == "const":
                a0, b0 = divmod(xi, k)
                a1, b1 = divmod(xj[0], k)
                if a0 == a1:
                    tail = stored[len(xj)][xj[1:]]
                    blocks[i, j] = eunits[b0 * k + b1] @ tail
            elif tj == "const":
                # phi(m_i^* m_j) = phi(m_j^* m_i)^* by *-compatibility
                a0, b0 = divmod(xj, k)
                a1, b1 = divmod(xi[0], k)
                if a0 == a1:
                    tail = stored[len(xi)][xi[1:]]
                    blocks[i, j] = (eunits[b0 * k + b1] @ tail).conj().T
            else:
                val = _word_product_lookup(stored, xi, xj, k)
                if val is not None:
                    blocks[i, j] = val
    mat = _blocks_to_matrix(blocks)
    mat = 0.5 * (mat + mat.conj().T)
    labels = [x for _, x in fam]
    return mat, labels


def sigma_gram(sigma: SigmaForm, degree: int):
    """Gram matrix of a sigma form over bordered words of degree <= degree."""
    if 2 * degree > sigma.truncation:
        raise TruncationExceeded(
            f"sigma gram degree {degree} needs levels to {2 * degree}, "
            f"stored {sigma.truncation}"
        )
    k = sigma.pair.k
    v = sigma.value_dim
    fam = []
    for m in range(degree + 1):
        fam.extend(product(range(k * k), repeat=m + 1))
    nf = len(fam)
    blocks = np.zeros((nf, nf, v, v), dtype=complex)
    for i, wi in enumerate(fam):
        for j, wj in enumerate(fam):
            a0, b0 = divmod(wi[0], k)
            a1, b1 = divmod(wj[0], k)
            if a0 != a1:
                continue
            mid = b0 * k + b1
            idx = tuple(adjoint_unit(u, k) for u in reversed(wi[1:])) + (mid,) + tuple(
                wj[1:]
            )
            blocks[i, j] = sigma.levels[len(wi) + len(wj) - 2][idx]
    mat = _blocks_to_matrix(blocks)
    mat = 0.5 * (mat + mat.conj().T)
    return mat, fam


@dataclass(frozen=True, eq=False)
class Certificate:
    kind: str
    degree: int
    min_eig: float
    tol: float
    passed: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "degree": self.degree,
            "min_eig": float(self.min_eig),
            "tol": float(self.tol),
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = {
                "coeffs": [complex(c) for c in self.witness["coeffs"]],
                "quadratic_form": float(self.witness["quadratic_form"]),
            }
        return out


def _judge(kind, degree, mat, tol) -> Certificate:
    vals, vecs = np.linalg.eigh(mat)
    min_eig = float(vals[0])
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    passed = min_eig >= -tol * scale
    witness = None
    if not passed:
        vec = vecs[:, 0]
        form = float(np.real(vec.conj() @ mat @ vec))
        witness = {"coeffs": [complex(c) for c in vec], "quadratic_form": form}
    return Certificate(
        kind=kind,
        degree=degree,
        min_eig=min_eig,
        tol=tol,
        passed=passed,
        witness=witness,
    )


def certify(kind: str, data, degree: int, tol: float = DEFAULT_TOL) -> Certificate:
    """Certify infinite divisibility (or positivity, for kind 'condition1').

    boolean: every positive functional is divisible, so the check reduces to
    positivity of the moment Gram on the full polynomial domain.
    free: the Gram of the free-cumulant functional on polynomials without
    free term must be PSD.
    cfree: data is a (mu, nu) pair; both the free form of nu and the c-free
    form of the pair must be PSD; the reported eigenvalue is the smaller.
    condition1: positivity of an arbitrary functional on the full domain.
    """
    if kind == "boolean":
        mat, _ = gram(data, degree, no_free_term=False)
        return _judge(kind, degree, mat, tol)
    if kind == "condition1":
        mat, _ = gram(data, degree, no_free_term=False)
        return _judge(kind, degree, mat, tol)
    if kind == "free":
        rho = functional_of("free", free_from_moments(data))
        mat, _ = gram(rho, degree, no_free_term=True)
        return _judge(kind, degree, mat, tol)
    if kind == "cfree":
        mu, nu = data
        rho = functional_of("free", free_from_moments(nu))
        mat_f, _ = gram(rho, degree, no_free_term=True)
        crho = functional_of("cfree", cfree_from_moments(mu, nu))
        mat_c, _ = gram(crho, degree, no_free_term=True)
        cert_f = _judge(kind, degree, mat_f, tol)
        cert_c = _judge(kind, degree, mat_c, tol)
        return cert_f if cert_f.min_eig <= cert_c.min_eig else cert_c
    raise NCIDError(f"unknown certificate kind {kind!r}")


def family_from_levy_hincin(kind, alpha, sigma, truncation=None) -> CumulantFamily:
    """Rebuild the cumulant family of the divisible law with data (alpha, sigma)."""
    pair = sigma.pair
    trunc = sigma.truncation + 2
    if truncation is not None:
        trunc = min(truncation, trunc)
    levels = {}
    alpha = np.asarray(alpha, dtype=complex)
    if kind == "free":
        levels[1] = pair.embed(alpha)
    else:
        levels[1] = alpha.copy()
    for n in range(2, trunc + 1):
        lev = sigma.levels[n - 2]
        levels[n] = pair.embed_tensor(lev) if sigma.values_in == "B" else lev.copy()
    return CumulantFamily(kind=kind, pair=pair, truncation=trunc, levels=levels)


def levy_hincin_extract(kind: str, data, tol: float = DEFAULT_TOL):
    """Extract the transform data (alpha, sigma) of a divisible distribution.

    boolean laws always admit the representation.  For free and c-free input
    the certificate at the maximal checkable degree must pass first; on
    failure a CertificateFailed carrying the certificate (and its witness)
    is raised instead of returning garbage data.
    """
    if kind == "boolean":
        mu = data
        if mu.truncation < 2:
            raise TruncationExceeded("need moments to degree 2 to extract")
        fam = boolean_from_moments(mu)
        alpha = fam.levels[1].copy()
        levels = {m: fam.levels[m + 2].copy() for m in range(mu.truncation - 1)}
        sig = SigmaForm(
            pair=mu.pair, values_in="D", truncation=mu.truncation - 2, levels=levels
        )
        return alpha, sig
    if kind == "free":
        nu = data
        if nu.truncation < 2:
            raise TruncationExceeded("need moments to degree 2 to extract")
        degree = nu.truncation // 2
        cert = certify("free", nu, degree, tol)
        if not cert.passed:
            raise CertificateFailed(
                f"free divisibility fails at degree {degree}: "
                f"min eigenvalue {cert.min_eig:.3e}",
                certificate=cert,
            )
        fam = free_from_moments(nu)
        alpha = nu.pair.pullback(fam.levels[1])
        levels = {
            m: nu.pair.pullback_tensor(fam.levels[m + 2])
            for m in range(nu.truncation - 1)
        }
        sig = SigmaForm(
            pair=nu.pair, values_in="B", truncation=nu.truncation - 2, levels=levels
        )
        return alpha, sig
    if kind == "cfree":
        mu, nu = data
        trunc = min(mu.truncation, nu.truncation)
        if trunc < 2:
            raise TruncationExceeded("need moments to degree 2 to extract")
        degree = trunc // 2
        cert = certify("cfree", (mu, nu), degree, tol)
        if not cert.passed:
            raise CertificateFailed(
                f"c-free divisibility fails at degree {degree}: "
                f"min eigenvalue {cert.min_eig:.3e}",
                certificate=cert,
            )
        fam = cfree_from_moments(mu, nu)
        alpha = fam.levels[1].copy()
        levels = {m: fam.levels[m + 2].copy() for m in range(trunc - 1)}
        sig = SigmaForm(pair=mu.pair, values_in="D", truncation=trunc - 2, levels=levels)
        return alpha, sig
    raise NCIDError(f"unknown transform kind {kind!r}")


def levy_hincin_reconstruct(kind: str, alpha, sigma: SigmaForm, point):
    """Evaluate the extracted transform at a nilpotent matrix point.

    point carries strictly upper triangular entries of shape (m, m, k, k);
    the return value is the transform applied entrywise, shape (m, m, d, d).
    The data (alpha, sigma) is rebuilt into its cumulant family, whose series
    ncfunctions.eval_series sums with the one nilpotent-point path-sum kernel.
    It raises TruncationExceeded when the point's support has a chain of
    nonzero blocks longer than sigma.truncation + 2, even where powers of the
    point cancel earlier.
    """
    entries = np.asarray(getattr(point, "entries", point), dtype=complex)
    if entries.ndim != 4 or entries.shape[0] != entries.shape[1]:
        raise DimensionMismatch("point entries must have shape (m, m, k, k)")
    pair = sigma.pair
    k = pair.k
    if entries.shape[2] != k or entries.shape[3] != k:
        raise DimensionMismatch(f"point entries must be {k} x {k} blocks")
    family = family_from_levy_hincin(kind, alpha, sigma)
    return eval_series(family.levels, pair, entries, False)
