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

from .algebra import DEFAULT_TOL, AlgebraPair, adjoint_unit, block_matrix, psd_floor
from .cumulants import (
    CumulantFamily,
    boolean_from_moments,
    cfree_from_moments,
    free_from_moments,
    functional_of,
)
from .distribution import MAX_GENERATE_BYTES, MomentFunctional
from .errors import (
    CertificateFailed,
    DimensionMismatch,
    NCIDError,
    TooLarge,
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


def word_family(k: int, lengths) -> list:
    """Words (u0, ..., u_{j-1}) of matrix-unit indices, for each length j in
    lengths in turn and lexicographic within a length.

    A word labels the monomial u0 X u1 ... u_{j-1} X of a Gram family; a
    sigma form reads the same letters as its coefficients c0, ..., c_{j-1}.
    """
    return [w for j in lengths for w in product(range(k * k), repeat=j)]


def word_pairing(levels: dict, left: tuple, right: tuple, k: int, shift: int = 0):
    """Value of (word left)^* (word right), or None where it vanishes.

    The adjoint of left meets right in the middle at u0^* v0 of their first
    letters, which is the unit e_{b0 b1} when both letters share the row a
    and zero otherwise.  The product is the stored word with the reversed
    adjoint tail of left, that middle unit, and the tail of right as its
    slots, read from level len(left) + len(right) - shift: shift 0 for
    moments, 2 for sigma forms.  A missing level raises TruncationExceeded.
    """
    a0, b0 = divmod(left[0], k)
    a1, b1 = divmod(right[0], k)
    if a0 != a1:
        return None
    n = len(left) + len(right) - shift
    if n not in levels:
        raise TruncationExceeded(f"pairing needs level {n}, stored up to {max(levels)}")
    idx = tuple(adjoint_unit(u, k) for u in reversed(left[1:])) + (b0 * k + b1,) + right[1:]
    return levels[n][idx]


def check_gram_size(nf: int, v: int, copies: int = 4) -> None:
    """Refuse, before anything is built, a Gram of nf x nf (v, v) blocks
    whose arrays held at once pass MAX_GENERATE_BYTES (TooLarge).

    Each array has (nf v)^2 complex entries.  A Hermitian Gram holds four:
    the blocks, the tiled matrix, then its adjoint and their sum, or the sum
    and its half.
    """
    need = copies * 16 * (nf * v) ** 2
    if need > MAX_GENERATE_BYTES:
        raise TooLarge(f"Gram of {nf} words with {v} x {v} blocks needs {need} bytes, "
                       f"above {MAX_GENERATE_BYTES}")


def hermitian_gram(blocks: np.ndarray) -> np.ndarray:
    """Hermitian part of the Gram matrix tiled by (f, f, v, v) pairing blocks."""
    mat = block_matrix(blocks)
    return 0.5 * (mat + mat.conj().T)


def _word_blocks(levels: dict, words: list, k: int, v: int, shift: int, lead: int = 0):
    """Pairing blocks of the words, after lead rows and columns left zero."""
    nf = lead + len(words)
    blocks = np.zeros((nf, nf, v, v), dtype=complex)
    for i, wi in enumerate(words, lead):
        for j, wj in enumerate(words, lead):
            val = word_pairing(levels, wi, wj, k, shift)
            if val is not None:
                blocks[i, j] = val
    return blocks


def gram(phi: MomentFunctional, degree: int, no_free_term: bool = True):
    """Block Gram matrix [phi(m_a^* m_b)] over the monomial family.

    Returns (matrix, family) where family lists the monomial labels: tuples
    of unit indices (u0, ..., u_{j-1}) for u0 X u1 ... u_{j-1} X, preceded by
    the bare units of B when the free term is included.
    """
    k = phi.pair.k
    if 2 * degree > phi.truncation:
        raise TruncationExceeded(
            f"gram degree {degree} needs moments to order {2 * degree}, "
            f"stored {phi.truncation}"
        )
    if degree < 1:
        raise NCIDError("gram degree must be >= 1")
    consts = [] if no_free_term else list(range(k * k))
    check_gram_size(len(consts) + sum((k * k) ** j for j in range(1, degree + 1)), phi.pair.d)
    words = word_family(k, range(1, degree + 1))
    stored = {n: phi.raw(n) for n in range(1, 2 * degree + 1)}
    blocks = _word_blocks(stored, words, k, phi.pair.d, 0, len(consts))
    eunits = phi.pair.embedded_units
    for i, u in enumerate(consts):
        a0, b0 = divmod(u, k)
        for j, v in enumerate(consts):
            a1, b1 = divmod(v, k)
            if a0 == a1:
                blocks[i, j] = eunits[b0 * k + b1]
        for j, w in enumerate(words, len(consts)):
            a1, b1 = divmod(w[0], k)
            if a0 == a1:
                # phi(u^* w), and phi(w^* u) = phi(u^* w)^* by *-compatibility
                val = eunits[b0 * k + b1] @ stored[len(w)][w[1:]]
                blocks[i, j] = val
                blocks[j, i] = val.conj().T
    return hermitian_gram(blocks), consts + words


def sigma_gram(sigma: SigmaForm, degree: int):
    """Gram matrix of a sigma form over bordered words of degree <= degree."""
    if 2 * degree > sigma.truncation:
        raise TruncationExceeded(
            f"sigma gram degree {degree} needs levels to {2 * degree}, "
            f"stored {sigma.truncation}"
        )
    k = sigma.pair.k
    check_gram_size(sum((k * k) ** j for j in range(1, degree + 2)), sigma.value_dim)
    words = word_family(k, range(1, degree + 2))
    blocks = _word_blocks(sigma.levels, words, k, sigma.value_dim, 2)
    return hermitian_gram(blocks), words


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
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    passed = min_eig >= psd_floor(mat, tol)
    witness = None
    if not passed:
        vec = np.linalg.eigh(mat)[1][:, 0]  # the eigenvectors only for the witness
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

    point carries nilpotent entries of shape (m, m, k, k), acyclic support;
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
