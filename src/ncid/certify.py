"""Divisibility certificates, sigma-forms, and transform extraction.

A distribution is infinitely divisible for a given independence exactly when
an associated bilinear form is positive semidefinite on polynomials without
free term.  The certifier materializes that form as a finite Gram matrix on
monomials up to a degree, checks the minimal eigenvalue of that matrix graded
by word length, and on failure emits the offending coefficient vector
together with its quadratic form value.  That judge is the package's one
positivity verdict: certify_levy_hincin applies it to Levy-Hincin data, and
the Fock model builders refuse exactly the data whose certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraPair, _graded_scale, adjoint_unit, psd_floor
from .cumulants import CumulantFamily, families, functional_of, value_dim, values_in
from .distribution import MAX_GENERATE_BYTES, MomentFunctional, _checked_levels
from .errors import CertificateFailed, DimensionMismatch, NCIDError, TooLarge, TruncationExceeded
from .ncfunctions import _point_entries, eval_series


def sigma_level_shape(pair: AlgebraPair, where: str, truncation: int):
    """Shape of a sigma form's level m, (k^2,)*(m+1) + (v, v) with v rows in
    where; DimensionMismatch for a truncation below 0."""
    v, k2 = value_dim(pair, where), pair.k * pair.k
    if truncation < 0:
        raise DimensionMismatch("sigma truncation must be >= 0")
    return lambda m: (k2,) * (m + 1) + (v, v)


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
        shape = sigma_level_shape(self.pair, self.values_in, self.truncation)
        lv = _checked_levels("sigma", self.levels, range(self.truncation + 1), shape)
        object.__setattr__(self, "levels", lv)

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


def word_pairing(levels: dict, left: tuple, right: tuple, k: int):
    """Value of (word left)^* (word right), or None where it vanishes.

    The adjoint of left meets right in the middle at u0^* v0 of their first
    letters, which is the unit e_{b0 b1} when both letters share the row a
    and zero otherwise.  The product is the stored word with the reversed
    adjoint tail of left, that middle unit, and the tail of right as its
    slots, read from level len(left) + len(right) of a table of n-letter
    words at level n: moments, or a Fock side's cumulant table with sigma
    shifted up by 2.  A missing level raises TruncationExceeded.
    """
    a0, b0 = divmod(left[0], k)
    a1, b1 = divmod(right[0], k)
    if a0 != a1:
        return None
    n = len(left) + len(right)
    if n not in levels:
        raise TruncationExceeded(f"pairing needs level {n}, stored up to {max(levels)}")
    idx = tuple(adjoint_unit(u, k) for u in reversed(left[1:])) + (b0 * k + b1,) + right[1:]
    return levels[n][idx]


def check_gram_size(nf: int, v: int, copies: int = 3) -> None:
    """Refuse, before anything is built, a Gram of nf x nf (v, v) blocks
    whose arrays held at once pass MAX_GENERATE_BYTES (TooLarge).

    Each array has (nf v)^2 complex entries.  A Hermitian Gram holds three at
    most: the matrix, built in place, and either the adjoint that
    hermitian_gram adds to it or, once judged, the eigensolver's copy of it
    and the eigenvectors of a witness.
    """
    need = copies * 16 * (nf * v) ** 2
    if need > MAX_GENERATE_BYTES:
        raise TooLarge(f"Gram of {nf} words with {v} x {v} blocks needs {need} bytes, "
                       f"above {MAX_GENERATE_BYTES}")


def gram_arrays(nf: int, v: int):
    """(matrix, blocks): a zero (nf v, nf v) Gram matrix and its (nf, nf, v, v)
    view, block [i, j] pairing rows i and j; writing a block fills the
    matrix."""
    mat = np.zeros((nf * v, nf * v), dtype=complex)
    return mat, mat.reshape(nf, v, nf, v).swapaxes(1, 2)


def hermitian_gram(mat: np.ndarray) -> np.ndarray:
    """mat made its own Hermitian part, (mat + mat^*) / 2, in place."""
    mat += mat.conj().T
    mat *= 0.5
    return mat


def _word_blocks(blocks: np.ndarray, levels: dict, words: list, rows, k: int):
    """Write word_pairing of words i and j in the table levels into
    blocks[rows[i], rows[j]]; blocks where it vanishes are left as they are."""
    for i, wi in zip(rows, words):
        for j, wj in zip(rows, words):
            val = word_pairing(levels, wi, wj, k)
            if val is not None:
                blocks[i, j] = val


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
    nf = len(consts) + sum((k * k) ** j for j in range(1, degree + 1))
    check_gram_size(nf, phi.pair.d)
    words = word_family(k, range(1, degree + 1))
    stored = {n: phi.raw(n) for n in range(1, 2 * degree + 1)}
    mat, blocks = gram_arrays(nf, phi.pair.d)
    _word_blocks(blocks, stored, words, range(len(consts), nf), k)
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
    return hermitian_gram(mat), consts + words


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


def _judge(kind, degree, phi: MomentFunctional, no_free_term: bool, tol) -> Certificate:
    """Certificate of the Gram G of phi, judged on the graded S G S.

    S = diag(s^-len(word)), bare units having length 0, with s phi's
    _graded_scale: the square root of the Frobenius norm of level 2.
    Entries pairing words of lengths j and l scale as lambda^(j+l) under
    the dilation X -> lambda X, and s as lambda, so S G S and its floor do
    not move with lambda.  Unitary conjugation in B leaves the Frobenius
    norm, and so S G S's spectrum, as it is; the entrywise max would move.
    By Sylvester's law of inertia the exact verdict is that of G.  The
    witness is mapped back through S, so its quadratic_form is the value of
    G's own form at its coeffs.  The nc-function checks draw their points
    at the same s.
    """
    mat, family = gram(phi, degree, no_free_term)
    s = _graded_scale(phi.levels)
    lengths = np.array([len(w) if isinstance(w, tuple) else 0 for w in family], dtype=float)
    grade = np.repeat(s**-lengths, mat.shape[0] // len(family))
    mat *= grade[:, None]
    mat *= grade
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    passed = min_eig >= psd_floor(mat, tol)
    witness = None
    if not passed:
        vec = np.linalg.eigh(mat)[1][:, 0]  # the eigenvectors only for the witness
        form = float(np.real(vec.conj() @ mat @ vec))
        witness = {"coeffs": [complex(c) for c in grade * vec], "quadratic_form": form}
    return Certificate(
        kind=kind,
        degree=degree,
        min_eig=min_eig,
        tol=tol,
        passed=passed,
        witness=witness,
    )


# Kinds certified by positivity of the law itself on the full domain.  Every
# boolean law has Levy-Hincin data, so extraction gates only the other kinds.
_POSITIVITY = ("boolean", "condition1")


def _certify_families(kind, fams, degree, tol) -> Certificate:
    """The certificate of the cumulant Grams: the one with the least min_eig."""
    certs = [_judge(kind, degree, functional_of(f.kind, f), True, tol) for f in fams]
    return min(certs, key=lambda cert: cert.min_eig)


def _check_tol(tol) -> None:
    """Refuse a tolerance that is not finite and >= 0: a negative one moves
    the PSD floor above zero, and a non-finite one has no JSON form."""
    if not 0.0 <= tol < float("inf"):
        raise NCIDError(f"tolerance must be finite and >= 0, got {tol!r}")


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
    _check_tol(tol)
    if kind in _POSITIVITY:
        return _judge(kind, degree, data, False, tol)
    return _certify_families(kind, families(kind, data), degree, tol)


def _levy_hincin_table(alpha, sigma: SigmaForm) -> dict:
    """The Levy-Hincin shift: data (alpha, sigma) as one table of n-letter
    words, alpha at level 1 and sigma level m at m + 2, values as stored."""
    return {1: alpha, **{m + 2: lev for m, lev in sigma.levels.items()}}


def family_from_levy_hincin(kind, alpha, sigma) -> CumulantFamily:
    """The cumulant family of the divisible law with data (alpha, sigma):
    _levy_hincin_table with B values embedded and D values shared.  Free
    data needs a B-valued sigma (DimensionMismatch)."""
    where = values_in(kind)
    if where == "B" and sigma.values_in != "B":
        raise DimensionMismatch(f"{kind} Levy-Hincin data needs a B-valued sigma form")
    pair = sigma.pair
    table = _levy_hincin_table(np.asarray(alpha, dtype=complex), sigma)
    if sigma.values_in == "B":  # alpha is in B exactly for a B-valued kind
        table = {n: t if n == 1 and where == "D" else pair.embed_tensor(t)
                 for n, t in table.items()}
    return CumulantFamily(kind=kind, pair=pair, truncation=sigma.truncation + 2, levels=table)


def certify_levy_hincin(kind: str, alpha, sigma: SigmaForm) -> Certificate:
    """Certificate of the divisible law with data (alpha, sigma), judged as
    levy_hincin_extract judges its cumulant family: the positivity of sigma
    on bordered words, at degree truncation // 2 of the family."""
    fam = family_from_levy_hincin(kind, alpha, sigma)
    return _certify_families(kind, [fam], fam.truncation // 2, DEFAULT_TOL)


def levy_hincin_extract(kind: str, data, tol: float = DEFAULT_TOL):
    """Extract the transform data (alpha, sigma) of a divisible distribution.

    boolean laws always admit the representation.  For free and c-free input
    the certificate at the maximal checkable degree must pass first; on
    failure a CertificateFailed carrying the certificate (and its witness)
    is raised instead of returning garbage data.  Each cumulant family is
    computed once and serves both the certificate and the data.
    """
    _check_tol(tol)
    fams = families(kind, data)
    fam = fams[-1]
    if fam.truncation < 2:
        raise TruncationExceeded("need moments to degree 2 to extract")
    if kind not in _POSITIVITY:
        degree = fam.truncation // 2
        cert = _certify_families(kind, fams, degree, tol)
        if not cert.passed:
            raise CertificateFailed(
                f"{kind} divisibility fails at degree {degree}: "
                f"min eigenvalue {cert.min_eig:.3e}",
                certificate=cert,
            )
    where = values_in(kind)
    alpha = fam.pair.pullback(fam.levels[1]) if where == "B" else fam.levels[1]
    return alpha, SigmaForm.from_bordered(functional_of(kind, fam), where)


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
    entries = _point_entries(point, sigma.pair.k)
    family = family_from_levy_hincin(kind, alpha, sigma)
    return eval_series(family.levels, sigma.pair, entries, False)
