"""Matrix algebra pairs B = M_k inside D = M_d and small numeric helpers.

Elements of B and D are plain complex numpy arrays. An :class:`AlgebraPair`
carries the unital *-embedding of B into D as a d^2 x k^2 matrix acting on
row-major vectorizations, so ``embed(b) = (embed_matrix @ b.flat).reshape``.
All tensor-valued moment storage in the package keeps coefficient slots as
k^2 axes indexed by matrix units e_ij at flat index i*k+j.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotBValued, NotHermitian, NotSquare, TooLarge

DEFAULT_TOL = 1e-9
# Most bytes one size-checked construction may allocate; it refuses larger requests.
MAX_GENERATE_BYTES = 2**30


def cnorm(m) -> float:
    """Entrywise sup norm; the package's notion of matrix size."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def check_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = check_square(m)
    gap = cnorm(a - adjoint(a))
    if gap > tol * max(1.0, cnorm(a)):
        raise NotHermitian(f"matrix deviates from self-adjoint by {gap:.3e}")
    return a


def min_eigenvalue(m: np.ndarray) -> float:
    a = check_square(m)
    if a.shape[0] == 0:
        return 0.0
    h = (a + adjoint(a)) / 2.0
    return float(np.linalg.eigvalsh(h)[0])


def psd_floor(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Least eigenvalue a Hermitian m may have and still count as PSD.

    The tolerance scales with the data, -tol * max|m|, so a verdict does not
    depend on the units of m: dilating a law by a small factor shrinks its
    Gram matrix, and with it the slack its eigenvalues get.
    """
    return -tol * cnorm(m)


def _graded_scale(levels: dict) -> float:
    """Scale s of a table of levels, lambda s for the law of lambda X: the
    square root of the Frobenius norm of level 2, or 1 where that is 0 or
    not stored.  Where the squares of level 2 pass the float range, the
    norm of level 2 over its largest entry is multiplied back by it."""
    level2 = levels.get(2, np.zeros(1))
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(level2)
    if not np.isfinite(norm):
        norm = cnorm(level2) * np.linalg.norm(level2 / cnorm(level2))
    return float(np.sqrt(norm)) or 1.0


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = require_hermitian(m, tol)
    return min_eigenvalue(a) >= psd_floor(a, tol)


def block_matrix(blocks: np.ndarray) -> np.ndarray:
    """(..., f, g, v, w) array of blocks as the (..., f v, g w) matrices they tile."""
    f, g, v, w = blocks.shape[-4:]
    return blocks.swapaxes(-3, -2).reshape(blocks.shape[:-4] + (f * v, g * w))


def check_pair_size(k: int, d: int) -> None:
    """Refuse (TooLarge), before it is built, a pair whose (d^2, k^2) complex
    embed matrix passes MAX_GENERATE_BYTES."""
    need = 16 * k * k * d * d
    if need > MAX_GENERATE_BYTES:
        raise TooLarge(f"pair k={k}, d={d} needs {need} bytes for its embedding, "
                       f"above {MAX_GENERATE_BYTES}")


def unit_index(i: int, j: int, k: int) -> int:
    return i * k + j


def adjoint_unit(u: int, k: int) -> int:
    i, j = divmod(u, k)
    return j * k + i


def matrix_units(k: int) -> np.ndarray:
    """All k^2 matrix units stacked as a (k^2, k, k) array, row-major order."""
    out = np.zeros((k * k, k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            out[unit_index(i, j, k), i, j] = 1.0
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class AlgebraPair:
    """The inclusion B = M_k(C) into D = M_d(C), with k dividing d.

    ``embed_matrix`` has shape (d*d, k*k) and sends row-major vec(b) to
    row-major vec(embed(b)). Instances are immutable; derived arrays are
    cached on first use.
    """

    k: int
    d: int
    embed_matrix: np.ndarray

    def __post_init__(self):
        em = np.asarray(self.embed_matrix, dtype=np.complex128)
        if em.shape != (self.d * self.d, self.k * self.k):
            raise DimensionMismatch(
                f"embed matrix shape {em.shape}, expected {(self.d * self.d, self.k * self.k)}"
            )
        if self.k < 1 or self.d < 1 or self.d % self.k != 0:
            raise DimensionMismatch(f"need 1 <= k | d, got k={self.k}, d={self.d}")
        object.__setattr__(self, "embed_matrix", em)

    @classmethod
    def identity(cls, k: int) -> "AlgebraPair":
        return cls.block_diagonal(k, k)

    @classmethod
    def block_diagonal(cls, k: int, d: int) -> "AlgebraPair":
        """The standard embedding b -> b (x) 1_{d/k}."""
        if d % k != 0:
            raise DimensionMismatch(f"k={k} must divide d={d}")
        check_pair_size(k, d)
        r = d // k
        em = np.zeros((d * d, k * k), dtype=np.complex128)
        eye = np.eye(r, dtype=np.complex128)
        units = matrix_units(k)
        for u in range(k * k):
            em[:, u] = np.kron(units[u], eye).reshape(-1)
        return cls(k=k, d=d, embed_matrix=em)

    @cached_property
    def units(self) -> np.ndarray:
        """(k^2, k, k) stack of matrix units of B."""
        return matrix_units(self.k)

    @cached_property
    def embedded_units(self) -> np.ndarray:
        """(k^2, d, d) stack of embedded matrix units."""
        return self.embed_matrix.T.reshape(self.k * self.k, self.d, self.d)

    @cached_property
    def _pullback_matrix(self) -> np.ndarray:
        return np.linalg.pinv(self.embed_matrix)

    def embed(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.complex128)
        if b.shape != (self.k, self.k):
            raise DimensionMismatch(f"expected ({self.k},{self.k}) element of B, got {b.shape}")
        return self.embed_tensor(b)

    def embed_tensor(self, t: np.ndarray) -> np.ndarray:
        """Apply the embedding to the trailing (k,k) value axes of a tensor."""
        t = np.asarray(t, dtype=np.complex128)
        if t.shape[-2:] != (self.k, self.k):
            raise DimensionMismatch(f"trailing axes {t.shape[-2:]} are not ({self.k},{self.k})")
        flat = t.reshape(t.shape[:-2] + (self.k * self.k,))
        out = flat @ self.embed_matrix.T
        return out.reshape(t.shape[:-2] + (self.d, self.d))

    def pullback(self, m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        """Invert the embedding; raises NotBValued when m is not embedded-B."""
        m = np.asarray(m, dtype=np.complex128)
        if m.shape != (self.d, self.d):
            raise DimensionMismatch(f"expected ({self.d},{self.d}) element of D, got {m.shape}")
        return self.pullback_tensor(m, tol)

    def pullback_tensor(self, t: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        t = np.asarray(t, dtype=np.complex128)
        if t.shape[-2:] != (self.d, self.d):
            raise DimensionMismatch(f"trailing axes {t.shape[-2:]} are not ({self.d},{self.d})")
        flat = t.reshape(t.shape[:-2] + (self.d * self.d,))
        v = flat @ self._pullback_matrix.T
        back = v @ self.embed_matrix.T
        resid = cnorm(back - flat)
        if resid > tol * max(1.0, cnorm(t)):
            raise NotBValued(f"tensor is {resid:.3e} away from the embedded copy of B")
        return v.reshape(t.shape[:-2] + (self.k, self.k))

    def validate(self, tol: float = 1e-12) -> None:
        """Check the embedding is unital, multiplicative and *-preserving."""
        k, d = self.k, self.d
        eye_b = np.eye(k, dtype=np.complex128)
        if cnorm(self.embed(eye_b) - np.eye(d)) > tol:
            raise DimensionMismatch("embedding is not unital")
        eu = self.embedded_units
        for a in range(k):
            for b in range(k):
                u = unit_index(a, b, k)
                if cnorm(eu[u] - adjoint(eu[adjoint_unit(u, k)])) > tol:
                    raise DimensionMismatch("embedding does not preserve adjoints")
                for c in range(k):
                    for e in range(k):
                        v = unit_index(c, e, k)
                        prod = eu[u] @ eu[v]
                        expect = eu[unit_index(a, e, k)] if b == c else 0.0
                        if cnorm(prod - expect) > tol:
                            raise DimensionMismatch("embedding is not multiplicative")

    def same_pair(self, other: "AlgebraPair") -> bool:
        return (
            self.k == other.k
            and self.d == other.d
            and cnorm(self.embed_matrix - other.embed_matrix) <= 1e-12
        )
