"""Truncated B-bimodule moment functionals on B<X> and their generation.

A MomentFunctional stores, for each 1 <= n <= N, the values
mu(X u_1 X u_2 ... u_{n-1} X) on all (n-1)-tuples of matrix units of B as a
tensor of shape (k^2,)*(n-1) + (d,d). Everything else follows from
B-bimodularity: a word b_0 X b_1 ... X b_n evaluates as
embed(b_0) . contract(level_n, b_1..b_{n-1}) . embed(b_n).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .algebra import DEFAULT_TOL, MAX_GENERATE_BYTES, AlgebraPair, adjoint, cnorm
from .errors import (DimensionMismatch, NCIDError, NotHermitian, SeedExhausted, TooLarge,
                     TruncationExceeded)

# Largest truncation whose einsum calls fit numpy's 64 subscripts (N + 2 at truncation N).
MAX_GENERATE_TRUNCATION = 62
MAX_GENERATE_WORK = 2**32  # operations of generate_realizable, about 5 ns each


def contract_units(tensor: np.ndarray, coeffs) -> np.ndarray:
    """Contract leading k^2 axes of a stored tensor with B-coefficients."""
    out = tensor
    for b in coeffs:
        out = np.tensordot(np.asarray(b, dtype=np.complex128).reshape(-1), out, axes=([0], [0]))
    return out


def seeded_rng(seed) -> np.random.Generator:
    """The random generator of a seed; NCIDError unless the seed is a
    non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise NCIDError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def level_shape(k: int, d: int, n: int) -> tuple:
    return (k * k,) * (n - 1) + (d, d)


def _checked_levels(what: str, levels: dict, ns, shape_of) -> dict:
    """levels[n] for each n in ns as a complex array of shape shape_of(n);
    DimensionMismatch for a missing level or a wrong shape."""
    out = {}
    for n in ns:
        if n not in levels:
            raise DimensionMismatch(f"missing {what} level {n}")
        t = np.asarray(levels[n], dtype=np.complex128)
        want = shape_of(n)
        if t.shape != want:
            raise DimensionMismatch(f"{what} level {n} has shape {t.shape}, expected {want}")
        out[n] = t
    return out


def _checked_table(what: str, table) -> dict:
    """The levels 1..truncation of a moment or cumulant table as
    _checked_levels checks them; DimensionMismatch for a truncation below 1."""
    if table.truncation < 1:
        raise DimensionMismatch("truncation must be >= 1")
    k, d = table.pair.k, table.pair.d
    return _checked_levels(what, table.levels, range(1, table.truncation + 1),
                           lambda n: level_shape(k, d, n))


@dataclasses.dataclass(frozen=True, eq=False)
class PolynomialWord:
    """The monomial b_0 X b_1 X ... X b_n; degree = number of X letters."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "coefficients",
            tuple(np.asarray(c, dtype=np.complex128) for c in self.coefficients),
        )
        if len(self.coefficients) < 1:
            raise DimensionMismatch("a word needs at least the degree-0 coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclasses.dataclass(frozen=True, eq=False)
class MomentFunctional:
    """Element of the truncated moment space over an AlgebraPair.

    Parameters
    ----------
    pair : AlgebraPair
        The inclusion B in D.
    truncation : int
        Highest stored degree N.
    levels : dict
        levels[n] has shape (k^2,)*(n-1) + (d,d) for n = 1..N and holds the
        values on matrix-unit tuples of the words X u_1 X ... u_{n-1} X.
    """

    pair: AlgebraPair
    truncation: int
    levels: dict

    def __post_init__(self):
        object.__setattr__(self, "levels", _checked_table("moment", self))

    def raw(self, n: int) -> np.ndarray:
        if n < 1 or n > self.truncation:
            raise TruncationExceeded(f"level {n} outside stored range 1..{self.truncation}")
        return self.levels[n]

    def eval_word(self, coeffs) -> np.ndarray:
        """mu(X c_1 X c_2 ... X c_n) for B-coefficients c_i, value in D."""
        n = len(coeffs)
        if n == 0:
            return np.eye(self.pair.d, dtype=np.complex128)
        core = contract_units(self.raw(n), coeffs[: n - 1])
        return core @ self.pair.embed(coeffs[n - 1])

    def star_residual(self) -> float:
        """Deviation from *-compatibility across all stored levels."""
        gaps = (_star_gap(self.raw(n), self.pair.k) for n in range(1, self.truncation + 1))
        return max(gaps, default=0.0)

    def check_star(self) -> None:
        """Raise NotHermitian when some level n's *-residual is above
        DEFAULT_TOL * s^n, one level at a time.  s = max_n max|level n|^(1/n)
        is the law's own scale, so a level that is zero in exact arithmetic
        and holds only rounding noise passes; a threshold past the float
        range is +inf."""
        levels = range(1, self.truncation + 1)
        s = max((cnorm(self.raw(n)) ** (1.0 / n) for n in levels), default=0.0)
        for n in levels:
            gap = _star_gap(self.raw(n), self.pair.k)
            with np.errstate(over="ignore"):
                floor = DEFAULT_TOL * np.float64(s) ** n
            if gap > floor:
                raise NotHermitian(f"moment level {n} is {gap:.3e} away from *-compatibility")


def _star_gap(t: np.ndarray, k: int) -> float:
    """Largest entry of t - t^* for one level t.  t^* holds the values on the
    adjoint words, mu(X u_1 ... u_s X)^* = mu(X u_s^* ... u_1^* X): reversing
    the slots and transposing each unit reverses the 2s row and column axes.
    They are compared one entry of the first unit (two axes) at a time: with
    level-sized temporaries, a (2,2,8) law's load raised the peak RSS of the
    `ncid certify` that read it from 61.5 to 69.5 MB."""
    axes = 2 * (t.ndim - 2)
    rows = t.reshape((k,) * axes + t.shape[-2:])
    adj = rows.transpose(tuple(reversed(range(axes))) + (axes + 1, axes))
    return max(cnorm(rows[i] - np.conj(adj[i])) for i in np.ndindex(rows.shape[:2]))


def _truncated(mu: MomentFunctional, n: int) -> MomentFunctional:
    """mu cut to its first n levels, sharing their arrays."""
    return MomentFunctional(mu.pair, n, {j: mu.levels[j] for j in range(1, n + 1)})


def moment(mu: MomentFunctional, w: PolynomialWord) -> np.ndarray:
    """Evaluate mu on a bordered word b_0 X b_1 ... X b_n."""
    cs = w.coefficients
    n = w.degree
    if n > mu.truncation:
        raise TruncationExceeded(f"word degree {n} exceeds truncation {mu.truncation}")
    left = mu.pair.embed(cs[0])
    if n == 0:
        return left
    return left @ mu.eval_word(list(cs[1:]))


def eval_linear(mu: MomentFunctional, terms) -> np.ndarray:
    """Evaluate a formal sum of (complex scalar, PolynomialWord) pairs."""
    out = np.zeros((mu.pair.d, mu.pair.d), dtype=np.complex128)
    for scale, w in terms:
        out = out + complex(scale) * moment(mu, w)
    return out


def scalar_from_moments(ms) -> MomentFunctional:
    """Wrap a scalar moment sequence m_1..m_N (k = d = 1)."""
    pair = AlgebraPair.identity(1)
    levels = {}
    for n, m in enumerate(ms, start=1):
        levels[n] = np.full((1,) * (n - 1) + (1, 1), complex(m), dtype=np.complex128)
    return MomentFunctional(pair=pair, truncation=len(tuple(ms)), levels=levels)


def _representation_frame(pair: AlgebraPair, m: int, rng: np.random.Generator):
    """Isometry V with (b (x) 1_{m/k}) V = V embed(b), via a basis adapted
    to the embedding."""
    k, d = pair.k, pair.d
    r = d // k
    p11 = pair.embedded_units[0]
    # Orthonormal basis of range(embed(e11)), a rank d/k projection.
    vals, vecs = np.linalg.eigh((p11 + adjoint(p11)) / 2.0)
    base = vecs[:, vals > 0.5]
    if base.shape[1] != r:
        raise DimensionMismatch("embedding projection rank mismatch")
    u = np.zeros((d, d), dtype=np.complex128)
    for i in range(k):
        u[:, i * r : (i + 1) * r] = pair.embedded_units[i * k] @ base  # embed(e_i1)
    g = rng.standard_normal((m // k, r)) + 1j * rng.standard_normal((m // k, r))
    w, _ = np.linalg.qr(g)
    v = np.kron(np.eye(k, dtype=np.complex128), w) @ adjoint(u)
    return v


def generate_realizable(seed: int, pair: AlgebraPair, truncation: int, ambient: int) -> MomentFunctional:
    """Seeded GNS-style construction: moments of a random selfadjoint matrix
    compressed by an isometry intertwining B's action.

    The result satisfies the block-positivity condition by construction and
    is *-compatible up to rounding. Raises SeedExhausted when no unital
    B-representation of the requested ambient size exists.
    """
    k, d = pair.k, pair.d
    if ambient < d or ambient % k != 0:
        raise SeedExhausted(
            f"no unital representation of M_{k} on C^{ambient} compatible with d={d}"
        )
    if truncation > MAX_GENERATE_TRUNCATION:
        raise TooLarge(f"truncation {truncation} is above {MAX_GENERATE_TRUNCATION}, the einsum limit")
    # Levels, the largest chain, the ambient operators; the work is the
    # spectral norm's SVD, then each level's projection and chain product.
    k2, top = k * k, max(truncation, 1)
    words = sum(k2**n for n in range(top))
    need = 16 * (d * d * words + ambient * d * k2 ** (top - 1) + 2 * k2 * ambient * ambient)
    work = ambient**3 + ambient * d * (d + k2 * ambient) * words
    if need > MAX_GENERATE_BYTES or work > MAX_GENERATE_WORK:
        raise TooLarge(f"truncation {truncation}, k={k}, d={d}, ambient={ambient}: {need} bytes, "
                       f"{work} operations (at most {MAX_GENERATE_BYTES}, {MAX_GENERATE_WORK})")
    rng = seeded_rng(seed)
    g = rng.standard_normal((ambient, ambient)) + 1j * rng.standard_normal((ambient, ambient))
    a = (g + adjoint(g)) / 2.0
    a = a / max(1.0, float(np.linalg.norm(a, 2)))
    v = _representation_frame(pair, ambient, rng)

    mult = ambient // k
    reps = np.stack([np.kron(pair.units[u], np.eye(mult, dtype=np.complex128)) for u in range(k * k)])
    ap_u = np.einsum("mn,unp->ump", a, reps)

    levels = {}
    chain = a @ v  # (ambient, d); grows one unit axis per extra letter
    for n in range(1, truncation + 1):
        levels[n] = np.einsum("mc,...md->...cd", np.conj(v), chain)
        if n < truncation:
            chain = np.einsum("ump,...pd->u...md", ap_u, chain)
    return MomentFunctional(pair=pair, truncation=truncation, levels=levels)
