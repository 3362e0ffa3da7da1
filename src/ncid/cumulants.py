"""Boolean, free, and c-free moment-cumulant transforms.

All three recursions are solved level by level on the matrix-unit basis.
The stored convention matches MomentFunctional: level n is the value at
(u_1, ..., u_{n-1}) with trailing argument 1, and the trailing argument of
an evaluation multiplies from the right.

Pivot-set bookkeeping: a term of the free recursion is indexed by the
positions of the block containing letter 1 (the c-free recursion uses the
block containing letter n, with a moment prefix on the left). Gaps between
consecutive pivots are filled with lower nu-moments folded into the
cumulant arguments by bimodularity.
"""

from __future__ import annotations

import dataclasses
import itertools
import string
from functools import lru_cache

import numpy as np

from .algebra import AlgebraPair
from .distribution import MomentFunctional, contract_units, level_shape
from .errors import DimensionMismatch, NCIDError, PairMismatch, TooLarge, TruncationExceeded

_KINDS = ("boolean", "free", "cfree")

# einsum subscripts of the free and c-free terms: a, b, c label value axes and
# these the slots.  Level n needs 2n - 3 of them, which caps the truncation.
_SLOT_LETTERS = string.ascii_lowercase[3:] + string.ascii_uppercase
_MAX_LEVEL = (len(_SLOT_LETTERS) + 3) // 2


@dataclasses.dataclass(frozen=True, eq=False)
class CumulantFamily:
    """Multilinear cumulant data with the same tensor layout as moments.

    kind is one of boolean/free/cfree. Free families have all values inside
    the embedded copy of B.
    """

    kind: str
    pair: AlgebraPair
    truncation: int
    levels: dict

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise NCIDError(f"unknown cumulant kind {self.kind!r}")
        k, d = self.pair.k, self.pair.d
        lv = {}
        for n in range(1, self.truncation + 1):
            t = np.asarray(self.levels[n], dtype=np.complex128)
            want = level_shape(k, d, n)
            if t.shape != want:
                raise DimensionMismatch(f"cumulant level {n} shape {t.shape}, expected {want}")
            lv[n] = t
        object.__setattr__(self, "levels", lv)

    def evaluate(self, args) -> np.ndarray:
        """Cumulant of degree len(args) at B-elements, value in D."""
        n = len(args)
        if not 1 <= n <= self.truncation:
            raise TruncationExceeded(
                f"cumulant of degree {n} outside stored range 1..{self.truncation}"
            )
        core = contract_units(self.levels[n], args[: n - 1])
        return core @ self.pair.embed(args[n - 1])

    def scaled(self, factor: complex) -> "CumulantFamily":
        return CumulantFamily(
            kind=self.kind,
            pair=self.pair,
            truncation=self.truncation,
            levels={n: factor * t for n, t in self.levels.items()},
        )


def functional_of(kind: str, fam: CumulantFamily) -> MomentFunctional:
    """Repackage a cumulant family as a linear functional on B<X>.

    The storage conventions coincide, so the functional's word evaluation
    rho(X b_1 ... X b_n) returns the degree-n cumulant at (b_1, ..., b_n).
    """
    if kind != fam.kind:
        raise NCIDError(f"family has kind {fam.kind!r}, requested {kind!r}")
    return MomentFunctional(pair=fam.pair, truncation=fam.truncation, levels=fam.levels)


@lru_cache(maxsize=None)
def _free_pivots(n: int) -> tuple:
    """Pivot tuples (1, ...) over {1..n} excluding the full set."""
    out = []
    for r in range(0, n - 1):
        for rest in itertools.combinations(range(2, n + 1), r):
            out.append((1,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _cfree_pivots(n: int) -> tuple:
    """Pivot tuples (..., n) over {1..n} excluding the full set."""
    out = []
    for r in range(0, n - 1):
        for rest in itertools.combinations(range(1, n), r):
            out.append(tuple(rest) + (n,))
    return tuple(out)


def _gap_block(nu_levels, units, start, end):
    """Tensor of u_start * nu(X u_{start+1} ... X u_{end-1}) over positions
    start..end-1, value axes (k,k) last."""
    g = end - start - 1
    if g == 0:
        return units
    gt = np.einsum("...ab,vbc->...vac", nu_levels[g], units)
    return np.einsum("uab,...bc->u...ac", units, gt)


def _tail_block(nu_levels, units, start, n):
    """u_start * nu(X u_{start+1} ... u_{n-1} X), positions start..n-1."""
    g = n - start
    return np.einsum("uab,...bc->u...ac", units, nu_levels[g])


def _free_term(n, pivots, kappa_levels, nu_levels, units, k):
    """One pivot-set term of the free recursion, on stored basis tuples."""
    p = len(pivots)
    pool = iter(_SLOT_LETTERS)
    pos = {i: next(pool) for i in range(1, n)}
    slots = [next(pool) for _ in range(p - 1)]
    operands = []
    subs = []

    ksub = "".join(slots) + "ab"
    operands.append(kappa_levels[p])
    subs.append(ksub)

    for s in range(p - 1):
        start, end = pivots[s], pivots[s + 1]
        beta = _gap_block(nu_levels, units, start, end)
        flat = beta.reshape(beta.shape[:-2] + (k * k,))
        operands.append(flat)
        subs.append("".join(pos[q] for q in range(start, end)) + slots[s])

    last = pivots[-1]
    if last < n:
        tail = _tail_block(nu_levels, units, last, n)
        operands.append(tail)
        subs.append("".join(pos[q] for q in range(last, n)) + "bc")
        out_val = "ac"
    else:
        out_val = "ab"

    out = "".join(pos[q] for q in range(1, n)) + out_val
    return np.einsum(",".join(subs) + "->" + out, *operands)


def _free_level_sum(n, kappa_levels, nu_levels, units, k):
    """Sum of all proper pivot-set terms at level n of the free recursion."""
    total = np.zeros((k * k,) * (n - 1) + (k, k), dtype=np.complex128)
    for pivots in _free_pivots(n):
        total = total + _free_term(n, pivots, kappa_levels, nu_levels, units, k)
    return total


def _cfree_term(n, pivots, ck_levels, m_levels, nu_levels, units, eunits, k, d):
    """One pivot-set term of the c-free recursion (moment prefix on the left)."""
    p = len(pivots)
    j1 = pivots[0]
    pool = iter(_SLOT_LETTERS)
    pos = {i: next(pool) for i in range(1, n)}
    slots = [next(pool) for _ in range(p - 1)]
    operands = []
    subs = []

    if j1 > 1:
        lf = np.einsum("...ab,ubc->...uac", m_levels[j1 - 1], eunits)
        operands.append(lf)
        subs.append("".join(pos[q] for q in range(1, j1)) + "ab")
        kval = "bc"
        out_val = "ac"
    else:
        kval = "ab"
        out_val = "ab"

    operands.append(ck_levels[p])
    subs.append("".join(slots) + kval)

    for s in range(p - 1):
        start, end = pivots[s], pivots[s + 1]
        beta = _gap_block(nu_levels, units, start, end)
        flat = beta.reshape(beta.shape[:-2] + (k * k,))
        operands.append(flat)
        subs.append("".join(pos[q] for q in range(start, end)) + slots[s])

    out = "".join(pos[q] for q in range(1, n)) + out_val
    return np.einsum(",".join(subs) + "->" + out, *operands)


def _cfree_level_sum(n, ck_levels, m_levels, nu_levels, units, eunits, k, d):
    total = np.zeros((k * k,) * (n - 1) + (d, d), dtype=np.complex128)
    for pivots in _cfree_pivots(n):
        total = total + _cfree_term(
            n, pivots, ck_levels, m_levels, nu_levels, units, eunits, k, d
        )
    return total


def _bordered(levels_j, eunits):
    """A boolean level B_j with its last slot's unit embedded: the
    (u_1..u_j, a) rows of one matmul per split."""
    return np.einsum("...ab,ubc->...uac", levels_j, eunits).reshape(-1, eunits.shape[-1])


def _boolean_cross_terms(n, bordered, m_levels, k, d):
    """Sum over split positions j of B_j(u_1..u_j) mu(X u_{j+1} ... X).

    bordered[j] holds _bordered(B_j), made once per level.  Split j is one
    matmul with rows (u_1..u_j, a) and columns (u_{j+1}..u_{n-1}, c), added
    in place to the (heads, tails, a, c) view.
    """
    k2 = k * k
    total = np.zeros((k2,) * (n - 1) + (d, d), dtype=np.complex128)
    for j in range(1, n):
        heads, tails = k2**j, k2 ** (n - 1 - j)
        rest = m_levels[n - j].reshape(tails, d, d).transpose(1, 0, 2).reshape(d, tails * d)
        term = (bordered[j] @ rest).reshape(heads, d, tails, d)
        view = total.reshape(heads, tails, d, d)
        view += term.transpose(0, 2, 1, 3)
    return total


def boolean_from_moments(mu: MomentFunctional) -> CumulantFamily:
    """Solve the left-factoring boolean recurrence for B_{n,mu}."""
    k, d = mu.pair.k, mu.pair.d
    eunits = mu.pair.embedded_units
    b = {1: mu.raw(1).copy()}
    bordered = {}
    for n in range(2, mu.truncation + 1):
        bordered[n - 1] = _bordered(b[n - 1], eunits)
        b[n] = mu.raw(n) - _boolean_cross_terms(n, bordered, mu.levels, k, d)
    return CumulantFamily(kind="boolean", pair=mu.pair, truncation=mu.truncation, levels=b)


def moments_from_boolean(fam: CumulantFamily) -> MomentFunctional:
    if fam.kind != "boolean":
        raise NCIDError(f"expected a boolean family, got {fam.kind!r}")
    k, d = fam.pair.k, fam.pair.d
    eunits = fam.pair.embedded_units
    m = {1: fam.levels[1].copy()}
    bordered = {}
    for n in range(2, fam.truncation + 1):
        bordered[n - 1] = _bordered(fam.levels[n - 1], eunits)
        m[n] = fam.levels[n] + _boolean_cross_terms(n, bordered, m, k, d)
    return MomentFunctional(pair=fam.pair, truncation=fam.truncation, levels=m)


def _check_recursion_level(truncation: int) -> None:
    if truncation > _MAX_LEVEL:
        raise TooLarge(
            f"free and c-free recursions stop at truncation {_MAX_LEVEL}, "
            f"got {truncation}"
        )


def _pullback_levels(nu: MomentFunctional) -> dict:
    return {n: nu.pair.pullback_tensor(nu.raw(n)) for n in range(1, nu.truncation + 1)}


def free_from_moments(nu: MomentFunctional) -> CumulantFamily:
    """Free cumulants of a B-valued functional, computed inside B."""
    _check_recursion_level(nu.truncation)
    pair = nu.pair
    k = pair.k
    units = pair.units
    nub = _pullback_levels(nu)
    kb = {1: nub[1].copy()}
    for n in range(2, nu.truncation + 1):
        kb[n] = nub[n] - _free_level_sum(n, kb, nub, units, k)
    levels = {n: pair.embed_tensor(t) for n, t in kb.items()}
    return CumulantFamily(kind="free", pair=pair, truncation=nu.truncation, levels=levels)


def moments_from_free(fam: CumulantFamily) -> MomentFunctional:
    if fam.kind != "free":
        raise NCIDError(f"expected a free family, got {fam.kind!r}")
    _check_recursion_level(fam.truncation)
    pair = fam.pair
    k = pair.k
    units = pair.units
    kb = {n: pair.pullback_tensor(t) for n, t in fam.levels.items()}
    nub = {1: kb[1].copy()}
    for n in range(2, fam.truncation + 1):
        nub[n] = kb[n] + _free_level_sum(n, kb, nub, units, k)
    levels = {n: pair.embed_tensor(t) for n, t in nub.items()}
    return MomentFunctional(pair=pair, truncation=fam.truncation, levels=levels)


def cfree_from_moments(mu: MomentFunctional, nu: MomentFunctional) -> CumulantFamily:
    """C-free cumulants of the pair (mu, nu); nu must be B-valued."""
    if not mu.pair.same_pair(nu.pair):
        raise PairMismatch("mu and nu live over different algebra pairs")
    pair = mu.pair
    k, d = pair.k, pair.d
    trunc = min(mu.truncation, nu.truncation)
    _check_recursion_level(trunc)
    units, eunits = pair.units, pair.embedded_units
    nub = _pullback_levels(nu)
    ck = {1: mu.raw(1).copy()}
    for n in range(2, trunc + 1):
        ck[n] = mu.raw(n) - _cfree_level_sum(n, ck, mu.levels, nub, units, eunits, k, d)
    return CumulantFamily(kind="cfree", pair=pair, truncation=trunc, levels=ck)


def moments_from_cfree(fam: CumulantFamily, nu: MomentFunctional) -> MomentFunctional:
    if fam.kind != "cfree":
        raise NCIDError(f"expected a cfree family, got {fam.kind!r}")
    if not fam.pair.same_pair(nu.pair):
        raise PairMismatch("cumulant family and nu live over different algebra pairs")
    pair = fam.pair
    k, d = pair.k, pair.d
    trunc = min(fam.truncation, nu.truncation)
    _check_recursion_level(trunc)
    units, eunits = pair.units, pair.embedded_units
    nub = _pullback_levels(nu)
    m = {1: fam.levels[1].copy()}
    for n in range(2, trunc + 1):
        m[n] = fam.levels[n] + _cfree_level_sum(n, fam.levels, m, nub, units, eunits, k, d)
    return MomentFunctional(pair=pair, truncation=trunc, levels=m)
