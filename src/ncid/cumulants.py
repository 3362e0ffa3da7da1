"""Boolean, free, and c-free moment-cumulant transforms.

The kind table lives here and only here: family_of and moments_of pick the
recursion of a kind, and families / from_families carry the rule that
c-free data is a pair (mu, nu) whose nu goes through the free recursion.
Cumulants linearise each convolution, so every other module works on the
families and asks this one which recursion runs.

All three recursions are solved level by level on the matrix-unit basis.
The stored convention matches MomentFunctional: level n is the value at
(u_1, ..., u_{n-1}) with trailing argument 1, and the trailing argument of
an evaluation multiplies from the right.

Free and c-free share one recursion.  A term of level n is indexed by the
positions (pivots) of the block that holds the last letter n: the letters
before its first pivot form a moment prefix of mu on the left, and the gaps
between consecutive pivots are filled with lower nu-moments folded into the
cumulant arguments by bimodularity.  With mu = nu the c-free equation
(M_mu - 1) M_nu = M_mu cR(b M_nu) reduces to M - 1 = R(b M), so the free
cumulants of nu are cR_{nu,nu}, solved inside B over the identity pair on
M_k (Bozejko-Leinert-Speicher).
"""

from __future__ import annotations

import dataclasses
import itertools
import string
from functools import lru_cache

import numpy as np

from .algebra import AlgebraPair
from .distribution import MomentFunctional, _checked_table, level_shape
from .errors import DimensionMismatch, NCIDError, PairMismatch, TooLarge, TruncationExceeded

KINDS = ("boolean", "free", "cfree")

# einsum subscripts of the free and c-free terms: a, b, c label value axes and
# these the slots.  Level n needs 2n - 3 of them; they last to level 26.
_SLOT_LETTERS = string.ascii_lowercase[3:] + string.ascii_uppercase
# Work budget of one recursion in naive einsum iterations (about 3e-8 s each),
# an einsum call costing about _CALL_COST of them: about 20 s of one core.
_CALL_COST, MAX_RECURSION_WORK = 2000, 2**29


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
        check_kind(self.kind)
        object.__setattr__(self, "levels", _checked_table("cumulant", self))

    def evaluate(self, args) -> np.ndarray:
        """Cumulant of degree len(args) at B-elements, value in D."""
        n = len(args)
        if not 1 <= n <= self.truncation:
            raise TruncationExceeded(
                f"cumulant of degree {n} outside stored range 1..{self.truncation}"
            )
        return functional_of(self.kind, self).eval_word(args)

    def scaled(self, factor: complex) -> "CumulantFamily":
        return CumulantFamily(
            kind=self.kind,
            pair=self.pair,
            truncation=self.truncation,
            levels={n: factor * t for n, t in self.levels.items()},
        )


def check_kind(kind: str) -> None:
    """Raise NCIDError unless kind is one of KINDS."""
    if kind not in KINDS:
        raise NCIDError(f"unknown cumulant kind {kind!r}")


def is_pair(kind: str) -> bool:
    """Whether kind's data is a pair (mu, nu) of laws: c-free data is."""
    check_kind(kind)
    return kind == "cfree"


def values_in(kind: str) -> str:
    """Where kind's cumulants take their values: 'B' for free cumulants,
    which stay inside the embedded copy of B, else 'D'."""
    check_kind(kind)
    return "B" if kind == "free" else "D"


def value_dim(pair: AlgebraPair, where: str) -> int:
    """Rows of a value in B (k) or in D (d); DimensionMismatch elsewhere."""
    if where not in ("B", "D"):
        raise DimensionMismatch(f"values_in must be 'B' or 'D', got {where!r}")
    return pair.k if where == "B" else pair.d


def functional_of(kind: str, fam: CumulantFamily) -> MomentFunctional:
    """Repackage a cumulant family as a linear functional on B<X>.

    The storage conventions coincide, so the functional's word evaluation
    rho(X b_1 ... X b_n) returns the degree-n cumulant at (b_1, ..., b_n).
    """
    if kind != fam.kind:
        raise NCIDError(f"family has kind {fam.kind!r}, requested {kind!r}")
    return MomentFunctional(pair=fam.pair, truncation=fam.truncation, levels=fam.levels)


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


def _cfree_term(n, pivots, ck_levels, m_levels, nu_levels, units, eunits):
    """One pivot-set term of the recursion (moment prefix on the left)."""
    k = units.shape[-1]
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


def _cfree_level_sum(n, ck_levels, m_levels, nu_levels, pair):
    """Sum of all proper pivot-set terms at level n, over pair's units."""
    units, eunits = pair.units, pair.embedded_units
    total = np.zeros(level_shape(pair.k, pair.d, n), dtype=np.complex128)
    for pivots in _cfree_pivots(n):
        total = total + _cfree_term(n, pivots, ck_levels, m_levels, nu_levels, units, eunits)
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


def _check_recursion_work(pair: AlgebraPair, trunc: int) -> None:
    """Refuse (TooLarge) a recursion over pair whose pivot einsums pass
    MAX_RECURSION_WORK.  Level m + 1 runs 2^m - 1 calls, C(m, p - 1) of them
    over k^(2(m+p-1)) slots and at most d^3 values; above truncation 19 the
    calls alone pass the budget, so larger ones count as 30."""
    k2, d = pair.k**2, pair.d
    work = sum(_CALL_COST * (2**m - 1) + d**3 * k2**m * ((1 + k2) ** m - k2**m)
               for m in range(1, min(trunc, 30)))
    if work > MAX_RECURSION_WORK:
        raise TooLarge(f"free and c-free recursions over M_{pair.k} in M_{d} at truncation "
                       f"{trunc} pass the work budget {MAX_RECURSION_WORK}")


def _pullback_levels(table) -> dict:
    """The levels of a moment or cumulant table, pulled back into B."""
    return {n: table.pair.pullback_tensor(t) for n, t in table.levels.items()}


def _cumulant_levels(mu_levels, nub, pair, trunc) -> dict:
    """Levels 1..trunc of cR_{mu,nu} over pair, nu's levels nub inside B."""
    _check_recursion_work(pair, trunc)
    ck = {1: mu_levels[1].copy()}
    for n in range(2, trunc + 1):
        ck[n] = mu_levels[n] - _cfree_level_sum(n, ck, mu_levels, nub, pair)
    return ck


def _moment_levels(ck_levels, nub, pair, trunc) -> dict:
    """Levels 1..trunc of mu from cR_{mu,nu} over pair.  nub None means
    nu = mu: level n reads nu only up to level n - 2, already built."""
    _check_recursion_work(pair, trunc)
    m = {1: ck_levels[1].copy()}
    nub = m if nub is None else nub
    for n in range(2, trunc + 1):
        m[n] = ck_levels[n] + _cfree_level_sum(n, ck_levels, m, nub, pair)
    return m


def free_from_moments(nu: MomentFunctional) -> CumulantFamily:
    """Free cumulants of a B-valued functional: cR_{nu,nu} computed inside B."""
    nub = _pullback_levels(nu)
    kb = _cumulant_levels(nub, nub, AlgebraPair.identity(nu.pair.k), nu.truncation)
    levels = {n: nu.pair.embed_tensor(t) for n, t in kb.items()}
    return CumulantFamily(kind="free", pair=nu.pair, truncation=nu.truncation, levels=levels)


def moments_from_free(fam: CumulantFamily) -> MomentFunctional:
    if fam.kind != "free":
        raise NCIDError(f"expected a free family, got {fam.kind!r}")
    pair = fam.pair
    kb = _pullback_levels(fam)
    nub = _moment_levels(kb, None, AlgebraPair.identity(pair.k), fam.truncation)
    levels = {n: pair.embed_tensor(t) for n, t in nub.items()}
    return MomentFunctional(pair=pair, truncation=fam.truncation, levels=levels)


def cfree_from_moments(mu: MomentFunctional, nu: MomentFunctional) -> CumulantFamily:
    """C-free cumulants of the pair (mu, nu); nu must be B-valued."""
    if not mu.pair.same_pair(nu.pair):
        raise PairMismatch("mu and nu live over different algebra pairs")
    trunc = min(mu.truncation, nu.truncation)
    ck = _cumulant_levels(mu.levels, _pullback_levels(nu), mu.pair, trunc)
    return CumulantFamily(kind="cfree", pair=mu.pair, truncation=trunc, levels=ck)


def moments_from_cfree(fam: CumulantFamily, nu: MomentFunctional) -> MomentFunctional:
    if fam.kind != "cfree":
        raise NCIDError(f"expected a cfree family, got {fam.kind!r}")
    if not fam.pair.same_pair(nu.pair):
        raise PairMismatch("cumulant family and nu live over different algebra pairs")
    trunc = min(fam.truncation, nu.truncation)
    m = _moment_levels(fam.levels, _pullback_levels(nu), fam.pair, trunc)
    return MomentFunctional(pair=fam.pair, truncation=trunc, levels=m)


def family_of(kind: str, data) -> CumulantFamily:
    """The cumulant family of kind's data: a law, or (mu, nu) for cfree."""
    if is_pair(kind):
        mu, nu = data
        return cfree_from_moments(mu, nu)
    return boolean_from_moments(data) if kind == "boolean" else free_from_moments(data)


def moments_of(fam: CumulantFamily, nu: MomentFunctional | None = None) -> MomentFunctional:
    """The moments of a cumulant family; a cfree family is inverted against nu."""
    if fam.kind == "boolean":
        return moments_from_boolean(fam)
    if fam.kind == "free":
        return moments_from_free(fam)
    if nu is None:
        raise PairMismatch("a cfree family's moments need nu")
    return moments_from_cfree(fam, nu)


def families(kind: str, data) -> tuple:
    """Every cumulant family that kind's data determines, its own family
    last.  C-free data (mu, nu) has the free family of nu first."""
    if is_pair(kind):
        return family_of("free", data[1]), family_of(kind, data)
    return (family_of(kind, data),)


def from_families(fams):
    """The data whose families() are fams: a law, or the pair (mu, nu)."""
    if is_pair(fams[-1].kind):
        nu = moments_of(fams[0])
        return moments_of(fams[1], nu), nu
    return moments_of(fams[0])
