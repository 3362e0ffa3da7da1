"""Additive convolutions and convolution roots via cumulant linearity."""

from __future__ import annotations

from .cumulants import CumulantFamily, check_kind, families, from_families
from .distribution import MomentFunctional
from .errors import DimensionMismatch, NCIDError, PairMismatch


def _check_pairs(items):
    first = items[0].pair
    for it in items[1:]:
        if not first.same_pair(it.pair):
            raise PairMismatch("operands live over different algebra pairs")
    return first


def _sum_families(fams) -> CumulantFamily:
    pair = _check_pairs(fams)
    trunc = min(f.truncation for f in fams)
    levels = {}
    for n in range(1, trunc + 1):
        total = fams[0].levels[n]
        for f in fams[1:]:
            total = total + f.levels[n]
        levels[n] = total
    return CumulantFamily(kind=fams[0].kind, pair=pair, truncation=trunc, levels=levels)


def convolve(kind: str, items):
    """Convolution of kind: sums the cumulant families of the items (laws,
    or (mu, nu) pairs for cfree) and inverts; one item is returned as is."""
    items = list(items)
    check_kind(kind)
    if not items:
        raise DimensionMismatch(f"a {kind} convolution needs at least one operand")
    if len(items) == 1:
        return items[0]
    summed = zip(*(families(kind, item) for item in items))
    return from_families([_sum_families(fams) for fams in summed])


def boolean_convolve(mus) -> MomentFunctional:
    return convolve("boolean", mus)


def free_convolve(nus) -> MomentFunctional:
    return convolve("free", nus)


def cfree_convolve(pairs):
    """Convolve (mu_i, nu_i) pairs; returns (mu_c, nu_c) with nu_c the free
    convolution and mu_c inverted from the summed c-free cumulants."""
    return convolve("cfree", pairs)


def root(kind: str, data, n: int):
    """N-th convolution root: divides the cumulant family by N and inverts.

    The result is a formal moment functional; positivity may fail, and that
    failure is the non-divisibility witness the certifier looks for.
    """
    if n < 1:
        raise NCIDError(f"root order must be >= 1, got {n}")
    return from_families([fam.scaled(1.0 / n) for fam in families(kind, data)])
