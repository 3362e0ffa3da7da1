"""Fock-space realizations of boolean, free and c-free distributions.

A basis key lists words (t, w) of component t: w = (u0, ..., u_{j-1}) is the
left-bordered X-ended word u0 X u1 ... u_{j-1} X.  The key's shape is the key
with each word replaced by (t, j):

boolean   ()                      vacuum, coordinate in D
          (t, j)                  one sigma-word, coordinate in D
free      ()                      vacuum, coordinate in B
          ((t1, j1), ..., (tr, jr))   tensor of H-factors, coordinate in B
cfree     ('D', hs)               first summand: H-tensor shape hs, in D
          ('O',)                  second summand (the theta vacuum), in D
          ('K', hs, (t, j))       third summand with a single K-leg word, in D

A vector maps shapes to arrays of shape (k^2,) * letters + (v, cols), one
axis per letter in key order (H-factors, then the K-leg word), then the v
rows of the coordinate (v = k for free models, d otherwise) and any columns.
create, insert, transfer, k_create and k_insert prepend the letter
sum_i e_ii, a new leading axis.  annihilate, gauge, k_annihilate, gauge_k
and apply_coefficient are one matmul of a value table against the front
row: the first letter's row, or the vacuum coordinate.  A B-valued table
goes through the embedding exactly when the result's front is a D-vacuum:
the boolean (), ('O',) and ('D', ()).

The operator table _OPS lists each kind's operators in the order the
represented variable sums them.  The c-free H side is the free model's
H-tensor with a D-vacuum or a K-leg word beside it, so its four H operators
are the free ones (_h_terms).  Its K leg on C + H_sigma (_leg_terms) is also
the whole boolean model: boolean is c-free against nu = delta_0, so a
boolean key is one sigma-word, with no centering and no transfer correction.

fock_basis lists the keys shape by shape, lexicographic in the letters
within a shape, so operator_matrix applies an operator once per shape, to
the identity on its keys, and gram_matrix fills one block per shape pair.

A component is its cumulant tables, level n holding the values on n-letter
words: a boolean law's boolean cumulants (its ckd against delta_0), a free
side's kb and a c-free side's ckd.  An n-th root model divides every table
by n, as convolution.root divides the cumulant family.

Each builder gates its data on a certificate of ncid.certify (certify for a
boolean law, certify_levy_hincin for a free or c-free side): data gets a model
exactly when its certificate passes, and GramNotPSD otherwise.

Multi-component models share one vacuum; a component's operators act only on
its own letters, which is exactly what makes the mixed moments factor the
way the corresponding independence demands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice, product

import numpy as np

from .algebra import AlgebraPair, require_hermitian
from .certify import (
    SigmaForm,
    _levy_hincin_table,
    _word_blocks,
    certify,
    certify_levy_hincin,
    check_gram_size,
    family_from_levy_hincin,
    gram_arrays,
    hermitian_gram,
    word_family,
)
from .cumulants import boolean_from_moments, value_dim, values_in
from .distribution import MomentFunctional
from .errors import (
    DepthExceeded,
    DimensionMismatch,
    GramNotPSD,
    NCIDError,
    TruncationExceeded,
)

# the c-free H-side operators and the free operators they run
_H_SIDE = {"h_annihilate": "annihilate", "h_create": "create", "gauge_h": "gauge", "h_insert": "insert"}
# the c-free K-leg operators and the boolean operators they run
_K_LEG = {"k_annihilate": "annihilate", "k_create": "create", "gauge_k": "gauge", "k_insert": "transfer"}
_OPS = {"boolean": tuple(_K_LEG.values()), "free": tuple(_H_SIDE.values()), "cfree": (*_H_SIDE, *_K_LEG)}


@dataclass(frozen=True, eq=False)
class FockModel:
    kind: str
    pair: AlgebraPair
    depth: int
    components: tuple


def _gate(cert, what: str) -> None:
    """Refuse (GramNotPSD) model data whose certificate fails."""
    if not cert.passed:
        raise GramNotPSD(f"{what} fails the {cert.kind} certificate at degree "
                         f"{cert.degree}: min eigenvalue {cert.min_eig:.3e}")


# ---------------------------------------------------------------------------
# construction


def _components(items) -> list:
    items = list(items)
    if not items:
        raise DimensionMismatch("a Fock model needs at least one component")
    return items


def _model(kind: str, pair: AlgebraPair, comps: list, depth) -> FockModel:
    """A word of degree n reads level n of every table, so the depth is at
    most, and by default, the least top level (TruncationExceeded past it)."""
    top = min(max(table) for c in comps for table in c.values())
    if depth is None:
        depth = top
    elif depth > top:
        raise TruncationExceeded(f"{kind} model depth {depth} exceeds the truncation {top}")
    return FockModel(kind=kind, pair=pair, depth=depth, components=tuple(comps))


def _side(pair: AlgebraPair, alpha, sigma: SigmaForm, kind: str, what: str) -> dict:
    """One (alpha, sigma) side, gated on its certificate, as its cumulant
    table: a free side's Levy-Hincin shift in B, a c-free side's family."""
    if not pair.same_pair(sigma.pair):
        raise DimensionMismatch("model components over different pairs")
    _gate(certify_levy_hincin(kind, alpha, sigma), f"{what} data")
    alpha = require_hermitian(alpha)
    if kind == "free":
        return _levy_hincin_table(alpha, sigma)
    return family_from_levy_hincin(kind, alpha, sigma).levels


def boolean_sum_model(mus, depth: int | None = None) -> FockModel:
    """Boolean model of one or more laws, each component its law's boolean
    cumulant table, built once every gate has passed."""
    mus = _components(mus)
    pair = mus[0].pair
    if not all(pair.same_pair(mu.pair) for mu in mus):
        raise DimensionMismatch("model components over different pairs")
    # the depth rule reads the laws' levels, which their tables will have too
    model = _model("boolean", pair, [{"moments": mu.levels} for mu in mus], depth)
    for mu in mus:
        check_deg = min(model.depth, mu.truncation // 2)
        if check_deg >= 1:
            _gate(certify("boolean", mu, check_deg), "input law")
    return replace(model, components=tuple({"ckd": boolean_from_moments(mu).levels} for mu in mus))


def build_boolean(mu: MomentFunctional, depth: int | None = None) -> FockModel:
    return boolean_sum_model([mu], depth)


def free_sum_model(datas, depth: int | None = None) -> FockModel:
    datas = _components(datas)
    pair = datas[0][1].pair
    comps = [{"kb": _side(pair, alpha, sigma, "free", "free model")} for alpha, sigma in datas]
    return _model("free", pair, comps, depth)


def build_free(alpha, sigma: SigmaForm, depth: int | None = None) -> FockModel:
    return free_sum_model([(alpha, sigma)], depth)


def cfree_sum_model(datas, depth: int | None = None) -> FockModel:
    """c-free model: the free table kb on the H side, ckd on the K leg."""
    datas = _components(datas)
    pair = datas[0][1].pair
    comps = [
        {"kb": _side(pair, alpha1, sigma1, "free", "c-free free-side"),
         "ckd": _side(pair, alpha2, sigma2, "cfree", "c-free c-free-side")}
        for alpha1, sigma1, alpha2, sigma2 in datas
    ]
    return _model("cfree", pair, comps, depth)


def build_cfree(alpha1, sigma1, alpha2, sigma2, depth: int | None = None) -> FockModel:
    return cfree_sum_model([(alpha1, sigma1, alpha2, sigma2)], depth)


def _rescaled(model: FockModel, n: int, kind: str) -> FockModel:
    if model.kind != kind:
        raise NCIDError(f"{kind}_root_model needs a {kind} model")
    if n < 1:
        raise NCIDError(f"root order must be >= 1, got {n}")
    comps = tuple({name: {m: (1.0 / n) * t for m, t in table.items()} for name, table in c.items()}
                  for c in model.components)
    return replace(model, components=comps)


def boolean_root_model(model: FockModel, n: int) -> FockModel:
    """Model of the n-th boolean convolution root: every table divided by n."""
    return _rescaled(model, n, "boolean")


def free_root_model(model: FockModel, n: int) -> FockModel:
    return _rescaled(model, n, "free")


def cfree_root_model(model: FockModel, n: int) -> FockModel:
    return _rescaled(model, n, "cfree")


# ---------------------------------------------------------------------------
# key shapes


def _tensors(ncomp: int, degree: int):
    """H-tensor shapes of exactly this degree, in sorted order."""
    if degree == 0:
        yield ()
    for t in range(ncomp):
        for j in range(1, degree + 1):
            for rest in _tensors(ncomp, degree - j):
                yield ((t, j),) + rest


def _shapes(model: FockModel, cap: int):
    """Key shapes up to total degree cap, in basis order, listed lazily."""
    ncomp, cap = len(model.components), max(cap, 0)
    tensors = (h for deg in range(cap + 1) for h in _tensors(ncomp, deg))
    if model.kind == "boolean":
        return chain([()], ((t, j) for j in range(1, cap + 1) for t in range(ncomp)))
    if model.kind == "free":
        return tensors
    legs = (("K", h, (t, j)) for deg in range(cap) for h in _tensors(ncomp, deg)
            for j in range(1, cap - deg + 1) for t in range(ncomp))
    return chain([("O",)], (("D", h) for h in tensors), legs)


def _letters(shape) -> int:
    """Number of letters of a shape: its degree, and its array's axes."""
    if shape and isinstance(shape[0], int):  # one word (t, j)
        return shape[1]
    return sum(_letters(part) for part in shape if isinstance(part, tuple))


def _key(shape, letters) -> tuple:
    """The basis key of a shape, its words filled from the letters iterator."""
    if shape and isinstance(shape[0], int):
        return shape[0], tuple(islice(letters, shape[1]))
    return tuple(_key(part, letters) if isinstance(part, tuple) else part for part in shape)


def _coord_dim(model: FockModel) -> int:
    return value_dim(model.pair, values_in(model.kind))


def _layout(model: FockModel, cap: int, copies: int):
    """(shapes, starts, n): the shapes up to total degree cap, the index of
    each one's first basis key, and the number of keys.  The count is checked
    against the budget of copies matrix-sized arrays held at once
    (check_gram_size) shape by shape, so a cap far out of reach is refused
    (TooLarge) before its shapes are listed; copies 0 checks nothing."""
    v, k2 = _coord_dim(model), model.pair.k ** 2
    shapes, starts, n = [], [], 0
    for shape in _shapes(model, cap):
        shapes.append(shape)
        starts.append(n)
        n += k2 ** _letters(shape)
        check_gram_size(n, v, copies)
    return shapes, starts, n


def fock_basis(model: FockModel, cap: int):
    """Basis keys up to total degree cap: shape by shape (the boolean ones by
    word length, then component), lexicographic in the letters within a
    shape."""
    k2 = model.pair.k ** 2
    return [
        _key(shape, iter(letters))
        for shape in _shapes(model, cap)
        for letters in product(range(k2), repeat=_letters(shape))
    ]


# ---------------------------------------------------------------------------
# vector operations


def _vacuum(model: FockModel, state: str):
    """The shape of the vacuum that carries this state."""
    if model.kind == "cfree":
        if state not in ("phi", "theta"):
            raise NCIDError(f"unknown state {state!r}")
        return ("D", ()) if state == "phi" else ("O",)
    if state != "phi":
        raise NCIDError(f"{model.kind} models only carry the phi state")
    return ()


def vacuum_vector(model: FockModel, state: str = "phi") -> dict:
    return {_vacuum(model, state): np.eye(_coord_dim(model), dtype=complex)}


def _prepend(k: int, arr: np.ndarray) -> np.ndarray:
    """arr with the letter sum_i e_ii put in front."""
    out = np.zeros((k * k,) + arr.shape, dtype=complex)
    out[:: k + 1] = arr
    return out


def _lmul(table: np.ndarray, arr: np.ndarray, m: int = 0) -> np.ndarray:
    """Left multiplication by an (n, r, r) table over the n words of arr's
    first m letters: the value at each word multiplies the front row behind
    it, and the m letters are summed out."""
    n, r, _ = table.shape
    out = table.transpose(1, 0, 2).reshape(r, n * r) @ arr.reshape(n * r, -1)
    return out.reshape(arr.shape[m:])


def _b_table(model: FockModel, shape, table: np.ndarray) -> np.ndarray:
    """A B-valued table as it multiplies the front of a result of this shape:
    through the embedding on a D-vacuum, the only front in D."""
    if model.kind != "free" and _letters(shape) == 0:
        return model.pair.embed_tensor(table)
    return table


def apply_coefficient(model: FockModel, vec: dict, b) -> dict:
    b = np.asarray(b, dtype=complex)
    k = model.pair.k
    if b.shape != (k, k):
        raise DimensionMismatch(f"expected ({k},{k}) element of B, got {b.shape}")
    return {shape: _lmul(_b_table(model, shape, b[None]), arr) for shape, arr in vec.items()}


def _h_terms(model, name, shape, arr, t):
    """A free operator of component t on the H-tensor of a shape: the free
    model's operators, and the c-free H side on its first and third
    summands.  A K-leg word counts towards the depth."""
    if model.kind == "free":
        hs, wrap = shape, tuple
    elif shape == ("O",):
        return
    else:  # ('D', hs) or ('K', hs, kw): wrap puts an H-tensor shape in hs's place
        hs, wrap = shape[1], lambda h: (shape[0], h) + shape[2:]
    comp, k = model.components[t], model.pair.k
    room = _letters(shape) < model.depth
    if name == "create":
        if room:
            yield wrap(((t, 1),) + hs), _prepend(k, arr)
    elif name == "gauge":
        # left multiplication by alpha on the whole module
        yield shape, _lmul(_b_table(model, shape, comp["kb"][1][None]), arr)
    elif hs and hs[0][0] == t:
        j = hs[0][1]
        if name == "annihilate":
            if j + 1 in comp["kb"]:
                rest = wrap(hs[1:])
                table = comp["kb"][j + 1].reshape(-1, k, k)
                yield rest, _lmul(_b_table(model, rest, table), arr, j)
        elif room:
            yield wrap(((t, j + 1),) + hs[1:]), _prepend(k, arr)


def _leg_terms(model, name, shape, arr, t):
    """The one-particle operators of component t on C + H_sigma, from its
    table ckd: create (vacuum to word 1), gauge (level 1 on the vacuum),
    annihilate (word j to the vacuum through level j + 1, zero past the
    table) and transfer (word j to word j + 1).  The vacuum and word j are
    () and (t, j) in a boolean model, ('O',) and ('K', (), (t, j)) on the
    c-free K leg, which so acts only where the H side is empty."""
    table, k = model.components[t]["ckd"], model.pair.k
    if model.kind == "boolean":
        vacuum, word = (), lambda j: (t, j)
    else:
        vacuum, word = ("O",), lambda j: ("K", (), (t, j))
    if shape == vacuum:
        if name == "create" and model.depth >= 1:
            yield word(1), _prepend(k, arr)
        elif name == "gauge":
            yield vacuum, _lmul(table[1][None], arr)
        return
    j = _letters(shape)
    if shape != word(j):
        return
    if name == "annihilate" and j + 1 in table:
        yield vacuum, _lmul(table[j + 1].reshape(-1, model.pair.d, model.pair.d), arr, j)
    elif name == "transfer" and j < model.depth:
        yield word(j + 1), _prepend(k, arr)


def apply_op(model: FockModel, name: str, vec: dict, component: int = 0) -> dict:
    """Apply one structural operator of a component to a vector."""
    if name not in _OPS[model.kind]:
        raise NCIDError(f"unknown {model.kind} operator {name!r}")
    if model.kind == "boolean" or name in _K_LEG:
        terms, name = _leg_terms, _K_LEG.get(name, name)
    else:
        terms, name = _h_terms, _H_SIDE.get(name, name)
    out: dict = {}
    for shape, arr in vec.items():
        for okey, val in terms(model, name, shape, arr, component):
            out[okey] = out.get(okey, 0) + val
    return out


def apply_generator(model: FockModel, vec: dict, component=None) -> dict:
    """One application of the represented variable (or of one component's)."""
    tags = range(len(model.components)) if component is None else [component]
    out: dict = {}
    for t in tags:
        for name in _OPS[model.kind]:
            for shape, arr in apply_op(model, name, vec, t).items():
                out[shape] = out.get(shape, 0) + arr
    return out


def extract_state(model: FockModel, vec: dict, state: str = "phi") -> np.ndarray:
    """The state's value: the vacuum coordinate, in D (every word key,
    boolean or not, is orthogonal to the vacuum)."""
    v = _coord_dim(model)
    value = vec.get(_vacuum(model, state), np.zeros((v, v), dtype=complex))
    return model.pair.embed(value) if model.kind == "free" else value


def model_moment(model: FockModel, bs, state: str = "phi", components=None):
    """phi (or theta) value of X b1 X b2 ... X bn in the model.

    components optionally assigns each X letter (left to right) to a model
    component; by default every letter is the sum of all components.
    """
    bs = list(bs)
    n = len(bs)
    if n > model.depth:
        raise DepthExceeded(f"word degree {n} exceeds model depth {model.depth}")
    components = [None] * n if components is None else list(components)
    if len(components) != n:
        raise DimensionMismatch("one component tag per letter required")
    ncomp = len(model.components)
    for tag in components:
        if tag is not None and not (isinstance(tag, (int, np.integer)) and 0 <= tag < ncomp):
            raise DimensionMismatch(f"component tag {tag!r} is not in 0..{ncomp - 1}")
    vec = vacuum_vector(model, state)
    for b, comp in zip(reversed(bs), reversed(components)):
        vec = apply_coefficient(model, vec, b)
        vec = apply_generator(model, vec, component=comp)
    return extract_state(model, vec, state)


# ---------------------------------------------------------------------------
# dense matrices


def operator_matrix(model: FockModel, name: str, cap: int, component: int = 0):
    """Dense block matrix of an operator on the degree-cap truncated space.

    Returns (matrix, keys).  Entries are the coordinate blocks: the operator
    maps key j with coordinate C to keys i with coordinate block[i, j] C.
    Each shape's columns are one application of the operator to the identity
    on that shape's coordinates, in a copy of the model cut to depth cap so
    that no image past the basis is built.
    """
    v, k2 = _coord_dim(model), model.pair.k ** 2
    # the matrix, and one shape's identity with its images
    shapes, starts, n = _layout(model, cap, copies=2)
    capped = replace(model, depth=min(model.depth, cap))
    rows = {shape: start * v for shape, start in zip(shapes, starts)}
    mat = np.zeros((n * v, n * v), dtype=complex)
    for shape, start in zip(shapes, starts):
        letters = _letters(shape)
        size = v * k2**letters
        batch = np.eye(size, dtype=complex).reshape((k2,) * letters + (v, size))
        for okey, arr in apply_op(capped, name, {shape: batch}, component).items():
            if okey in rows:
                row = rows[okey]
                mat[row : row + arr.size // size, start * v : start * v + size] = arr.reshape(-1, size)
    return mat, fock_basis(model, cap)


def gram_matrix(model: FockModel, cap: int):
    """Gram matrix of the basis keys under the model's inner product.

    Boolean: the K leg's word Gram, the sigma-pairing <w', w> of the
    component's table within a component, the vacuum block the identity and
    everything mixed or cross-component 0.  Free: keys whose factor tags
    differ are orthogonal, and <f1 K, f1' K'> = <K, P[f1, f1'] K'>, where P
    is the sigma-pairing of the first factors and multiplies K' on its front
    row.  So the block of a pair of shapes is P's block of their first
    factors contracted with the block of the rest.
    """
    if model.kind == "cfree":
        raise NCIDError("gram_matrix supports boolean and free models")
    v, k = _coord_dim(model), model.pair.k
    # the matrix and at most two of its size: hermitian_gram's adjoint, and the
    # free branch's sigma-pairings (at most one entry per key pair) and blocks
    shapes, starts, n = _layout(model, cap, copies=3)
    words = word_family(k, range(1, cap + 1))
    mat, blocks = gram_arrays(n, v)
    blocks[0, 0] = np.eye(v, dtype=complex)
    if model.kind == "boolean":
        for t, comp in enumerate(model.components):
            idx = [i for shape, start in zip(shapes, starts) if shape and shape[0] == t
                   for i in range(start, start + k ** (2 * shape[1]))]
            _word_blocks(blocks, comp["ckd"], words, idx, k)
        return hermitian_gram(mat), fock_basis(model, cap)

    pairing = []
    for c in model.components:
        pairing.append(np.zeros((len(words), len(words), k, k), dtype=complex))
        _word_blocks(pairing[-1], c["kb"], words, range(len(words)), k)
    # the words of length j are rows ends[j - 1] to ends[j] of the pairing
    ends = np.cumsum([k ** (2 * j) for j in range(cap + 1)]) - 1
    at = dict(zip(shapes, starts))
    # shapes come by degree, so the block of two shapes' tails is filled first
    for hs, start in zip(shapes[1:], starts[1:]):
        for hs2, start2 in zip(shapes[1:], starts[1:]):
            if [t for t, _ in hs] != [t for t, _ in hs2]:
                continue
            (t, j), (_, j2) = hs[0], hs2[0]
            block = pairing[t][ends[j - 1] : ends[j], ends[j2 - 1] : ends[j2]]
            if len(hs) > 1:
                m, m2 = k ** (2 * _letters(hs[1:])), k ** (2 * _letters(hs2[1:]))
                tails = blocks[at[hs[1:]] : at[hs[1:]] + m, at[hs2[1:]] : at[hs2[1:]] + m2]
                # a tail column is (the row of its first letter, the rest)
                block = np.einsum("xyac,Karij->xKycrij", block, tails.reshape(m, k, m2 // k, k, k))
                block = block.reshape(block.shape[0] * m, -1, k, k)
            blocks[start : start + len(block), start2 : start2 + block.shape[1]] = block
    return hermitian_gram(mat), fock_basis(model, cap)
