"""Fock-space realizations of boolean, free and c-free distributions.

Vectors are sparse dicts from basis keys to coordinate matrices.  Keys:

boolean   ()                      vacuum, coordinate in D
          (tag, w)                w = (u0, ..., u_{j-1}) is the left-bordered
                                  X-ended word u0 X u1 ... u_{j-1} X of
                                  component tag, coordinate in D
free      ()                      vacuum, coordinate in B
          (h1, ..., hr)           tensor of H-factors, each h = (tag, w),
                                  coordinate in B
cfree     ('D', htuple)           first summand, coordinate in D
          ('O',)                  second summand (the theta vacuum), in D
          ('K', htuple, kw)       third summand with a single K-leg word,
                                  coordinate in D

The operator table _OPS lists each kind's operators in the order the
represented variable sums them, with the root-scale key of each.  The c-free
H side is the free model's H-tensor with a D-vacuum or a K-leg word beside
it, so its four H operators are the free ones (_apply_op_h); only the K-leg
operators are its own.

Multi-component models share one vacuum; a component's operators act only on
its own letters, which is exactly what makes the mixed moments factor the
way the corresponding independence demands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraPair, block_matrix, psd_floor, require_hermitian
from .certify import (
    SigmaForm,
    _word_blocks,
    check_gram_size,
    gram,
    hermitian_gram,
    sigma_gram,
    word_family,
    word_pairing,
)
from .distribution import MomentFunctional
from .errors import (
    DepthExceeded,
    DimensionMismatch,
    GramNotPSD,
    NCIDError,
    TruncationExceeded,
)

_OPS = {
    "boolean": (("annihilate", "ann"), ("create", "cre"), ("gauge", "gauge"), ("transfer", None)),
    "free": (("annihilate", "ann"), ("create", "cre"), ("gauge", "gauge"), ("insert", None)),
    "cfree": (
        ("h_annihilate", "ann"), ("h_create", "cre"), ("gauge_h", "gauge"), ("h_insert", None),
        ("k_annihilate", "ann"), ("k_create", "cre"), ("gauge_k", "gauge"), ("k_insert", None),
    ),
}
# the c-free H-side operators and the free operators they run
_H_SIDE = {"h_annihilate": "annihilate", "h_create": "create", "gauge_h": "gauge", "h_insert": "insert"}


@dataclass(frozen=True, eq=False)
class FockModel:
    kind: str
    pair: AlgebraPair
    depth: int
    components: tuple
    scales: tuple


def _vadd(vec: dict, key, val) -> None:
    if key in vec:
        vec[key] = vec[key] + val
    else:
        vec[key] = val


def _clean(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if np.abs(v).max(initial=0.0) > 0.0}


def _border(b: np.ndarray, w: tuple, k: int):
    """Left-multiply the bordered word u0 X ... by b: scalar-weighted words."""
    i, j = divmod(w[0], k)
    out = []
    for a in range(k):
        c = b[a, i]
        if c != 0:
            out.append((c, (a * k + j,) + w[1:]))
    return out


def _check_gram_psd(mat: np.ndarray, what: str, tol: float = DEFAULT_TOL) -> None:
    """Gate on a Hermitian Gram matrix from certify.gram or sigma_gram."""
    vals = np.linalg.eigvalsh(mat)
    if vals[0] < psd_floor(mat, tol):
        raise GramNotPSD(f"{what} has negative eigenvalue {vals[0]:.3e}")


# ---------------------------------------------------------------------------
# construction


def _components(items) -> list:
    items = list(items)
    if not items:
        raise DimensionMismatch("a Fock model needs at least one component")
    return items


def _model(kind: str, pair: AlgebraPair, comps: list, depth) -> FockModel:
    if depth is None:
        depth = min(c["sigma"].truncation for c in comps) + 2
    scales = tuple({"ann": 1.0, "cre": 1.0, "gauge": 1.0} for _ in comps)
    return FockModel(kind=kind, pair=pair, depth=depth, components=tuple(comps), scales=scales)


def _side(pair: AlgebraPair, alpha, sigma: SigmaForm, values_in: str, what: str):
    """Check one (alpha, sigma) side of a free or c-free component; return
    alpha and its annihilation table: alpha at 1, sigma level m at m + 2."""
    if sigma.values_in != values_in:
        raise DimensionMismatch(f"{what} sigma form must be {values_in}-valued")
    if not pair.same_pair(sigma.pair):
        raise DimensionMismatch("model components over different pairs")
    v = sigma.value_dim
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (v, v):
        raise DimensionMismatch(f"{what} alpha must be {v} x {v}")
    require_hermitian(alpha)
    mat, _ = sigma_gram(sigma, sigma.truncation // 2)
    _check_gram_psd(mat, f"{what} sigma Gram")
    table = {1: alpha}
    table.update((m + 2, sigma.levels[m]) for m in range(sigma.truncation + 1))
    return alpha, table


def boolean_sum_model(mus, depth: int | None = None) -> FockModel:
    """Boolean model of one or more laws; its depth is at most the smallest
    truncation, since deeper words would need moments that are not stored."""
    mus = _components(mus)
    pair = mus[0].pair
    for mu in mus[1:]:
        if not pair.same_pair(mu.pair):
            raise DimensionMismatch("model components over different pairs")
    trunc = min(mu.truncation for mu in mus)
    if depth is None:
        depth = trunc
    elif depth > trunc:
        raise TruncationExceeded(f"boolean model depth {depth} exceeds the truncation {trunc}")
    comps = []
    for mu in mus:
        check_deg = min(depth, mu.truncation // 2)
        if check_deg >= 1:
            mat, _ = gram(mu, check_deg, no_free_term=False)
            _check_gram_psd(mat, "input moment Gram")
        comps.append({"levels": dict(mu.levels), "trunc": mu.truncation})
    return _model("boolean", pair, comps, depth)


def build_boolean(mu: MomentFunctional, depth: int | None = None) -> FockModel:
    return boolean_sum_model([mu], depth)


def free_sum_model(datas, depth: int | None = None) -> FockModel:
    datas = _components(datas)
    pair = datas[0][1].pair
    comps = []
    for alpha, sigma in datas:
        alpha, kb = _side(pair, alpha, sigma, "B", "free model")
        comps.append({"alpha": alpha, "kb": kb, "sigma": sigma})
    return _model("free", pair, comps, depth)


def build_free(alpha, sigma: SigmaForm, depth: int | None = None) -> FockModel:
    return free_sum_model([(alpha, sigma)], depth)


def cfree_sum_model(datas, depth: int | None = None) -> FockModel:
    """c-free model: the H side is stored under the free model's keys
    (alpha, kb, sigma), the K leg under alpha2 and ckd."""
    datas = _components(datas)
    pair = datas[0][1].pair
    comps = []
    for alpha1, sigma1, alpha2, sigma2 in datas:
        alpha1, kb = _side(pair, alpha1, sigma1, "B", "c-free free-side")
        alpha2, ckd = _side(pair, alpha2, sigma2, "D", "c-free c-free-side")
        comps.append({"alpha": alpha1, "kb": kb, "sigma": sigma1, "alpha2": alpha2, "ckd": ckd})
    return _model("cfree", pair, comps, depth)


def build_cfree(alpha1, sigma1, alpha2, sigma2, depth: int | None = None) -> FockModel:
    return cfree_sum_model([(alpha1, sigma1, alpha2, sigma2)], depth)


def _rescaled(model: FockModel, n: int, kind: str) -> FockModel:
    if model.kind != kind:
        raise NCIDError(f"{kind}_root_model needs a {kind} model")
    if n < 1:
        raise NCIDError(f"root order must be >= 1, got {n}")
    rs = 1.0 / sqrt(n)
    scales = tuple(
        {"ann": s["ann"] * rs, "cre": s["cre"] * rs, "gauge": s["gauge"] / n}
        for s in model.scales
    )
    return replace(model, scales=scales)


def boolean_root_model(model: FockModel, n: int) -> FockModel:
    """Model of the n-th boolean convolution root: a, a* scale by 1/sqrt(n),
    the gauge part by 1/n, the transfer part not at all."""
    return _rescaled(model, n, "boolean")


def free_root_model(model: FockModel, n: int) -> FockModel:
    return _rescaled(model, n, "free")


def cfree_root_model(model: FockModel, n: int) -> FockModel:
    return _rescaled(model, n, "cfree")


# ---------------------------------------------------------------------------
# vector operations


def vacuum_vector(model: FockModel, state: str = "phi") -> dict:
    if model.kind == "cfree":
        if state == "phi":
            return {("D", ()): np.eye(model.pair.d, dtype=complex)}
        if state == "theta":
            return {("O",): np.eye(model.pair.d, dtype=complex)}
        raise NCIDError(f"unknown state {state!r}")
    if state != "phi":
        raise NCIDError(f"{model.kind} models only carry the phi state")
    if model.kind == "boolean":
        return {(): np.eye(model.pair.d, dtype=complex)}
    return {(): np.eye(model.pair.k, dtype=complex)}


def _h_degree(htuple) -> int:
    return sum(len(h[1]) for h in htuple)


def _h_parts(kind: str, key):
    """(h, wrap, kw) of a free or c-free key: its H-tensor h, the map that
    puts a tensor back in h's place (tuple, the identity, on a free key) and
    the K-leg word (None off the K leg).  None for the theta vacuum ('O',)."""
    if kind == "free":
        return key, tuple, None
    if key[0] == "D":
        return key[1], lambda h: ("D", h), None
    if key[0] == "K":
        return key[1], lambda h: ("K", h, key[2]), key[2]
    return None


def _lmult(model: FockModel, val: np.ndarray, h: tuple, wrap, kw, c, out: dict) -> None:
    """Add val (h c) to out for a B-value val: val borders the first factor
    of h; past the tensor it lands on the free vacuum coordinate, on the
    c-free D-vacuum through the embedding, or on the K-leg word."""
    k = model.pair.k
    if h:
        tag, w = h[0]
        for coef, w2 in _border(val, w, k):
            _vadd(out, wrap(((tag, w2),) + h[1:]), coef * c)
    elif kw is not None:
        tag, w = kw
        for coef, w2 in _border(val, w, k):
            _vadd(out, ("K", (), (tag, w2)), coef * c)
    elif model.kind == "free":
        _vadd(out, (), val @ c)
    else:
        _vadd(out, ("D", ()), model.pair.embed(val) @ c)


def apply_coefficient(model: FockModel, vec: dict, b) -> dict:
    b = np.asarray(b, dtype=complex)
    k = model.pair.k
    out: dict = {}
    for key, c in vec.items():
        if model.kind == "boolean":
            if key == ():
                _vadd(out, key, model.pair.embed(b) @ c)
            else:
                tag, w = key
                for coef, w2 in _border(b, w, k):
                    _vadd(out, (tag, w2), coef * c)
            continue
        parts = _h_parts(model.kind, key)
        if parts is None:
            _vadd(out, key, model.pair.embed(b) @ c)
        else:
            _lmult(model, b, *parts, c, out)
    return _clean(out)


def _bool_word_moment(comp: dict, w: tuple, pair: AlgebraPair) -> np.ndarray:
    j = len(w)
    if j > comp["trunc"]:
        raise TruncationExceeded(
            f"state extraction needs moments to degree {j}, stored {comp['trunc']}"
        )
    tail = comp["levels"][j][w[1:]] if j > 1 else comp["levels"][1]
    return pair.embedded_units[w[0]] @ tail


def _bool_q(comp: dict, w: tuple, pair: AlgebraPair) -> np.ndarray:
    """Centered return mu(Xw) - mu(X) mu(w).  model_moment never reads a
    level past the truncation, as the depth is at most the truncation; on
    an operator_matrix basis capped above it, such levels count as zero."""
    j = len(w)
    lev = comp["levels"]
    d = pair.d
    mxw = lev[j + 1][w] if j + 1 <= comp["trunc"] else np.zeros((d, d), dtype=complex)
    if j <= comp["trunc"]:
        mw = _bool_word_moment(comp, w, pair)
        return mxw - lev[1] @ mw
    return mxw


def _apply_op_boolean(model, name, vec, t) -> dict:
    """Operators on centered word labels: the key (t, w) stands for the
    vector w - mu_t(w) vacuum, which is orthogonal to the vacuum.  Left
    coefficient multiplication maps centered labels to centered labels, the
    creation vector xi is exactly the centered X, and the transfer part picks
    up a centered degree-one correction instead of a vacuum return."""
    comp = model.components[t]
    k = model.pair.k
    out: dict = {}
    for key, c in vec.items():
        if key == ():
            if name == "create":
                for i in range(k):
                    _vadd(out, (t, (i * k + i,)), c)
            elif name == "gauge":
                _vadd(out, (), comp["levels"][1] @ c)
            continue
        tag, w = key
        if tag != t:
            continue
        if name == "annihilate":
            _vadd(out, (), _bool_q(comp, w, model.pair) @ c)
        elif name == "transfer":
            if len(w) + 1 <= model.depth:
                for i in range(k):
                    _vadd(out, (t, (i * k + i,) + w), c)
            if len(w) <= comp["trunc"]:
                mw = _bool_word_moment(comp, w, model.pair)
                for i in range(k):
                    _vadd(out, (t, (i * k + i,)), -(mw @ c))
    return _clean(out)


def _free_annihilate_value(comp: dict, w: tuple, k: int) -> np.ndarray:
    j = len(w)
    kb = comp["kb"]
    if j + 1 not in kb:
        return np.zeros((k, k), dtype=complex)
    return kb[j + 1][w] if j > 0 else kb[1]


def _apply_op_h(model, name, vec, t) -> dict:
    """A free operator of component t on the H-tensor of each key: the free
    model's operators, and the c-free H side on its first and third
    summands.  A K-leg word counts towards the depth."""
    comp = model.components[t]
    k = model.pair.k
    out: dict = {}
    for key, c in vec.items():
        parts = _h_parts(model.kind, key)
        if parts is None:
            continue
        h, wrap, kw = parts
        degree = _h_degree(h) + (len(kw[1]) if kw else 0)
        if name == "create":
            if degree + 1 <= model.depth:
                for i in range(k):
                    _vadd(out, wrap(((t, (i * k + i,)),) + h), c)
        elif name == "gauge":
            # left multiplication by alpha on the whole module
            _lmult(model, comp["alpha"], h, wrap, kw, c, out)
        elif h and h[0][0] == t:
            w = h[0][1]
            if name == "annihilate":
                _lmult(model, _free_annihilate_value(comp, w, k), h[1:], wrap, kw, c, out)
            elif degree + 1 <= model.depth:
                for i in range(k):
                    _vadd(out, wrap(((t, (i * k + i,) + w),) + h[1:]), c)
    return _clean(out)


def _apply_op_k(model, name, vec, t) -> dict:
    """The c-free K-leg operators of component t: they act on the theta
    vacuum and on K-leg words with nothing on the H side."""
    comp = model.components[t]
    k = model.pair.k
    out: dict = {}
    for key, c in vec.items():
        if key == ("O",):
            if name == "k_create" and model.depth >= 1:
                for i in range(k):
                    _vadd(out, ("K", (), (t, (i * k + i,))), c)
            elif name == "gauge_k":
                _vadd(out, key, comp["alpha2"] @ c)
            continue
        if key[0] != "K" or key[1] or key[2][0] != t:
            continue
        w = key[2][1]
        if name == "k_annihilate":
            ckd = comp["ckd"]
            if len(w) + 1 in ckd:
                _vadd(out, ("O",), (ckd[len(w) + 1][w] if w else ckd[1]) @ c)
        elif name == "k_insert" and len(w) + 1 <= model.depth:
            for i in range(k):
                _vadd(out, ("K", (), (t, (i * k + i,) + w)), c)
    return _clean(out)


def apply_op(model: FockModel, name: str, vec: dict, component: int = 0) -> dict:
    """Apply one structural operator of a component to a sparse vector."""
    if name not in [op for op, _ in _OPS[model.kind]]:
        raise NCIDError(f"unknown {model.kind} operator {name!r}")
    if model.kind == "boolean":
        return _apply_op_boolean(model, name, vec, component)
    if model.kind == "cfree" and name not in _H_SIDE:
        return _apply_op_k(model, name, vec, component)
    return _apply_op_h(model, _H_SIDE.get(name, name), vec, component)


def _vsum(vecs) -> dict:
    out: dict = {}
    for v in vecs:
        for key, c in v.items():
            _vadd(out, key, c)
    return _clean(out)


def _vscale(vec: dict, s) -> dict:
    if s == 0:
        return {}
    if s == 1:
        return vec
    return {k: s * v for k, v in vec.items()}


def apply_generator(model: FockModel, vec: dict, component=None) -> dict:
    """One application of the represented variable (or of one component's)."""
    tags = range(len(model.components)) if component is None else [component]
    parts = []
    for t in tags:
        for name, scale in _OPS[model.kind]:
            part = apply_op(model, name, vec, t)
            parts.append(part if scale is None else _vscale(part, model.scales[t][scale]))
    return _vsum(parts)


def extract_state(model: FockModel, vec: dict, state: str = "phi") -> np.ndarray:
    d = model.pair.d
    if model.kind == "cfree":
        if state not in ("phi", "theta"):
            raise NCIDError(f"unknown state {state!r}")
        return vec.get(("D", ()) if state == "phi" else ("O",), np.zeros((d, d), dtype=complex))
    if state != "phi":
        raise NCIDError(f"{model.kind} models only carry the phi state")
    if model.kind == "free":
        c = vec.get((), np.zeros((model.pair.k, model.pair.k), dtype=complex))
        return model.pair.embed(c)
    # boolean: centered labels are orthogonal to the vacuum
    return vec.get((), np.zeros((d, d), dtype=complex))


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


def _basis_size(model: FockModel, cap: int) -> int:
    """len(fock_basis(model, cap)) without listing the keys.

    The components have words_j = ncomp (k^2)^j words of degree j between
    them, and tensors of total degree n number t_n = sum_j words_j t_(n-j).
    """
    cap = max(cap, 0)
    words = [0] + [len(model.components) * (model.pair.k ** 2) ** j for j in range(1, cap + 1)]
    if model.kind == "boolean":
        return 1 + sum(words)
    tensors = [1]
    for n in range(1, cap + 1):
        tensors.append(sum(words[j] * tensors[n - j] for j in range(1, n + 1)))
    if model.kind == "free":
        return sum(tensors)
    k_legs = sum(tensors[hd] * sum(words[1 : cap - hd + 1]) for hd in range(cap))
    return 1 + sum(tensors) + k_legs


def fock_basis(model: FockModel, cap: int):
    """Deterministic key enumeration up to total degree cap."""
    k = model.pair.k
    ncomp = len(model.components)
    if model.kind == "boolean":
        keys = [()]
        for j in range(1, cap + 1):
            for t in range(ncomp):
                keys.extend((t, w) for w in word_family(k, (j,)))
        return keys

    def tensors(budget):
        yield ()
        for j in range(1, budget + 1):
            for t in range(ncomp):
                for w in word_family(k, (j,)):
                    for rest in tensors(budget - j):
                        yield ((t, w),) + rest

    if model.kind == "free":
        return sorted(tensors(cap), key=lambda key: (_h_degree(key), key))
    keys = [("O",)]
    for h in sorted(tensors(cap), key=lambda key: (_h_degree(key), key)):
        keys.append(("D", h))
    for h in sorted(tensors(cap - 1), key=lambda key: (_h_degree(key), key)):
        hd = _h_degree(h)
        for j in range(1, cap - hd + 1):
            for t in range(ncomp):
                for w in word_family(k, (j,)):
                    keys.append(("K", h, (t, w)))
    return keys


def _coord_dim(model: FockModel) -> int:
    return model.pair.k if model.kind == "free" else model.pair.d


def operator_matrix(model: FockModel, name: str, cap: int, component: int = 0):
    """Dense block matrix of an operator on the degree-cap truncated space.

    Returns (matrix, keys).  Entries are the coordinate blocks: the operator
    maps key j with coordinate C to keys i with coordinate block[i, j] C.
    """
    v = _coord_dim(model)
    check_gram_size(_basis_size(model, cap), v, copies=2)  # the blocks and the tiled matrix
    keys = fock_basis(model, cap)
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    blocks = np.zeros((n, n, v, v), dtype=complex)
    eye = np.eye(v, dtype=complex)
    for j, key in enumerate(keys):
        out = apply_op(model, name, {key: eye}, component)
        for okey, block in out.items():
            i = index.get(okey)
            if i is not None:
                blocks[i, j] = block
    return block_matrix(blocks), keys


def _free_pairing(model: FockModel, ka: tuple, kb_: tuple) -> np.ndarray:
    """<ka, kb> in B for tensor keys, collapsing factors left to right."""
    k = model.pair.k
    if not ka and not kb_:
        return np.eye(k, dtype=complex)
    if not ka or not kb_:
        return np.zeros((k, k), dtype=complex)
    (ta, wa), (tb, wb) = ka[0], kb_[0]
    if ta != tb:
        return np.zeros((k, k), dtype=complex)
    val = word_pairing(model.components[ta]["sigma"].levels, wa, wb, k, shift=2)
    if val is None:
        return np.zeros((k, k), dtype=complex)
    out: dict = {}
    _lmult(model, val, kb_[1:], tuple, None, np.eye(k, dtype=complex), out)
    total = np.zeros((k, k), dtype=complex)
    for key2, c in out.items():
        total = total + _free_pairing(model, ka[1:], key2) @ c
    return total


def gram_matrix(model: FockModel, cap: int):
    """Gram matrix of the basis keys under the model's inner product."""
    if model.kind == "cfree":
        raise NCIDError("gram_matrix supports boolean and free models")
    v = _coord_dim(model)
    check_gram_size(_basis_size(model, cap), v)
    keys = fock_basis(model, cap)
    n = len(keys)
    blocks = np.zeros((n, n, v, v), dtype=complex)
    if model.kind == "boolean":
        # centered pairing: <w', w> = mu(w'* w) - mu(w')* mu(w); the vacuum
        # block is the identity and everything mixed or cross-component is 0
        blocks[0, 0] = np.eye(v, dtype=complex)
        for t, comp in enumerate(model.components):
            idx = [i for i, key in enumerate(keys) if key and key[0] == t]
            words = [keys[i][1] for i in idx]
            means = np.array([_bool_word_moment(comp, w, model.pair) for w in words])
            sub = _word_blocks(comp["levels"], words, model.pair.k, v, 0)
            sub -= np.einsum("iba,jbc->ijac", means.conj(), means)
            blocks[np.ix_(idx, idx)] = sub
    else:
        for i, ki in enumerate(keys):
            for j, kj in enumerate(keys):
                blocks[i, j] = _free_pairing(model, ki, kj)
    return hermitian_gram(blocks), keys
