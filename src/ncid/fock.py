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

_BOOL_OPS = ("annihilate", "create", "gauge", "transfer")
_FREE_OPS = ("annihilate", "create", "gauge", "insert")
_CFREE_OPS = (
    "h_annihilate",
    "h_create",
    "gauge_h",
    "h_insert",
    "k_annihilate",
    "k_create",
    "gauge_k",
    "k_insert",
)


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


def boolean_sum_model(mus, depth: int | None = None) -> FockModel:
    mus = list(mus)
    pair = mus[0].pair
    for mu in mus[1:]:
        if not pair.same_pair(mu.pair):
            raise DimensionMismatch("model components over different pairs")
    trunc = min(mu.truncation for mu in mus)
    if depth is None:
        depth = trunc
    comps = []
    for mu in mus:
        check_deg = min(depth, mu.truncation // 2)
        if check_deg >= 1:
            mat, _ = gram(mu, check_deg, no_free_term=False)
            _check_gram_psd(mat, "input moment Gram")
        comps.append({"levels": dict(mu.levels), "trunc": mu.truncation})
    scales = tuple({"ann": 1.0, "cre": 1.0, "gauge": 1.0} for _ in comps)
    return FockModel(
        kind="boolean", pair=pair, depth=depth, components=tuple(comps), scales=scales
    )


def build_boolean(mu: MomentFunctional, depth: int | None = None) -> FockModel:
    return boolean_sum_model([mu], depth)


def _kb_table(alpha: np.ndarray, sigma: SigmaForm) -> dict:
    table = {1: np.asarray(alpha, dtype=complex)}
    for m in range(sigma.truncation + 1):
        table[m + 2] = sigma.levels[m]
    return table


def free_sum_model(datas, depth: int | None = None) -> FockModel:
    datas = list(datas)
    pair = datas[0][1].pair
    comps = []
    for alpha, sigma in datas:
        if sigma.values_in != "B":
            raise DimensionMismatch("free model sigma form must be B-valued")
        if not pair.same_pair(sigma.pair):
            raise DimensionMismatch("model components over different pairs")
        alpha = np.asarray(alpha, dtype=complex)
        if alpha.shape != (pair.k, pair.k):
            raise DimensionMismatch("free model alpha must be k x k")
        require_hermitian(alpha)
        check_deg = sigma.truncation // 2
        if check_deg >= 0:
            mat, _ = sigma_gram(sigma, check_deg)
            _check_gram_psd(mat, "sigma form Gram")
        comps.append({"alpha": alpha, "kb": _kb_table(alpha, sigma), "sigma": sigma})
    if depth is None:
        depth = min(c["sigma"].truncation for c in comps) + 2
    scales = tuple({"ann": 1.0, "cre": 1.0, "gauge": 1.0} for _ in comps)
    return FockModel(
        kind="free", pair=pair, depth=depth, components=tuple(comps), scales=scales
    )


def build_free(alpha, sigma: SigmaForm, depth: int | None = None) -> FockModel:
    return free_sum_model([(alpha, sigma)], depth)


def cfree_sum_model(datas, depth: int | None = None) -> FockModel:
    datas = list(datas)
    pair = datas[0][1].pair
    comps = []
    for alpha1, sigma1, alpha2, sigma2 in datas:
        if sigma1.values_in != "B" or sigma2.values_in != "D":
            raise DimensionMismatch(
                "c-free model needs a B-valued and a D-valued sigma form"
            )
        if not (pair.same_pair(sigma1.pair) and pair.same_pair(sigma2.pair)):
            raise DimensionMismatch("model components over different pairs")
        alpha1 = np.asarray(alpha1, dtype=complex)
        alpha2 = np.asarray(alpha2, dtype=complex)
        if alpha1.shape != (pair.k, pair.k):
            raise DimensionMismatch("c-free alpha1 must be k x k")
        if alpha2.shape != (pair.d, pair.d):
            raise DimensionMismatch("c-free alpha2 must be d x d")
        require_hermitian(alpha1)
        require_hermitian(alpha2)
        mat1, _ = sigma_gram(sigma1, sigma1.truncation // 2)
        _check_gram_psd(mat1, "free-side sigma Gram")
        mat2, _ = sigma_gram(sigma2, sigma2.truncation // 2)
        _check_gram_psd(mat2, "c-free-side sigma Gram")
        comps.append(
            {
                "alpha1": alpha1,
                "kb": _kb_table(alpha1, sigma1),
                "sigma1": sigma1,
                "alpha2": alpha2,
                "ckd": _kb_table(alpha2, sigma2),
                "sigma2": sigma2,
            }
        )
    if depth is None:
        depth = min(c["sigma1"].truncation for c in comps) + 2
    scales = tuple({"ann": 1.0, "cre": 1.0, "gauge": 1.0} for _ in comps)
    return FockModel(
        kind="cfree", pair=pair, depth=depth, components=tuple(comps), scales=scales
    )


def build_cfree(alpha1, sigma1, alpha2, sigma2, depth: int | None = None) -> FockModel:
    return cfree_sum_model([(alpha1, sigma1, alpha2, sigma2)], depth)


def _rescaled(model: FockModel, n: int) -> FockModel:
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
    if model.kind != "boolean":
        raise NCIDError("boolean_root_model needs a boolean model")
    return _rescaled(model, n)


def free_root_model(model: FockModel, n: int) -> FockModel:
    if model.kind != "free":
        raise NCIDError("free_root_model needs a free model")
    return _rescaled(model, n)


def cfree_root_model(model: FockModel, n: int) -> FockModel:
    if model.kind != "cfree":
        raise NCIDError("cfree_root_model needs a c-free model")
    return _rescaled(model, n)


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


def apply_coefficient(model: FockModel, vec: dict, b) -> dict:
    b = np.asarray(b, dtype=complex)
    k = model.pair.k
    out: dict = {}
    if model.kind == "boolean":
        eb = model.pair.embed(b)
        for key, c in vec.items():
            if key == ():
                _vadd(out, key, eb @ c)
            else:
                tag, w = key
                for coef, w2 in _border(b, w, k):
                    _vadd(out, (tag, w2), coef * c)
    elif model.kind == "free":
        for key, c in vec.items():
            if key == ():
                _vadd(out, key, b @ c)
            else:
                tag, w = key[0]
                for coef, w2 in _border(b, w, k):
                    _vadd(out, ((tag, w2),) + key[1:], coef * c)
    else:
        eb = model.pair.embed(b)
        for key, c in vec.items():
            if key == ("O",) or key == ("D", ()):
                _vadd(out, key, eb @ c)
            elif key[0] == "D":
                h = key[1]
                tag, w = h[0]
                for coef, w2 in _border(b, w, k):
                    _vadd(out, ("D", ((tag, w2),) + h[1:]), coef * c)
            else:
                _, h, kw = key
                if h:
                    tag, w = h[0]
                    for coef, w2 in _border(b, w, k):
                        _vadd(out, ("K", ((tag, w2),) + h[1:], kw), coef * c)
                else:
                    tag, w = kw
                    for coef, w2 in _border(b, w, k):
                        _vadd(out, ("K", (), (tag, w2)), coef * c)
    return _clean(out)


def _h_degree(htuple) -> int:
    return sum(len(h[1]) for h in htuple)


def _bool_word_moment(comp: dict, w: tuple, pair: AlgebraPair) -> np.ndarray:
    j = len(w)
    if j > comp["trunc"]:
        raise TruncationExceeded(
            f"state extraction needs moments to degree {j}, stored {comp['trunc']}"
        )
    tail = comp["levels"][j][w[1:]] if j > 1 else comp["levels"][1]
    return pair.embedded_units[w[0]] @ tail


def _bool_q(comp: dict, w: tuple, pair: AlgebraPair) -> np.ndarray:
    """Centered return mu(Xw) - mu(X) mu(w); levels past the truncation are
    unreachable inside the exact grading window and count as zero."""
    j = len(w)
    lev = comp["levels"]
    d = pair.d
    mxw = lev[j + 1][w] if j + 1 <= comp["trunc"] else np.zeros((d, d), dtype=complex)
    if j <= comp["trunc"]:
        mw = _bool_word_moment(comp, w, pair)
        return mxw - lev[1] @ mw
    return mxw


def _apply_op_boolean(model, name, vec, t, sink) -> dict:
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
            elif sink is not None:
                sink.append(key)
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


def _lmult_tensor(val: np.ndarray, rest: tuple, c, k: int, out: dict, prefix=()):
    """Left-multiply a tensor key by a B-value, absorbing into the next factor
    or the vacuum coordinate."""
    if not rest:
        _vadd(out, prefix if prefix else (), val @ c)
        return
    tag, w = rest[0]
    for coef, w2 in _border(val, w, k):
        _vadd(out, prefix + ((tag, w2),) + rest[1:], coef * c)


def _apply_op_free(model, name, vec, t, sink) -> dict:
    comp = model.components[t]
    k = model.pair.k
    out: dict = {}
    alpha = comp["alpha"]
    for key, c in vec.items():
        if name == "create":
            if _h_degree(key) + 1 <= model.depth:
                for i in range(k):
                    _vadd(out, ((t, (i * k + i,)),) + key, c)
            elif sink is not None:
                sink.append(key)
            continue
        if name == "gauge":
            # left multiplication by alpha on the whole module
            if key == ():
                _vadd(out, (), alpha @ c)
            else:
                _lmult_tensor(alpha, key, c, k, out)
            continue
        if key == ():
            continue
        tag, w = key[0]
        if tag != t:
            continue
        if name == "annihilate":
            val = _free_annihilate_value(comp, w, k)
            _lmult_tensor(val, key[1:], c, k, out)
        elif name == "insert":
            if _h_degree(key) + 1 <= model.depth:
                for i in range(k):
                    _vadd(out, ((t, (i * k + i,) + w),) + key[1:], c)
            elif sink is not None:
                sink.append(key)
    return _clean(out)


def _apply_op_cfree(model, name, vec, t, sink) -> dict:
    comp = model.components[t]
    k = model.pair.k
    out: dict = {}
    alpha1, alpha2 = comp["alpha1"], comp["alpha2"]
    for key, c in vec.items():
        part = key[0]
        if name == "h_create":
            if part == "O":
                continue
            h = key[1]
            kw_deg = 0 if part == "D" else len(key[2][1])
            if _h_degree(h) + kw_deg + 1 <= model.depth:
                for i in range(k):
                    nk = (part, ((t, (i * k + i,)),) + h) if part == "D" else (
                        "K",
                        ((t, (i * k + i,)),) + h,
                        key[2],
                    )
                    _vadd(out, nk, c)
            elif sink is not None:
                sink.append(key)
        elif name == "h_annihilate":
            if part == "O":
                continue
            h = key[1]
            if not h or h[0][0] != t:
                continue
            val = _free_annihilate_value(comp, h[0][1], k)
            rest = h[1:]
            if part == "D":
                if rest:
                    sub: dict = {}
                    _lmult_tensor(val, rest, c, k, sub)
                    for kk, vv in sub.items():
                        _vadd(out, ("D", kk), vv)
                else:
                    _vadd(out, ("D", ()), model.pair.embed(val) @ c)
            else:
                kw = key[2]
                if rest:
                    sub = {}
                    _lmult_tensor(val, rest, c, k, sub)
                    for kk, vv in sub.items():
                        _vadd(out, ("K", kk, kw), vv)
                else:
                    tag2, w2 = kw
                    for coef, w3 in _border(val, w2, k):
                        _vadd(out, ("K", (), (tag2, w3)), coef * c)
        elif name == "gauge_h":
            if part == "O":
                continue
            h = key[1]
            if part == "D":
                if not h:
                    _vadd(out, key, model.pair.embed(alpha1) @ c)
                else:
                    sub = {}
                    _lmult_tensor(alpha1, h, c, k, sub)
                    for kk, vv in sub.items():
                        _vadd(out, ("D", kk), vv)
            else:
                kw = key[2]
                if not h:
                    tag2, w2 = kw
                    for coef, w3 in _border(alpha1, w2, k):
                        _vadd(out, ("K", (), (tag2, w3)), coef * c)
                else:
                    sub = {}
                    _lmult_tensor(alpha1, h, c, k, sub)
                    for kk, vv in sub.items():
                        _vadd(out, ("K", kk, kw), vv)
        elif name == "h_insert":
            if part == "O":
                continue
            h = key[1]
            if not h or h[0][0] != t:
                continue
            kw_deg = 0 if part == "D" else len(key[2][1])
            if _h_degree(h) + kw_deg + 1 <= model.depth:
                tag0, w0 = h[0]
                for i in range(k):
                    nh = ((tag0, (i * k + i,) + w0),) + h[1:]
                    nk = ("D", nh) if part == "D" else ("K", nh, key[2])
                    _vadd(out, nk, c)
            elif sink is not None:
                sink.append(key)
        elif name == "k_create":
            if part != "O":
                continue
            if 1 <= model.depth:
                for i in range(k):
                    _vadd(out, ("K", (), (t, (i * k + i,))), c)
            elif sink is not None:
                sink.append(key)
        elif name == "k_annihilate":
            if part != "K" or key[1]:
                continue
            tag2, w2 = key[2]
            if tag2 != t:
                continue
            j = len(w2)
            ckd = comp["ckd"]
            if j + 1 in ckd:
                val = ckd[j + 1][w2] if j > 0 else ckd[1]
                _vadd(out, ("O",), val @ c)
        elif name == "gauge_k":
            if part == "O":
                _vadd(out, key, alpha2 @ c)
        elif name == "k_insert":
            if part != "K" or key[1]:
                continue
            tag2, w2 = key[2]
            if tag2 != t:
                continue
            if len(w2) + 1 <= model.depth:
                for i in range(k):
                    _vadd(out, ("K", (), (tag2, (i * k + i,) + w2)), c)
            elif sink is not None:
                sink.append(key)
    return _clean(out)


def apply_op(model: FockModel, name: str, vec: dict, component: int = 0, sink=None) -> dict:
    """Apply one structural operator of a component to a sparse vector."""
    valid = {"boolean": _BOOL_OPS, "free": _FREE_OPS, "cfree": _CFREE_OPS}[model.kind]
    if name not in valid:
        raise NCIDError(f"unknown {model.kind} operator {name!r}")
    fn = {
        "boolean": _apply_op_boolean,
        "free": _apply_op_free,
        "cfree": _apply_op_cfree,
    }[model.kind]
    return fn(model, name, vec, component, sink)


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


def apply_generator(model: FockModel, vec: dict, component=None, sink=None) -> dict:
    """One application of the represented variable (or of one component's)."""
    tags = range(len(model.components)) if component is None else [component]
    parts = []
    for t in tags:
        s = model.scales[t]
        if model.kind == "boolean":
            parts.append(_vscale(apply_op(model, "annihilate", vec, t, sink), s["ann"]))
            parts.append(_vscale(apply_op(model, "create", vec, t, sink), s["cre"]))
            parts.append(_vscale(apply_op(model, "gauge", vec, t, sink), s["gauge"]))
            parts.append(apply_op(model, "transfer", vec, t, sink))
        elif model.kind == "free":
            parts.append(_vscale(apply_op(model, "annihilate", vec, t, sink), s["ann"]))
            parts.append(_vscale(apply_op(model, "create", vec, t, sink), s["cre"]))
            parts.append(_vscale(apply_op(model, "gauge", vec, t, sink), s["gauge"]))
            parts.append(apply_op(model, "insert", vec, t, sink))
        else:
            for nm, sc in (
                ("h_annihilate", s["ann"]),
                ("h_create", s["cre"]),
                ("gauge_h", s["gauge"]),
                ("h_insert", 1.0),
                ("k_annihilate", s["ann"]),
                ("k_create", s["cre"]),
                ("gauge_k", s["gauge"]),
                ("k_insert", 1.0),
            ):
                parts.append(_vscale(apply_op(model, nm, vec, t, sink), sc))
    return _vsum(parts)


def extract_state(model: FockModel, vec: dict, state: str = "phi") -> np.ndarray:
    d = model.pair.d
    if model.kind == "cfree":
        key = ("D", ()) if state == "phi" else ("O",)
        if state not in ("phi", "theta"):
            raise NCIDError(f"unknown state {state!r}")
        return vec.get(key, np.zeros((d, d), dtype=complex))
    if state != "phi":
        raise NCIDError(f"{model.kind} models only carry the phi state")
    if model.kind == "free":
        c = vec.get((), np.zeros((model.pair.k, model.pair.k), dtype=complex))
        return model.pair.embed(c)
    # boolean: centered labels are orthogonal to the vacuum
    return vec.get((), np.zeros((d, d), dtype=complex))


def model_moment(
    model: FockModel,
    bs,
    state: str = "phi",
    components=None,
    return_drops: bool = False,
):
    """phi (or theta) value of X b1 X b2 ... X bn in the model.

    components optionally assigns each X letter (left to right) to a model
    component; by default every letter is the sum of all components.
    """
    bs = list(bs)
    n = len(bs)
    if n > model.depth:
        raise DepthExceeded(f"word degree {n} exceeds model depth {model.depth}")
    if components is None:
        components = [None] * n
    if len(components) != n:
        raise DimensionMismatch("one component tag per letter required")
    sink: list = []
    vec = vacuum_vector(model, state)
    for b, comp in zip(reversed(bs), reversed(list(components))):
        vec = apply_coefficient(model, vec, b)
        vec = apply_generator(model, vec, component=comp, sink=sink)
    value = extract_state(model, vec, state)
    if return_drops:
        return value, len(sink)
    return value


# ---------------------------------------------------------------------------
# dense matrices


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
    keys = fock_basis(model, cap)
    index = {key: i for i, key in enumerate(keys)}
    v = _coord_dim(model)
    n = len(keys)
    check_gram_size(n, v, copies=2)  # the blocks and the tiled matrix
    blocks = np.zeros((n, n, v, v), dtype=complex)
    eye = np.eye(v, dtype=complex)
    for j, key in enumerate(keys):
        out = apply_op(model, name, {key: eye}, component, None)
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
    comp = model.components[ta]
    sig = comp["sigma"] if model.kind == "free" else comp["sigma1"]
    val = word_pairing(sig.levels, wa, wb, k, shift=2)
    if val is None:
        return np.zeros((k, k), dtype=complex)
    out: dict = {}
    _lmult_tensor(val, kb_[1:], np.eye(k, dtype=complex), k, out)
    total = np.zeros((k, k), dtype=complex)
    for key2, c in out.items():
        total = total + _free_pairing(model, ka[1:], key2 if key2 != () else ()) @ c
    return total


def gram_matrix(model: FockModel, cap: int):
    """Gram matrix of the basis keys under the model's inner product."""
    keys = fock_basis(model, cap)
    v = _coord_dim(model)
    n = len(keys)
    check_gram_size(n, v)
    blocks = np.zeros((n, n, v, v), dtype=complex)
    if model.kind == "boolean":
        # centered pairing: <w', w> = mu(w'* w) - mu(w')* mu(w); the vacuum
        # block is the identity and everything mixed or cross-component is 0
        pair = model.pair
        for i, ki in enumerate(keys):
            for j, kj in enumerate(keys):
                if ki == () and kj == ():
                    blocks[i, j] = np.eye(v, dtype=complex)
                elif ki == () or kj == ():
                    continue
                else:
                    ti, wi = ki
                    tj, wj = kj
                    if ti != tj:
                        continue
                    comp = model.components[ti]
                    raw = word_pairing(comp["levels"], wi, wj, pair.k)
                    a = _bool_word_moment(comp, wi, pair)
                    b = _bool_word_moment(comp, wj, pair)
                    blocks[i, j] = (0.0 if raw is None else raw) - a.conj().T @ b
    elif model.kind == "free":
        for i, ki in enumerate(keys):
            for j, kj in enumerate(keys):
                blocks[i, j] = _free_pairing(model, ki, kj)
    else:
        raise NCIDError("gram_matrix supports boolean and free models")
    return hermitian_gram(blocks), keys
