"""Deterministic JSON encoding of distributions, cumulant families and reports.

Every float is rendered with repr-faithful '%.17g' formatting and complex
numbers as two-element [re, im] arrays, so identical data always produces
byte-identical output regardless of platform or dict ordering history.
Every tensor entry is written as an [re, im] pair; on input a plain number
is accepted too, and entries that are not finite floats are rejected.
Output is streamed: save_path and the CLI write a document in pieces of at
most one tensor row, never holding its whole text, and the bytes are those
dumps returns.  A value that cannot be written raises before the first byte.
Input is decoded from the file's bytes: a tensor value in the layout dumps
writes, with or without JSON whitespace between its tokens (as a
pretty-printer writes it), is checked on its skeleton and parsed in
comma-aligned pieces of at most _PIECE_BYTES, straight into its float array,
so no copy or float list of a whole tensor is made.  Everything else (NaN or
Infinity anywhere, a value in another layout, a number json.loads rejects)
goes through json.loads of the UTF-8 text.  The values read and the errors
raised do not depend on the whitespace.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .algebra import AlgebraPair, check_pair_size
from .cumulants import KINDS, CumulantFamily, functional_of, value_dim, values_in
from .distribution import MomentFunctional, level_shape
from .errors import DimensionMismatch, NCIDError

# A member value made only of brackets, commas, number bytes and whitespace.
_TENSOR_VALUE = re.compile(rb":[ \t\n\r]*(\[[-+.0-9eE,\[\] \t\n\r]*\])")
_NUMBER_BYTES = b"-+.0123456789eE \t\n\r"  # and whitespace, which the skeleton drops
_PIECE_BYTES = 1 << 16  # the most bytes of a tensor value decoded at once
_MAX_AXES = 64  # numpy's limit


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _layout(shape, number: str) -> str:
    """The text of a complex tensor of that shape: nested rows of
    [re, im] pairs, each part written as `number`."""
    text = "[" + number + "," + number + "]"
    for n in reversed(shape):
        text = "[" + ",".join([text] * n) + "]"
    return text


def _check(obj) -> None:
    """Raise NCIDError if obj holds a non-finite float or a value of a type
    _emit cannot write, so that _emit fails before its first write."""
    if isinstance(obj, dict):
        for val in obj.values():
            _check(val)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            _check(val)
    elif isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():
            raise NCIDError("cannot serialize non-finite float")
    elif isinstance(obj, (float, np.floating, complex, np.complexfloating)):
        if not np.isfinite(obj):
            raise NCIDError("cannot serialize non-finite float")
    elif not isinstance(obj, (str, bool, int, np.integer, type(None))):
        raise NCIDError(f"cannot serialize object of type {type(obj).__name__}")


def _write(obj, write) -> None:
    if isinstance(obj, dict):
        write("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                write(",")
            write(json.dumps(str(key)))
            write(":")
            _write(val, write)
        write("}")
    elif isinstance(obj, (list, tuple)):
        write("[")
        for i, val in enumerate(obj):
            if i:
                write(",")
            _write(val, write)
        write("]")
    elif isinstance(obj, np.ndarray):  # a tensor: one '%' per leading-axis row
        a = np.asarray(obj, dtype=complex)
        layout = _layout(a.shape[1:], "%.17g")
        if a.ndim:
            write("[")
        for i, row in enumerate(a if a.ndim else [a]):
            if i:
                write(",")
            parts = np.ascontiguousarray(row).reshape(-1).view(float) + 0.0  # -0.0 becomes 0.0
            write(layout % tuple(parts.tolist()))
        if a.ndim:
            write("]")
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(_fmt(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        write("[" + _fmt(obj.real) + "," + _fmt(obj.imag) + "]")
    else:
        write("null")


def _emit(obj, write) -> None:
    """Write obj's JSON text through write(str), in pieces of at most one
    tensor row; a value that cannot be written raises NCIDError before the
    first piece."""
    _check(obj)
    _write(obj, write)


def dumps(obj) -> str:
    out: list = []
    _emit(obj, out.append)
    return "".join(out)


def tensor_to_json(t: np.ndarray) -> np.ndarray:
    """The tensor as a complex array, which dumps writes as nested
    row-major lists of [re, im] pairs; a 0-d tensor gives one pair."""
    return np.asarray(t, dtype=complex)


def _parse_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) for x in entry)
    ):
        return complex(entry[0], entry[1])
    raise DimensionMismatch(f"expected a number or [re, im] pair, got {entry!r}")


def tensor_from_json(data, shape) -> np.ndarray:
    """The complex tensor of that shape; entries are [re, im] pairs or numbers,
    in nested lists or in an array as load_path reads them."""
    try:
        arr = np.asarray(data)
    except ValueError:
        arr = None  # ragged or mixed entries: the walk below sorts them out
    if arr is not None and arr.dtype.kind in "bif" and np.isfinite(arr).all():
        if arr.shape == tuple(shape) + (2,):
            return np.ascontiguousarray(arr, dtype=float).view(complex).reshape(shape)
        if arr.shape == tuple(shape):
            return arr.astype(complex)
    if isinstance(data, np.ndarray):
        data = data.tolist()
    out = np.zeros(shape, dtype=complex)
    def fill(node, idx):
        depth = len(idx)
        if depth == len(shape):
            out[idx] = _parse_complex(node)
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise DimensionMismatch(
                f"expected a list of length {shape[depth]} at depth {depth}"
            )
        for i, sub in enumerate(node):
            fill(sub, idx + (i,))
    try:
        fill(data, ())
    except OverflowError as exc:  # an integer beyond float range
        raise DimensionMismatch(f"tensor entry out of float range: {exc}") from exc
    if not np.isfinite(out).all():
        raise DimensionMismatch("tensor entries must be finite numbers")
    return out


def _require(data: dict, key: str, kind=None):
    if not isinstance(data, dict) or key not in data:
        raise DimensionMismatch(f"missing required field {key!r}")
    val = data[key]
    if kind is not None and not isinstance(val, kind):
        raise DimensionMismatch(f"field {key!r} has wrong type")
    return val


def pair_to_json(pair: AlgebraPair) -> dict:
    return {
        "k": pair.k,
        "d": pair.d,
        "embed": tensor_to_json(pair.embed_matrix),
    }


def pair_from_json(data: dict) -> AlgebraPair:
    k = _require(data, "k", int)
    d = _require(data, "d", int)
    if k < 1 or d < 1:
        raise DimensionMismatch("k and d must be positive")
    check_pair_size(k, d)
    embed = tensor_from_json(_require(data, "embed"), (d * d, k * k))
    pair = AlgebraPair(k=k, d=d, embed_matrix=embed)
    pair.validate()
    return pair


def _levels_to_json(levels: dict) -> dict:
    """A checked level table (moments, a family or sigma), level by level."""
    return {str(n): tensor_to_json(t) for n, t in levels.items()}


def _levels_from_json(table, what: str, ns, shape_of) -> dict:
    """Levels n in ns of a level table, level n of shape shape_of(n);
    DimensionMismatch for a table that is not an object or misses a level."""
    if not isinstance(table, dict):
        raise DimensionMismatch(f"{what} table must be an object")
    levels = {}
    for n in ns:
        node = table.get(str(n))
        if node is None:
            raise DimensionMismatch(f"missing {what} level {n}")
        levels[n] = tensor_from_json(node, shape_of(n))
    return levels


def functional_to_json(mf: MomentFunctional) -> dict:
    out = pair_to_json(mf.pair)
    out["truncation"] = mf.truncation
    out["moments"] = _levels_to_json(mf.levels)
    return out


def functional_from_json(data: dict) -> MomentFunctional:
    pair = pair_from_json(data)
    trunc = _require(data, "truncation", int)
    levels = _levels_from_json(_require(data, "moments"), "moment", range(1, trunc + 1),
                               lambda n: level_shape(pair.k, pair.d, n))
    mf = MomentFunctional(pair=pair, truncation=trunc, levels=levels)
    mf.check_star()
    return mf


def family_to_json(fam: CumulantFamily) -> dict:
    return {"kind": fam.kind, **functional_to_json(functional_of(fam.kind, fam))}


def family_from_json(data: dict) -> CumulantFamily:
    kind = _require(data, "kind", str)
    if kind not in KINDS:
        raise DimensionMismatch(f"unknown cumulant kind {kind!r}")
    mf = functional_from_json(data)
    return CumulantFamily(
        kind=kind, pair=mf.pair, truncation=mf.truncation, levels=mf.levels
    )


def pair_file_to_json(mu: MomentFunctional, nu: MomentFunctional) -> dict:
    return {"mu": functional_to_json(mu), "nu": functional_to_json(nu)}


def pair_file_from_json(data: dict):
    return (
        functional_from_json(_require(data, "mu")),
        functional_from_json(_require(data, "nu")),
    )


def _pair_shape(skeleton: str):
    """The shape S whose _layout(S, "") is this skeleton, or None.

    S is read off the first group at each depth; the length check keeps a
    malformed skeleton from building a layout longer than itself.
    """
    depth = len(skeleton) - len(skeleton.lstrip("["))
    if depth > _MAX_AXES:
        return None
    sizes, length = [], 0
    for j in range(1, depth + 1):  # j brackets close the first group at depth - j + 1
        group = skeleton[depth - j : skeleton.find("]" * j) + j]
        n = group.count("]" * (j - 1) + ",") + 1
        sizes.append(n)
        length = n * (length + 1) + 1
    if length != len(skeleton) or sizes[0] != 2:
        return None
    shape = tuple(reversed(sizes[1:]))
    return shape if _layout(shape, "") == skeleton else None


def _value_shape(raw: bytes, start: int, end: int):
    """The shape S if raw[start:end] is laid out as _layout(S, number), or None.

    The skeleton (the value without its number characters and whitespace)
    is built one piece of at most _PIECE_BYTES at a time.
    """
    skeleton = b"".join(
        raw[i : min(i + _PIECE_BYTES, end)].translate(None, _NUMBER_BYTES)
        for i in range(start, end, _PIECE_BYTES)
    )
    return _pair_shape(skeleton.decode("ascii"))


def _read_numbers(raw: bytes, start: int, end: int, shape):
    """The numbers of raw[start:end], a value whose skeleton is
    _layout(shape, ""), as a float array of shape + (2,); None if one of
    them is not a JSON number or is an integer beyond float range.

    The value is cut at commas into pieces of at most _PIECE_BYTES (or one
    number, if that is longer), and each piece goes through one flat
    json.loads, so no copy or float list of the whole value is made.  A
    layout has one number between each two commas, so a piece of c commas
    must give c + 1 numbers: fewer means an empty one.
    """
    out, pos = np.empty(2 * math.prod(shape)), 0
    while start < end:
        cut = end
        if start + _PIECE_BYTES < end:
            cut = raw.rfind(b",", start, start + _PIECE_BYTES)
            if cut < 0:  # one number longer than a piece
                cut = raw.find(b",", start + _PIECE_BYTES, end)
                cut = end if cut < 0 else cut
        piece = raw[start:cut]
        try:
            # brackets become spaces: a number may not run on past one
            numbers = b"[" + piece.translate(bytes.maketrans(b"[]", b"  ")) + b"]"
            parts = np.array(json.loads(numbers), dtype=float)
        except (ValueError, OverflowError):  # not JSON numbers, or an integer beyond float range
            return None
        if len(parts) != piece.count(b",") + 1:
            return None
        out[pos : pos + len(parts)] = parts
        pos += len(parts)
        start = cut + 1
    return out.reshape(shape + (2,))


def _text(raw: bytes) -> str:
    """The file's text as open(path, encoding="utf-8").read() gives it."""
    return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _loads(raw: bytes):
    """json.loads of the file's text, except that each member value laid
    out as _layout lays out a tensor, JSON whitespace aside, becomes a float
    array of shape S + (2,).

    Such a value is checked and parsed from the bytes in pieces of at most
    _PIECE_BYTES (see _read_numbers), which gives the floats json.loads
    gives and rejects what it rejects.  The document keeps a NaN placeholder
    in its place, so a file that spells NaN or Infinity anywhere goes
    through plain json.loads of its text, as does any value that is not in
    that exact layout or holds a number json.loads rejects, and any file
    whose text json.loads rejects, so that the error is json.loads's own.
    """
    if b"NaN" in raw or b"Infinity" in raw:
        return json.loads(_text(raw))
    arrays = []

    def mark(match):
        start, end = match.span(1)
        shape = _value_shape(raw, start, end)
        parts = None if shape is None else _read_numbers(raw, start, end, shape)
        if parts is None:
            return match.group()
        arrays.append(parts)
        return b":NaN"

    marked = _TENSOR_VALUE.sub(mark, raw)
    placed = iter(arrays)
    try:
        data = json.loads(marked.decode("utf-8"), parse_constant=lambda _: next(placed))
    except (ValueError, RecursionError):  # bad syntax or encoding, a >4300-digit integer
        return json.loads(_text(raw))  # raises with the file's own positions
    if next(placed, None) is not None:  # a placeholder fell inside a string
        return json.loads(_text(raw))
    return data


def load_path(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise NCIDError(f"cannot read {path}: {exc}") from exc
    try:
        data = _loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, huge integers, deep nesting
        raise NCIDError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise NCIDError(f"{path} must contain a JSON object")
    return data


def save_path(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _emit(obj, fh.write)
        fh.write("\n")


def sigma_to_json(sigma) -> dict:
    return {
        "values_in": sigma.values_in,
        "truncation": sigma.truncation,
        "levels": _levels_to_json(sigma.levels),
    }


def sigma_from_json(data: dict, pair: AlgebraPair):
    from .certify import SigmaForm, sigma_level_shape

    values_in = _require(data, "values_in", str)
    trunc = _require(data, "truncation", int)
    shape = sigma_level_shape(pair, values_in, trunc)
    levels = _levels_from_json(_require(data, "levels", dict), "sigma", range(trunc + 1), shape)
    return SigmaForm(pair=pair, values_in=values_in, truncation=trunc, levels=levels)


def extraction_to_json(kind: str, pair: AlgebraPair, alpha, sigma) -> dict:
    out = {"kind": kind}
    out.update(pair_to_json(pair))
    out["alpha"] = tensor_to_json(np.asarray(alpha))
    out["sigma"] = sigma_to_json(sigma)
    return out


def extraction_from_json(data: dict):
    kind = _require(data, "kind", str)
    if kind not in KINDS:
        raise DimensionMismatch(f"unknown transform kind {kind!r}")
    pair = pair_from_json(data)
    v = value_dim(pair, values_in(kind))
    alpha = tensor_from_json(_require(data, "alpha"), (v, v))
    sigma = sigma_from_json(_require(data, "sigma"), pair)
    return kind, pair, alpha, sigma
