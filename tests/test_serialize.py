from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncid.algebra import AlgebraPair
from ncid.certify import SigmaForm
from ncid.cumulants import CumulantFamily, boolean_from_moments, free_from_moments
from ncid.distribution import MomentFunctional, generate_realizable, scalar_from_moments
from ncid.errors import DimensionMismatch, NCIDError, NotHermitian
import ncid.serialize as serialize
from ncid.serialize import (
    _emit,
    dumps,
    extraction_from_json,
    extraction_to_json,
    family_from_json,
    family_to_json,
    functional_from_json,
    functional_to_json,
    load_path,
    pair_file_from_json,
    pair_file_to_json,
    pair_from_json,
    pair_to_json,
    save_path,
    sigma_from_json,
    sigma_to_json,
    tensor_from_json,
    tensor_to_json,
)

from conftest import (
    BERNOULLI_MOMENTS,
    SEMICIRCLE_MOMENTS,
    bvalued_realizable,
    hermitize,
    rand_b,
    twisted,
)


def test_dumps_is_plain_json():
    s = dumps({"a": [1.5, True, -2], "b": "x"})
    assert json.loads(s) == {"a": [1.5, True, -2], "b": "x"}


def test_dumps_bool_not_coerced_to_int():
    assert dumps({"pass": True}) == '{"pass":true}'


def test_dumps_17_digit_floats():
    v = 0.1 + 0.2
    s = dumps([v])
    assert float(json.loads(s)[0]) == v


def test_dumps_normalizes_negative_zero():
    assert dumps([-0.0]) == "[0]"


def test_dumps_rejects_nan_and_inf():
    with pytest.raises(NCIDError):
        dumps([float("nan")])
    with pytest.raises(NCIDError):
        dumps([float("inf")])


def test_dumps_deterministic_key_order():
    a = dumps({"z": 1, "a": 2})
    b = dumps({"z": 1, "a": 2})
    assert a == b


@pytest.mark.parametrize("k,d", [(1, 1), (1, 2), (2, 4)])
def test_pair_round_trip(k, d):
    pair = AlgebraPair.identity(k) if k == d else AlgebraPair.block_diagonal(k, d)
    back = pair_from_json(json.loads(dumps(pair_to_json(pair))))
    assert back.k == k and back.d == d
    assert np.array_equal(back.embed_matrix, pair.embed_matrix)


def test_functional_round_trip_bit_exact(mu24):
    data = json.loads(dumps(functional_to_json(mu24)))
    back = functional_from_json(data)
    assert back.truncation == mu24.truncation
    for n in range(1, mu24.truncation + 1):
        assert np.array_equal(back.raw(n), mu24.raw(n))


def test_functional_round_trip_scalar():
    mf = scalar_from_moments(SEMICIRCLE_MOMENTS)
    back = functional_from_json(json.loads(dumps(functional_to_json(mf))))
    for n in range(1, 7):
        assert np.array_equal(back.raw(n), mf.raw(n))


def test_family_round_trip(nu22):
    fam = free_from_moments(nu22)
    data = json.loads(dumps(family_to_json(fam)))
    assert data["kind"] == "free"
    back = family_from_json(data)
    assert back.kind == fam.kind
    for n in range(1, fam.truncation + 1):
        assert np.array_equal(back.levels[n], fam.levels[n])


def test_family_key_order(nu22):
    fam = free_from_moments(nu22)
    keys = list(json.loads(dumps(family_to_json(fam))).keys())
    assert keys == ["kind", "k", "d", "embed", "truncation", "moments"]


def test_pair_file_round_trip(mu24, pair24):
    nu = generate_realizable(30, pair24, 6, ambient=8)
    data = json.loads(dumps(pair_file_to_json(mu24, nu)))
    assert set(data) == {"mu", "nu"}
    bmu, bnu = pair_file_from_json(data)
    for n in range(1, 7):
        assert np.array_equal(bmu.raw(n), mu24.raw(n))
        assert np.array_equal(bnu.raw(n), nu.raw(n))


def test_loads_refuse_laws_that_are_not_star_compatible(mu22, nu22):
    """Laws, pair files and families go through functional_from_json, which
    raises NotHermitian for a level n whose *-residual is above
    DEFAULT_TOL * s^n, s the law's scale."""
    bent = dict(mu22.levels)
    bent[2] = mu22.levels[2].copy()
    bent[2][1, 0, 1] += 1e-3
    law = MomentFunctional(mu22.pair, mu22.truncation, bent)
    fam = CumulantFamily("boolean", law.pair, law.truncation, law.levels)
    for load, text in (
        (functional_from_json, dumps(functional_to_json(law))),
        (pair_file_from_json, dumps(pair_file_to_json(nu22, law))),
        (family_from_json, dumps(family_to_json(fam))),
    ):
        with pytest.raises(NotHermitian, match="level 2"):
            load(json.loads(text))


@pytest.mark.parametrize(
    "moments,from_moments",
    [(SEMICIRCLE_MOMENTS, free_from_moments), (BERNOULLI_MOMENTS, boolean_from_moments)],
)
def test_family_with_rounding_noise_levels_round_trips(moments, from_moments):
    """Free cumulants of a semicircle and boolean cumulants of Bernoulli
    vanish above level 2; twisted over M_2 those levels come out as rounding
    noise with no *-symmetry, which the load must still accept."""
    h = hermitize(rand_b(np.random.default_rng(5), 2))
    fam = from_moments(twisted(moments, h / np.linalg.norm(h, 2)))
    assert max(np.abs(fam.levels[n]).max() for n in (4, 6)) > 0
    back = family_from_json(json.loads(dumps(family_to_json(fam))))
    for n in range(1, fam.truncation + 1):
        assert np.array_equal(back.levels[n], fam.levels[n])


def test_sigma_round_trip(mu22):
    sigma = SigmaForm.from_bordered(mu22, values_in="B")
    data = json.loads(dumps(sigma_to_json(sigma)))
    back = sigma_from_json(data, mu22.pair)
    assert back.values_in == "B"
    assert back.truncation == sigma.truncation
    for m in range(sigma.truncation + 1):
        assert np.array_equal(back.levels[m], sigma.levels[m])


@pytest.mark.parametrize("change, message", [
    ({"values_in": "C"}, "values_in must be 'B' or 'D', got 'C'"),
    ({"truncation": -1}, "sigma truncation must be >= 0"),
    ({"values_in": "D"}, None),
], ids=["place", "truncation", "shape"])
def test_sigma_forms_and_their_json_refuse_alike(pair24, change, message):
    # read as D-valued, a B-valued form over (2, 4) has (2, 2) values, not (4, 4)
    sigma = SigmaForm.from_bordered(bvalued_realizable(3, pair24, 4), values_in="B")
    fields = {"values_in": "B", "truncation": sigma.truncation, "levels": sigma.levels, **change}
    with pytest.raises(DimensionMismatch, match=message):
        SigmaForm(pair=pair24, **fields)
    data = json.loads(dumps({**sigma_to_json(sigma), **change}))
    with pytest.raises(DimensionMismatch, match=message):
        sigma_from_json(data, pair24)


def test_extraction_round_trip(mu22):
    sigma = SigmaForm.from_bordered(mu22, values_in="D")
    alpha = mu22.raw(1)
    data = json.loads(dumps(extraction_to_json("boolean", mu22.pair, alpha, sigma)))
    kind, pair, balpha, bsigma = extraction_from_json(data)
    assert kind == "boolean"
    assert pair.k == 2 and pair.d == 2
    assert np.array_equal(balpha, alpha)
    for m in range(sigma.truncation + 1):
        assert np.array_equal(bsigma.levels[m], sigma.levels[m])


def test_functional_from_json_rejects_missing_field():
    mf = scalar_from_moments((0.0, 1.0))
    data = functional_to_json(mf)
    del data["truncation"]
    with pytest.raises(NCIDError):
        functional_from_json(json.loads(dumps(data)))


def test_functional_from_json_rejects_bad_shape():
    mf = scalar_from_moments((0.0, 1.0))
    data = json.loads(dumps(functional_to_json(mf)))
    data["moments"]["2"] = [[[1.0, 0.0]]]
    with pytest.raises(NCIDError):
        functional_from_json(data)


# Reference codec: the per-entry emitter and walk that wrote and read tensors
# one Python call per entry.  The whole-array codec must match it byte for
# byte and bit for bit.


def _entry_text(x) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise NCIDError("cannot serialize non-finite float")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _entrywise_text(node) -> str:
    if isinstance(node, list):
        return "[" + ",".join(_entrywise_text(x) for x in node) + "]"
    return "[" + _entry_text(node.real) + "," + _entry_text(node.imag) + "]"


def _entrywise_parse(data, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)

    def fill(node, idx):
        depth = len(idx)
        if depth == len(shape):
            if isinstance(node, (int, float)):
                out[idx] = complex(node)
            elif (
                isinstance(node, list)
                and len(node) == 2
                and all(isinstance(x, (int, float)) for x in node)
            ):
                out[idx] = complex(node[0], node[1])
            else:
                raise DimensionMismatch(f"expected a number or [re, im] pair, got {node!r}")
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise DimensionMismatch(f"expected a list of length {shape[depth]} at depth {depth}")
        for i, sub in enumerate(node):
            fill(sub, idx + (i,))

    fill(data, ())
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and float bits, so -0.0 differs from 0.0."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(np.ravel(a).view(np.uint64), np.ravel(b).view(np.uint64))
    )


_EDGE_SHAPES = [(), (0,), (3, 0), (0, 2, 2), (1,), (5,), (2, 3), (1, 1, 1), (4, 4, 2, 2)]
_EDGE_VALUES = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 1e300, -1e300, 5e-324, -5e-324,
     2.2250738585072014e-308, 1e16, 123456789.0, 2.0**53 + 2, -7.5e-200]
)


def _edge_tensors():
    rng = np.random.default_rng(20)
    for shape in _EDGE_SHAPES:
        size = int(np.prod(shape))
        for trial in range(4):
            re = rng.choice(_EDGE_VALUES, size)
            im = rng.choice(_EDGE_VALUES, size)
            if trial == 1:
                re = re * rng.standard_normal(size)
            t = (re + 1j * im).reshape(shape)
            yield t.real.copy() if trial == 3 else t


@pytest.mark.parametrize("t", list(_edge_tensors()), ids=lambda t: f"shape{t.shape}")
def test_tensor_codec_matches_entrywise_reference(t):
    text = dumps(tensor_to_json(t))
    assert text == _entrywise_text(np.asarray(t, dtype=complex).tolist())
    data = json.loads(text)
    assert _same_bits(tensor_from_json(data, t.shape), _entrywise_parse(data, t.shape))


def test_tensor_text_of_strided_views_and_negative_zero():
    t = np.arange(24, dtype=float).reshape(2, 3, 4) * (1 - 2j)
    for view in (t.T, t[:, ::2, 1:], t[..., 0]):
        assert dumps(tensor_to_json(view)) == _entrywise_text(view.tolist())
    assert dumps(tensor_to_json(np.array([complex(-0.0, -0.0)]))) == "[[0,0]]"
    assert dumps({"t": tensor_to_json(np.ones(1)), "x": -0.0}) == '{"t":[[1,0]],"x":0}'


@pytest.mark.parametrize(
    "data, shape",
    [
        ([[-0.0, -0.0], -0.0], (2,)),  # mixed pair and plain number
        ([1, [2, 3]], (2,)),
        ([True, False], (2,)),  # bools are numbers, as in Python
        ([[True, 1.5], [0, -2]], (2,)),
        ([[1, 2], [3, 4]], (2, 2)),  # plain numbers
        ([[1, 2], [3, 4]], (2,)),  # the same numbers as pairs
        ([2**62 + 1, -(2**62)], (2,)),  # int64 entries
        ([2**63, 1], (2,)),  # beyond int64
        ([-0.0, 0.0], ()),
        (-0.0, ()),
        (7, ()),
        ([], (0,)),
        ([[], []], (2, 0)),
    ],
)
def test_tensor_from_json_matches_entrywise_reference(data, shape):
    assert _same_bits(tensor_from_json(data, shape), _entrywise_parse(data, shape))


@pytest.mark.parametrize(
    "data, shape",
    [
        (["a", "b"], (2,)),
        ([None, 1], (2,)),
        ([[1, 0], [2]], (2,)),  # ragged
        ([[1, 0, 0], [2, 0, 0]], (2,)),  # triples
        ([1, 2, 3], (2,)),  # wrong length
        ([[[1, 0]]], (1,)),  # one level too deep
        ([1, 2], (2, 2)),  # one level too shallow
        ({"re": 1}, ()),
        ([[1, "0"]], (1,)),
    ],
)
def test_tensor_from_json_raises_the_reference_errors(data, shape):
    with pytest.raises(DimensionMismatch) as want:
        _entrywise_parse(data, shape)
    with pytest.raises(DimensionMismatch) as got:
        tensor_from_json(data, shape)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "data",
    [
        [float("nan"), 0.0],
        [0.0, float("inf")],
        float("-inf"),
        10**400,
        [1, -(10**400)],
        [1.5, 10**400],
    ],
)
def test_tensor_from_json_rejects_non_finite_and_overflowing_numbers(data):
    with pytest.raises(DimensionMismatch, match="finite|float range"):
        tensor_from_json([data, [1.0, 0.0]], (2,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
def test_dumps_rejects_non_finite_tensors(bad):
    t = np.zeros((2, 2), dtype=complex)
    t[1, 0] = bad
    with pytest.raises(NCIDError, match="non-finite"):
        dumps(tensor_to_json(t))


def test_a_non_finite_value_is_refused_before_the_first_write():
    bad = np.ones((2, 2), dtype=complex)
    bad[1, 1] = complex(0.0, float("nan"))
    written = []
    for obj in (
        {"first": np.ones((3, 2)), "second": bad},
        {"first": np.ones((3, 2)), "rest": [1, "x", float("inf")]},
        {"first": np.ones((3, 2)), "rest": [object()]},
    ):
        with pytest.raises(NCIDError, match="cannot serialize"):
            _emit(obj, written.append)
    assert written == []


def test_streamed_law_is_the_joined_text_and_holds_less_than_it(mu228, tmp_path):
    # Each tensor is written one leading-axis row at a time, so the text of
    # the whole law is never held: about 0.6 x its length is traced.
    obj = functional_to_json(mu228)
    text = dumps(obj)
    pieces = []
    _emit(obj, pieces.append)
    assert "".join(pieces) == text
    save_path(str(tmp_path / "law.json"), obj)
    assert (tmp_path / "law.json").read_text() == text + "\n"
    del pieces
    length = len(text)
    del text
    tracemalloc.start()
    try:
        _emit(obj, len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * length


def _loads_in_less_than_twice_its_file(path) -> None:
    tracemalloc.start()
    try:
        data = load_path(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * path.stat().st_size
    assert _same_law(functional_from_json(data), functional_from_json(_reference_load(path)))


def test_loading_a_law_holds_less_than_twice_its_file(mu228, tmp_path):
    # The file's bytes, the float arrays and one piece of one tensor at a
    # time: about 1.45 x the file's length.  A copy and a float list of each
    # whole tensor (3.8 x) breaks the bound.
    path = tmp_path / "law.json"
    save_path(path, functional_to_json(mu228))
    _loads_in_less_than_twice_its_file(path)


def test_loading_a_pretty_printed_law_holds_less_than_twice_its_file(mu228, tmp_path):
    # The law written with indent=1 (2.3 x the compact file) is read in
    # pieces too, about 1.2 x its length; through nested lists it is 3.8 x.
    path = tmp_path / "law.json"
    path.write_text(json.dumps(json.loads(dumps(functional_to_json(mu228))), indent=1))
    _loads_in_less_than_twice_its_file(path)


# load_path reads tensors in the exact layout dumps writes with one flat parse
# of their numbers; the reference is json.load followed by the nested lists.


def _reference_load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise NCIDError(str(exc)) from exc


def _same_law(a, b) -> bool:
    return a.truncation == b.truncation and all(
        _same_bits(a.levels[n], b.levels[n]) for n in a.levels
    ) and _same_bits(a.pair.embed_matrix, b.pair.embed_matrix)


_LAWS = {
    "k1d1n12": lambda: generate_realizable(3, AlgebraPair.identity(1), 12, 2),
    "k2d2n6": lambda: generate_realizable(4, AlgebraPair.block_diagonal(2, 2), 6, 8),
    "k2d4n5": lambda: generate_realizable(5, AlgebraPair.block_diagonal(2, 4), 5, 8),
}


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_load_path_then_dumps_gives_back_the_file(name, tmp_path):
    path = tmp_path / "law.json"
    save_path(path, functional_to_json(_LAWS[name]()))
    text = path.read_text()
    law = functional_from_json(load_path(path))
    assert dumps(functional_to_json(law)) + "\n" == text
    assert _same_law(law, functional_from_json(_reference_load(path)))
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(json.loads(text), indent=1))
    assert _same_law(functional_from_json(load_path(pretty)), law)


def test_load_path_of_family_and_pair_file(nu22, mu24, tmp_path):
    fam = family_from_json(json.loads(dumps(family_to_json(free_from_moments(nu22)))))
    save_path(tmp_path / "fam.json", family_to_json(fam))
    back = family_from_json(load_path(tmp_path / "fam.json"))
    assert back.kind == "free"
    assert all(_same_bits(back.levels[n], fam.levels[n]) for n in fam.levels)
    save_path(tmp_path / "pair.json", pair_file_to_json(mu24, mu24))
    mu, nu = pair_file_from_json(load_path(tmp_path / "pair.json"))
    want = functional_from_json(_reference_load(tmp_path / "pair.json")["mu"])
    assert _same_law(mu, want) and _same_law(nu, want)


@pytest.mark.parametrize("note", ["NaN", "Infinity", ":[[1,0]]", 'x":[[1,0]]'])
def test_load_path_keeps_strings_that_look_like_tensors(note, tmp_path):
    law = generate_realizable(6, AlgebraPair.identity(1), 4, 2)
    path = tmp_path / "law.json"
    save_path(path, {"note": note, **functional_to_json(law)})
    data = load_path(path)
    assert data["note"] == note
    assert _same_law(functional_from_json(data), law)


_SMALL_LAW = dumps(
    functional_to_json(generate_realizable(7, AlgebraPair.block_diagonal(2, 2), 3, 4))
)
_LEVEL_2 = _SMALL_LAW[_SMALL_LAW.index('"2":') + 4 : _SMALL_LAW.index(',"3":')]
_LEVEL_3 = _SMALL_LAW[_SMALL_LAW.index('"3":') + 4 : -2]
_PAIRS = [f"[{i},{-i}]" for i in range(16)]


def _nest(items: list, shape) -> str:
    """The texts in items as nested rows of that shape."""
    if len(shape) == 1:
        return "[" + ",".join(items) + "]"
    step = len(items) // shape[0]
    rows = (_nest(items[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0]))
    return "[" + ",".join(rows) + "]"


def _level_2(value: str) -> str:
    """The small law (level 2 has shape (4, 2, 2)) with level 2 replaced."""
    return _SMALL_LAW.replace(_LEVEL_2, value, 1)


def _pair_3(text: str) -> str:
    return _level_2(_nest(_PAIRS[:3] + [text] + _PAIRS[4:], (4, 2, 2)))


_MALFORMED = {
    "unchanged": _SMALL_LAW,
    "integer pairs": _level_2(_nest(_PAIRS, (4, 2, 2))),
    "empty array": _level_2("[]"),
    "empty rows": _level_2("[[],[],[],[]]"),
    "ragged": _level_2(_nest(_PAIRS, (4, 2, 2)).replace(",[1,-1]]", "]", 1)),
    "ragged, same length": _level_2(
        _nest(_PAIRS, (4, 2, 2)).replace("[[4,-4],[5,-5]]", "[[4,-4,5],[-5]]", 1)
    ),
    "triple": _pair_3("[1,2,3]"),
    "plain number": _pair_3("7"),
    "all plain numbers": _level_2(_nest([str(i) for i in range(16)], (4, 2, 2))),
    "1e400": _pair_3("[1e400,0]"),
    "-1e400": _pair_3("[0,-1e400]"),
    "400 digits": _pair_3("[" + "9" * 400 + ",0]"),
    "5000 digits": _pair_3("[" + "9" * 5000 + ",0]"),
    "beyond int64": _pair_3(f"[{2**63},{-(2**64)}]"),
    "negative zero": _pair_3("[-0.0,-0]"),
    "true": _pair_3("[true,0]"),
    "NaN": _pair_3("[NaN,0]"),
    "Infinity": _pair_3("[0,Infinity]"),
    "-Infinity": _pair_3("[-Infinity,0]"),
    "string": _pair_3('["1",0]'),
    "leading zero": _pair_3("[01,0]"),
    "plus sign": _pair_3("[+1,0]"),
    "bare dot": _pair_3("[.5,0]"),
    "space": _pair_3("[1, 0]"),
    "level 3 as level 2": _level_2(_LEVEL_3),
    "one level too deep": _level_2("[" + _nest(_PAIRS, (4, 2, 2)) + "]"),
    "short outer axis": _level_2(_nest(_PAIRS[:8], (2, 2, 2))),
    "axes swapped": _level_2(_nest(_PAIRS, (2, 4, 2))),
    "missing comma in a tensor": _level_2(_nest(_PAIRS, (4, 2, 2)).replace("],[", "][", 1)),
    "missing comma between members": _SMALL_LAW.replace(',"truncation"', '"truncation"', 1),
    "unclosed": _SMALL_LAW[:-1],
    "deep nesting": _level_2("[" * 100000 + "]" * 100000),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_load_path_keeps_values_and_error_types_of_the_nested_reader(name, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(_MALFORMED[name])
    try:
        want = functional_from_json(_reference_load(path))
    except NCIDError as exc:
        with pytest.raises(NCIDError) as got:
            functional_from_json(load_path(path))
        assert type(got.value) is type(exc)
    else:
        assert _same_law(functional_from_json(load_path(path)), want)


def _loads_like_the_reference(path) -> None:
    """load_path gives the reference's law, or its error type and message."""
    try:
        want = functional_from_json(_reference_load(path))
    except NCIDError as exc:
        with pytest.raises(NCIDError) as got:
            functional_from_json(load_path(path))
        assert type(got.value) is type(exc)
        syntax = type(exc) is NCIDError  # the reference wraps json's own error
        assert str(got.value) == (f"{path} is not valid JSON: {exc}" if syntax else str(exc))
    else:
        assert _same_law(functional_from_json(load_path(path)), want)


def _late_pair(text: str) -> str:
    """The small law with the second last pair of level 2 replaced."""
    return _level_2(_nest(_PAIRS[:14] + [text] + _PAIRS[15:], (4, 2, 2)))


_PRETTY = json.dumps(json.loads(_SMALL_LAW), indent=1).replace("\n", "\r\n")
_AT_PIECE_EDGES = {
    "unchanged": _SMALL_LAW.encode(),
    "integer pairs": _level_2(_nest(_PAIRS, (4, 2, 2))).encode(),
    "malformed number in a later piece": _late_pair("[1.,0]").encode(),
    "leading zero in a later piece": _late_pair("[0,01]").encode(),
    "empty real part": _late_pair("[,1]").encode(),
    "empty imaginary part": _late_pair("[1,]").encode(),
    "empty number between two": _late_pair("[1,,2]").encode(),
    "beyond float range in a later piece": _late_pair("[" + "9" * 400 + ",0]").encode(),
    "beyond the digit limit in a later piece": _late_pair("[" + "9" * 5000 + ",0]").encode(),
    "a number longer than a piece": _late_pair("[1." + "0" * 300 + "1,-0]").encode(),
    "UTF-8 BOM": "\ufeff".encode() + _SMALL_LAW.encode(),
    "UTF-16": _SMALL_LAW.encode("utf-16"),
    "CRLF": _PRETTY.encode(),
    "CRLF, missing comma": _PRETTY.replace(",", "", 7).encode(),
    "invalid UTF-8": _SMALL_LAW.replace("truncation", "trunc\u00e9tion").encode()[:-3] + b"\xc3(}",
    "a space after each comma": _level_2(_nest(_PAIRS, (4, 2, 2)).replace(",", ", ")).encode(),
    "a newline inside a value": _level_2(
        " \r\n" + _nest(_PAIRS, (4, 2, 2)).replace("],[", "],\n\t[")
    ).encode(),
    "a space inside a number": _late_pair("[1 3,0]").encode(),
    "a number after a closing bracket": _level_2(
        _nest(_PAIRS, (4, 2, 2)).replace("[2,-2],[", "[2,-2]5,[", 1)
    ).encode(),
    "a number after a closing bracket and a space": _level_2(
        _nest(_PAIRS, (4, 2, 2)).replace("[2,-2],[", "[2,-2] 5,[", 1)
    ).encode(),
}


@pytest.mark.parametrize("piece", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("name", list(_AT_PIECE_EDGES))
def test_pieces_read_as_the_nested_reader_at_every_boundary(name, piece, tmp_path, monkeypatch):
    # piece 1 puts a boundary at every comma; 1 << 16 reads each tensor whole
    monkeypatch.setattr(serialize, "_PIECE_BYTES", piece)
    path = tmp_path / "law.json"
    path.write_bytes(_AT_PIECE_EDGES[name])
    _loads_like_the_reference(path)


def _mutated(draw, text: str) -> str:
    """text with one byte-level change: a digit replaced by a number
    character, a comma doubled or dropped, a bracket moved or deleted, or a
    JSON whitespace character put in anywhere."""
    op = draw(st.sampled_from(["digit", "comma", "bracket", "whitespace"]))
    if op == "whitespace":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from(" \t\n\r")) + text[i:]
    if op == "digit":
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]))
        return text[:i] + draw(st.sampled_from("-+.eE")) + text[i + 1 :]
    if op == "comma":
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c == ","]))
        return text[:i] + draw(st.sampled_from([",,", ""])) + text[i + 1 :]
    i = draw(st.sampled_from([i for i, c in enumerate(text) if c in "[]"]))
    rest = text[:i] + text[i + 1 :]
    if draw(st.booleans()):
        return rest
    j = draw(st.integers(0, len(rest)))
    return rest[:j] + text[i] + rest[j:]


def test_mutated_laws_read_as_the_nested_reader(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("mutated")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        text = _SMALL_LAW
        for _ in range(data.draw(st.integers(1, 3))):
            text = _mutated(data.draw, text)
        path = tmp_dir / "law.json"
        path.write_text(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_PIECE_BYTES", data.draw(st.sampled_from([1, 7, 1 << 16])))
            _loads_like_the_reference(path)

    check()


def test_a_malformed_skeleton_builds_no_layout_longer_than_itself(monkeypatch):
    layout = serialize._layout
    built = []
    monkeypatch.setattr(
        serialize, "_layout", lambda shape, number: built.append(shape) or layout(shape, number)
    )
    m = 300  # a first row of m pairs beside m - 1 rows of one: the first rows read as shape (m, m)
    skeleton = "[" + _nest(["[,]"] * m, (m,)) + ",[[,]]" * (m - 1) + "]"
    assert serialize._pair_shape(skeleton) is None
    assert built == []
