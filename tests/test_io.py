"""JSON round trips for every artifact format, plus malformed-input rejection."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhorn import (
    Certificate,
    DivergentHigh,
    DivergentLow,
    FormatError,
    GeometricHigh,
    GeometricLow,
    Interleave,
    OneTail,
    SequenceSpec,
    TTransformPlan,
    TruncatedProjection,
    ZeroTail,
    build_case_a,
    build_case_b,
    carpenter_finite,
    decompose_t_transforms,
    load_matrix,
    load_plan,
    load_sequence_spec,
    load_truncated_projection,
    load_vector,
    replay_t_transform_plan,
    save_matrix,
    save_plan,
    save_truncated_projection,
    term,
)

from conftest import (
    random_doubly_stochastic,
    random_hermitian,
    random_projection_diagonal,
    write_json,
)

HALF_INTERLEAVE = SequenceSpec(
    (0.3, 1.0), Interleave(GeometricLow(0.5, 0.5), GeometricHigh(0.5, 0.5))
)


# Reference encoders: a matrix, plan or truncated-projection file is one line
# of JSON that parses to the same value as ``json.dumps`` of one of these.
def matrix_to_obj(m) -> dict:
    """Row i of ``data`` is re a_i1, im a_i1, ..., re a_in, im a_in."""
    m = np.asarray(m, dtype=np.complex128)
    return {"n": int(m.shape[0]), "data": [
        [part for z in row for part in (z.real, z.imag)] for row in m.tolist()
    ]}


def matrix_to_pairs_obj(m) -> dict:
    """The layout earlier versions wrote: ``n**2`` row-major [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return {"n": int(m.shape[0]), "data": [[z.real, z.imag] for z in m.reshape(-1).tolist()]}


def plan_to_obj(plan) -> dict:
    return {
        "transforms": [
            {"j": j + 1, "k": k + 1, "t": float(t)} for j, k, t in plan.transforms
        ],
        "source_order": [p + 1 for p in plan.source_order],
        "placement": [p + 1 for p in plan.placement],
    }


def truncated_projection_to_obj(t, encode=matrix_to_obj) -> dict:
    return encode(t.matrix) | {
        "depth": t.depth,
        "covered": list(t.covered),
        "residual_bound": None if t.residual_bound == math.inf else t.residual_bound,
        "permutation": list(t.diagonal_map),
    }


def assert_loads_as(got, want) -> None:
    """``got``, a loaded matrix, holds ``want``'s entries bit for bit when both
    are read as complex128, and is float64 exactly when every imaginary part
    of ``want`` is +0.0."""
    want = np.asarray(want, dtype=np.complex128)
    real = not (want.imag != 0.0).any() and not np.signbit(want.imag).any()
    assert got.dtype == (np.float64 if real else np.complex128)
    assert got.shape == want.shape
    assert np.asarray(got, dtype=np.complex128).tobytes() == want.tobytes()


def assert_one_line_of(path, ref) -> None:
    """``path`` holds one line plus a newline, parsing to the JSON value of ``ref``."""
    text = path.read_text()
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert json.loads(text) == json.loads(json.dumps(ref))


def _load(loader, tmp_path, obj):
    """``loader`` run on a file holding ``obj`` as JSON text."""
    return loader(write_json(tmp_path / "in.json", obj))


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(401)
    extremes = random_hermitian(rng, 5)
    extremes[0, 0] = complex(-0.0, 5e-324)
    extremes[1, 3] = complex(1.7e308, -1.7e308)
    extremes[3, 1] = complex(-1.7e308, 1.7e308)
    cases = [extremes, random_hermitian(rng, 40), np.zeros((0, 0)), np.array([[2.5 - 0.5j]])]
    for pos, a in enumerate(cases):
        path = tmp_path / f"m{pos}.json"
        save_matrix(path, a)
        assert_one_line_of(path, matrix_to_obj(a))
        assert_loads_as(load_matrix(path), a)  # exact: floats survive JSON round trips


def test_matrix_loads_as_float64_exactly_when_every_imaginary_part_is_plus_zero(tmp_path):
    path = tmp_path / "m.json"
    # Real parts keep their bits, -0.0 included; an integer 0 reads as +0.0.
    path.write_text('{"n": 2, "data": [[1.5, 0.0], [-0.0, 0], [5e-324, 0.0], [-2.0, 0.0]]}')
    got = load_matrix(path)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == np.array([[1.5, -0.0], [5e-324, -2.0]]).tobytes()
    # One -0.0 imaginary part keeps the matrix complex, and the file round-trips exactly.
    path.write_text('{"n": 2, "data": [[1.5, 0.0], [0.5, -0.0], [0.5, 0.0], [2.0, 0.0]]}')
    got = load_matrix(path)
    want = np.array([[1.5, complex(0.5, -0.0)], [0.5, 2.0]])
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    save_matrix(tmp_path / "again.json", got)
    assert load_matrix(tmp_path / "again.json").tobytes() == want.tobytes()


def test_real_witnesses_are_written_as_rows_of_re_im_numbers(tmp_path):
    # The wire format holds n rows of 2n numbers, re and im interleaved, whatever
    # the dtype in memory: even slots hold the matrix row, odd slots +0.0.
    p = carpenter_finite(random_projection_diagonal(np.random.default_rng(6), 5), tol=1e-6)
    t = build_case_b(SequenceSpec((), HALF_INTERLEAVE.tail), depth=2)[-1]
    assert p.dtype == t.matrix.dtype == np.float64
    save_matrix(tmp_path / "p.json", p)
    save_truncated_projection(tmp_path / "t.json", t)
    for name, m in (("p.json", p), ("t.json", t.matrix)):
        data = json.loads((tmp_path / name).read_text())["data"]
        n = m.shape[0]
        assert n > 1 and len(data) == n
        assert all(type(row) is list and len(row) == 2 * n for row in data)
        assert [row[::2] for row in data] == m.tolist()
        assert all(type(im) is float and im == 0.0 and math.copysign(1.0, im) > 0
                   for row in data for im in row[1::2])


def test_matrix_load_peaks_below_twenty_times_the_matrix(tmp_path):
    # A file holds one list per row: a list per entry would add about 9x the matrix's bytes.
    a = np.random.default_rng(256).standard_normal((256, 256))
    path = tmp_path / "m.json"
    save_matrix(path, a)
    load_matrix(path)  # imports and caches are not the load's cost
    tracemalloc.start()
    try:
        got = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == a.tobytes()
    assert peak < 20 * got.nbytes, f"peak {peak / got.nbytes:.1f}x the matrix"


def test_writers_refuse_non_finite_entries(tmp_path):
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    tower = build_case_b(SequenceSpec((), Interleave(GeometricLow(0.5, 0.5),
                                                     GeometricHigh(0.5, 0.5))), depth=1)[0]
    for pos, entry in enumerate([complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, -0.0), complex(nan_payload, 0.0)]):
        a = np.eye(2, dtype=np.complex128)
        a[0, 1] = entry
        path = tmp_path / f"m{pos}.json"
        with pytest.raises(FormatError):
            save_matrix(path, a)
        assert not path.exists()
        bad = np.array(tower.matrix, dtype=np.complex128)  # the tower is real; the entry is not
        bad[-1, 0] = entry
        with pytest.raises(FormatError):
            save_truncated_projection(path, replace(tower, matrix=bad))
        assert not path.exists()
    for bound in (math.nan, -math.inf, -1.0):
        with pytest.raises(FormatError):
            save_truncated_projection(path, replace(tower, residual_bound=bound))
        assert not path.exists()
    # A depth beyond 64 bits loads (``json`` keeps the integer), but orjson cannot write it.
    with pytest.raises(FormatError, match="nothing was written"):
        save_truncated_projection(path, replace(tower, depth=2**64))
    assert not path.exists()
    path = tmp_path / "plan.json"
    with pytest.raises(FormatError):
        save_plan(path, TTransformPlan((0,), (1,), (math.nan,), (0, 1), (0, 1)))
    assert not path.exists()


def test_matrix_malformed(tmp_path):
    for obj in (
        {"n": 2, "data": [[0.0, 0.0]] * 3},
        {"data": [[0.0, 0.0]]},
        {"n": 1, "data": [[True, 0.0]]},
        {"n": 1, "data": [[0.0]]},
    ):
        with pytest.raises(FormatError):
            _load(load_matrix, tmp_path, obj)
    with pytest.raises(FormatError):
        save_matrix(tmp_path / "m.json", np.ones((2, 3)))


def _reference_matrix_from_obj(obj):
    """Entry-by-entry decoder: the accept/reject rules the matrix codec keeps.
    ``data`` holds n rows of 2n numbers, or n**2 [re, im] pairs as earlier files do."""
    n, data = obj["n"], obj["data"]
    if len(data) not in (n, n * n):
        raise FormatError("count")
    if len(data) != n * n:  # rows: each splits into n [re, im] pairs
        if not all(isinstance(row, (list, tuple)) and len(row) == 2 * n for row in data):
            raise FormatError("row")
        data = [row[2 * j:2 * j + 2] for row in data for j in range(n)]
    flat = np.empty(n * n, dtype=np.complex128)
    for pos, pair in enumerate(data):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in pair)
        ):
            raise FormatError("pair")
        try:
            flat[pos] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise FormatError("range") from exc
    if not np.all(np.isfinite(flat)):
        raise FormatError("finite")
    return flat.reshape(n, n)


MATRIX_CASES = [
    [[1.5, -2.0]],
    [(1, 2)],
    [[np.float64(0.25), 0]],
    [[2**70 + 1, -3]],
    [[10**308, 0]],
    [[10**400, 0]],
    [[0.0, 10**400]],
    [[math.inf, 0.0]],
    [[0.0, math.nan]],
    [[-0.0, 5e-324]],
    [[1.0, False]],
    [[None, 0.0]],
    [["1.5", 0.0]],
    [[1.0, 2.0, 3.0]],
    [[]],
    [[[1.0], 0.0]],
    [{"re": 1.0, "im": 0.0}],
    [1.0],
    ["ab"],
    [np.int64(1), 0.0],
    [[np.int64(1), 0.0]],
]
_ZEROS = [0.0] * 4
# n = 2: rows of 2n numbers (written files) and n**2 [re, im] pairs (earlier files).
MATRIX_CASES_2 = [
    [[1.5, 0.0, 0.25, -0.0], [0.25, 0.0, -2.0, 0.0]],
    [(1, 0.5, 2, 3), [0, -1, 5e-324, 0.0]],
    [[1.5, 0.0], [0.25, -0.0], [0.25, 0.0], [-2.0, 0.0]],
    [[1, 2], (3, 4), [5, 6], [7.5, 0]],
    [[1.0, 0.0], [2.0, 0.0]],  # pairs under n rows
    [[1.0, 0.0, 2.0, 0.0]] * 4,  # rows under n**2 entries
    [[1.0, 0.0, 2.0, 0.0], [1.0, 0.0, 2.0]],
    [[1.0, 0.0, 2.0, 0.0, 3.0, 0.0], [1.0, 0.0]],
    [[1.0, 0.0, 2.0, 0.0], []],
    [[1.0, 0.0, True, 0.0], _ZEROS],
    [_ZEROS, [1.0, "0.0", 2.0, 0.0]],
    [[1.0, 0.0, 2.0, None], _ZEROS],
    [[[1.0], 0.0, 2.0, 0.0], _ZEROS],
    [{"re": 1.0, "im": 0.0}, _ZEROS],
    [[10**400, 0, 0, 0], _ZEROS],
    [_ZEROS, [0.0, 0.0, 0.0, math.inf]],
    [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, True]],
    [_ZEROS] * 3,
    [_ZEROS],
    [[0.0, 0.0]] * 5,
    [],
]
# Explicit ids keep the n = 1 cases' earlier names.
_MATRIX_PARAMS = [(1, data) for data in MATRIX_CASES] + [(2, data) for data in MATRIX_CASES_2]


@pytest.mark.parametrize("n,data", _MATRIX_PARAMS,
                         ids=[f"data{pos}" for pos in range(len(_MATRIX_PARAMS))])
def test_matrix_codec_accepts_what_the_reference_accepts(tmp_path, n, data):
    # A file holds lists and plain numbers, so a tuple or numpy scalar is
    # written as the list or number it holds; the reference reads the file too.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": n, "data": data}, default=lambda v: v.item()))
    try:
        want = _reference_matrix_from_obj(json.loads(path.read_text()))
    except FormatError:
        with pytest.raises(FormatError):
            load_matrix(path)
        return
    assert_loads_as(load_matrix(path), want)


HUGE = 10**400  # a JSON integer beyond the float range
_TOWER_OBJ = {"n": 1, "data": [[1.0, 0.0]], "depth": 1, "covered": [1],
              "residual_bound": 3.0, "permutation": [1]}

OVERSIZED = [
    (load_matrix, {"n": 1, "data": [[HUGE, 0]]}),
    (load_vector, {"values": [0.5, HUGE]}),
    (load_plan, {"transforms": [{"j": 1, "k": 2, "t": HUGE}],
                 "source_order": [1, 2], "placement": [1, 2]}),
    (load_sequence_spec, {"prefix": [HUGE], "tail": {"kind": "zero"}}),
    (load_sequence_spec, {"prefix": [], "tail": {"kind": "geometric-low", "c": HUGE, "r": 0.5}}),
    (load_sequence_spec, {"prefix": [], "tail": {
        "kind": "divergent-low", "generator": "0.5",
        "certificate": {"kind": "constant", "p": HUGE, "start": 1}}}),
    (load_truncated_projection, dict(_TOWER_OBJ, residual_bound=HUGE)),
    (load_truncated_projection, dict(_TOWER_OBJ, data=[[1.0, HUGE]])),
]


@pytest.mark.parametrize("loader,obj", OVERSIZED)
def test_oversized_integer_is_a_format_error(tmp_path, loader, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        loader(path)


def _refuse(text):
    raise orjson.JSONDecodeError("refused", "", 0)


def _outcome(loader, path):
    """What ``loader`` gives for ``path``: the loaded value or the error message."""
    try:
        return loader(path)
    except FormatError as exc:
        return str(exc)


def _json_path_outcome(loader, path):
    """``_outcome`` with orjson refusing every text, so only ``json`` parses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "loads", _refuse)
        return _outcome(loader, path)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if not isinstance(a, TruncatedProjection):  # a plan or a spec: repr tells 2**64 from 2.0**64
        return type(a) is type(b) and repr(a) == repr(b)
    return (_same(a.matrix, b.matrix) and (a.depth, a.covered, a.diagonal_map)
            == (b.depth, b.covered, b.diagonal_map)
            and np.float64(a.residual_bound).tobytes() == np.float64(b.residual_bound).tobytes())


_DEEP = "[" * 2_000 + "]" * 2_000
_ONE = '{"n": 1, "data": [[1.0, 0.0]]'
_REST = ', "depth": 1, "covered": [1], "residual_bound": 0.5, "permutation": [1]'
_TOO_DEEP = "{path} nests JSON too deeply"
_PLAN = '{"transforms": [{"j": 1, "k": 2, "t": 0.5}], "source_order": [1, 2], "placement": [2, 1]}'
_SPEC = ('{"prefix": [0.5], "tail": {"kind": "divergent-low", "generator": "0.25", '
         '"certificate": {"kind": "constant", "p": 0.25, "start": 1}}}')
_GEOMETRIC = '{"kind": "geometric-low", "c": 0.5, "r": 0.5}'
_NESTED = _GEOMETRIC
for _ in range(10):
    _NESTED = '{"kind": "interleave", "parts": [' + _NESTED + ", " + _GEOMETRIC + "]}"

# Texts on which orjson and json disagree, with the message the reader raises
# (the json-only reader's) or None where the file loads.
DISAGREEING = {
    "nan-entry": (load_matrix, '{"n": 1, "data": [[NaN, 0.0]]}',
                  "matrix: entries must be finite"),
    "infinity-entry": (load_matrix, '{"n": 1, "data": [[0.0, -Infinity]]}',
                       "matrix: entries must be finite"),
    "overflowing-float": (load_matrix, '{"n": 1, "data": [[1e400, 0.0]]}',
                          "matrix: entries must be finite"),
    "overflowing-integer": (load_matrix, '{"n": 1, "data": [[1' + "0" * 400 + ', 0]]}',
                            "matrix: an entry is out of float range"),
    "65-bit-n": (load_matrix, '{"n": 18446744073709551616, "data": [[1.0, 0.0]]}',
                 f"matrix: expected {2**128} entries, got 1"),
    "deep-unknown-key": (load_matrix, _ONE + ', "note": ' + _DEEP + "}", _TOO_DEEP),
    "deep-data": (load_matrix, '{"n": 1, "data": ' + _DEEP + "}", _TOO_DEEP),
    "lone-surrogate": (load_matrix, _ONE + ', "note": "\\ud800"}', None),
    "brackets-in-a-string": (load_matrix, _ONE + ', "note": "]]{["}', None),
    "byte-order-mark": (load_matrix, "\ufeff" + _ONE + "}",
                        "{path} is not valid JSON: Unexpected UTF-8 BOM "
                        "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    "truncation-deep-unknown-key": (load_truncated_projection,
                                    _ONE + _REST + ', "note": ' + _DEEP + "}", _TOO_DEEP),
    "truncation-65-bit-depth": (load_truncated_projection,
                                _ONE + _REST.replace('"depth": 1', f'"depth": {2**64}') + "}",
                                None),
    "truncation-70-bit-covered": (load_truncated_projection,
                                  _ONE + _REST.replace("[1]", f"[{2**70}]", 1) + "}",
                                  "truncated projection: an index exceeds 2**53"),
    "truncation-infinite-bound": (load_truncated_projection,
                                  _ONE + _REST.replace("0.5", "Infinity") + "}", None),
    "truncation-nan-bound": (load_truncated_projection,
                             _ONE + _REST.replace("0.5", "NaN") + "}",
                             "truncated projection: depth must be >= 1 and bound non-negative"),
    "vector-nan": (load_vector, '{"values": [0.5, NaN]}', "vector: entries must be finite"),
    "vector-duplicate-keys": (load_vector, '{"values": [1.0], "values": [0.5, 2.0]}', None),
    "plan-65-bit-j": (load_plan, _PLAN.replace('"j": 1', f'"j": {2**64}'),
                      "plan: a position exceeds the frame length 2"),
    "plan-duplicate-keys": (load_plan, _PLAN.replace('"t": 0.5', '"t": 2.0, "t": 0.25'), None),
    "spec-65-bit-start": (load_sequence_spec, _SPEC.replace('"start": 1', f'"start": {2**64}'),
                          None),
    "spec-escaped-generator": (load_sequence_spec,
                               _SPEC.replace('"0.25"', '"0.25\\u0020+\\u00200.0"'), None),
    "spec-ten-nested-interleaves": (load_sequence_spec,
                                    '{"prefix": [], "tail": ' + _NESTED + "}", None),
}


@pytest.mark.parametrize("loader,text,message", DISAGREEING.values(), ids=DISAGREEING)
def test_reader_falls_back_to_json_where_orjson_disagrees(tmp_path, loader, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    got = _outcome(loader, path)
    if message is None:
        assert not isinstance(got, str), got
    else:
        assert got == message.format(path=path)
    assert _same(got, _json_path_outcome(loader, path))


def test_old_and_new_spellings_load_alike(tmp_path):
    # Earlier writers put ", " between all items, wrote n**2 [re, im] pairs
    # and spelled no bound Infinity.
    rng = np.random.default_rng(417)
    a = random_hermitian(rng, 7)
    spec = SequenceSpec((), Interleave(GeometricLow(0.5, 0.5), GeometricHigh(0.5, 0.5)))
    towers = [*build_case_b(spec, depth=2),
              build_case_a(SequenceSpec((), DivergentLow("0.5", Certificate("constant", 0.5))),
                           depth=2)]
    cases = [(load_matrix, save_matrix, a, matrix_to_pairs_obj(a))]
    cases += [(load_truncated_projection, save_truncated_projection, t,
               truncated_projection_to_obj(t, matrix_to_pairs_obj)
               | {"residual_bound": t.residual_bound})
              for t in towers]
    for loader, saver, value, old_obj in cases:
        new, old, indented = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "i.json"
        saver(new, value)
        old.write_text(json.dumps(old_obj))
        indented.write_text(json.dumps(old_obj, indent=2))
        assert ", " in old.read_text().partition('"data": ')[2][:40]
        assert _same(loader(new), loader(old)) and _same(loader(new), loader(indented))
    assert '"residual_bound": Infinity' in old.read_text()


def test_package_files_and_plain_inputs_load_without_json(tmp_path, monkeypatch):
    # orjson reads each of these alone: json.loads is never reached.
    tower = build_case_a(SequenceSpec((), DivergentLow("0.5", Certificate("constant", 0.5))),
                         depth=2)
    plan = decompose_t_transforms([1.0, 2.0, 3.0], [0.0, 2.0, 4.0])
    t_path, plan_path = tmp_path / "t.json", tmp_path / "plan.json"
    save_truncated_projection(t_path, tower)
    save_plan(plan_path, plan)
    v_path = write_json(tmp_path / "v.json", {"values": [0.25, -1.5, 3.0]})
    s_path = write_json(tmp_path / "s.json", {"prefix": [0.3, 1.0], "tail": {
        "kind": "interleave", "parts": [{"kind": "geometric-low", "c": 0.5, "r": 0.5},
                                        {"kind": "geometric-high", "c": 0.5, "r": 0.5}]}})
    monkeypatch.setattr("schurhorn.io.json.loads", _refuse)
    assert _same(load_matrix(t_path), tower.matrix)
    assert _same(load_truncated_projection(t_path), tower)
    assert _same(load_vector(v_path), np.array([0.25, -1.5, 3.0]))
    assert load_sequence_spec(s_path) == HALF_INTERLEAVE
    assert load_plan(plan_path) == plan


def test_vector_round_trip(tmp_path):
    v = np.array([0.25, -1.5, 3.0])
    path = tmp_path / "v.json"
    write_json(path, {"values": v.tolist()})
    assert np.all(load_vector(path) == v)
    with pytest.raises(FormatError):
        _load(load_vector, tmp_path, {"values": [1.0, "x"]})
    with pytest.raises(FormatError):
        _load(load_vector, tmp_path, {})


def test_plan_round_trip(tmp_path):
    y = np.array([4.0, 2.0, 1.0, 1.0])
    x = np.array([2.5, 2.5, 1.5, 1.5])
    plan = decompose_t_transforms(x, y)
    path = tmp_path / "plan.json"
    save_plan(path, plan)
    back = load_plan(path)
    assert back == plan
    assert np.max(np.abs(replay_t_transform_plan(back, y) - x)) <= 1e-9
    obj = plan_to_obj(plan)
    assert all(tr["j"] >= 1 and tr["k"] >= 1 for tr in obj["transforms"])

    weights = (0.0, 1.0, np.float64(0.3), 1)  # an int weight is written as a float
    mixed = TTransformPlan((0, 1, 2, 2), (1, 2, 0, 0), weights, (2, 0, 1), (1, 2, 0))
    for pos, plan in enumerate(
        [plan, TTransformPlan((), (), (), (), ()), TTransformPlan((), (), (), (0,), (0,)), mixed]
    ):
        path = tmp_path / f"plan{pos}.json"
        save_plan(path, plan)
        assert_one_line_of(path, plan_to_obj(plan))
        back = load_plan(path)
        assert back == plan
        assert np.array(back.t).tobytes() == np.array(plan.t, dtype=np.float64).tobytes()
    int_weight = json.loads(path.read_text())["transforms"][3]["t"]
    assert type(int_weight) is float and int_weight == 1.0


def test_plan_malformed(tmp_path):
    for obj in (
        {"transforms": [{"j": 0, "k": 2, "t": 0.5}], "source_order": [1], "placement": [1]},
        {"transforms": [{"j": 1, "k": 2, "t": 1.5}], "source_order": [1, 2],
         "placement": [1, 2]},
        {"transforms": [], "source_order": [0], "placement": [1]},
        {"transforms": []},
    ):
        with pytest.raises(FormatError):
            _load(load_plan, tmp_path, obj)


def _plan_obj(**changes):
    """A valid two-position plan object with ``changes`` applied."""
    return {"transforms": [{"j": 1, "k": 2, "t": 0.5}], "source_order": [2, 1],
            "placement": [1, 2]} | changes


def _step(**changes):
    return [{"j": 1, "k": 2, "t": 0.5} | changes]


@pytest.mark.parametrize(
    "obj",
    [
        _plan_obj(transforms=_step(k=1)),
        _plan_obj(transforms=_step(j=0)),
        _plan_obj(transforms=_step(k=-1)),
        _plan_obj(transforms=_step(t=-0.5)),
        _plan_obj(transforms=_step(t=math.nan)),
        _plan_obj(transforms=_step(j=True)),
        _plan_obj(transforms=_step(k=2.0)),
        _plan_obj(transforms=_step(t=True)),
        _plan_obj(transforms=_step(t="0.5")),
        _plan_obj(transforms=_step(t=1.5)),
        _plan_obj(transforms=[[1, 2, 0.5]]),
        _plan_obj(transforms=[None]),
        _plan_obj(transforms=_step(j=10**30)),
        _plan_obj(transforms=_step(k=10**30)),
        _plan_obj(source_order=[10**30, 1]),
        _plan_obj(placement=[1, 10**30]),
        _plan_obj(source_order=[True, 1]),
        _plan_obj(source_order=[0, 1]),
        _plan_obj(placement=[1, False]),
        _plan_obj(placement=[0, 2]),
        _plan_obj(source_order=[1, 1]),
        _plan_obj(placement=[2]),
        _plan_obj(placement=[1, 1]),
    ],
    ids=["j-equals-k", "zero-j", "negative-k", "t-below-zero", "nan-t", "bool-j", "float-k", "bool-t", "string-t", "t-above-one",
         "list-step", "null-step", "huge-j", "huge-k", "huge-source", "huge-placement",
         "bool-source", "zero-source", "bool-placement", "zero-placement",
         "repeated-source", "short-placement", "repeated-placement"],
)
def test_plan_from_obj_rejects_malformed_steps_and_orders(tmp_path, obj):
    want = TTransformPlan((0,), (1,), (0.5,), (1, 0), (0, 1))
    assert _load(load_plan, tmp_path, _plan_obj()) == want
    with pytest.raises(FormatError):
        _load(load_plan, tmp_path, obj)


def test_plan_round_trip_random_decompositions(tmp_path):
    # Gaussian spectra, heavy ties, and the 0/1 staircase that carpenter_finite
    # decomposes against, up to n = 512.
    rng = np.random.default_rng(412)
    cases = []
    for n in (1, 2, 5, 33, 128, 512):
        y = rng.normal(size=n)
        cases.append((random_doubly_stochastic(rng, n) @ y, y))
        ties = rng.integers(-2, 3, size=n).astype(float)
        cases.append((random_doubly_stochastic(rng, n) @ ties, ties))
        cases.append((rng.permutation(ties), ties))
        if n > 1:
            d = random_projection_diagonal(rng, n)
            staircase = np.zeros(n)
            staircase[: round(d.sum())] = 1.0
            cases.append((d, staircase))
    for pos, (x, y) in enumerate(cases):
        plan = decompose_t_transforms(x, y)
        path = tmp_path / f"plan{pos}.json"
        save_plan(path, plan)
        assert_one_line_of(path, plan_to_obj(plan))
        back = load_plan(path)
        assert back == plan
        assert np.array(back.t).tobytes() == np.array(plan.t, dtype=np.float64).tobytes()
        assert replay_t_transform_plan(back, y).tobytes() == replay_t_transform_plan(
            plan, y).tobytes()


def _float_from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Signed zeros, subnormals, the extremes, and values that repr and the
# writer's encoder spell differently (1e-07 / 1e-7, 2.5e-05 / 0.000025,
# 1e+16 / 1e16).
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1.7e308, -1.7e308, 1e-07, 2.5e-05, 1e16, -1e16, 0.1, 1.0]
finite_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_from_bits).filter(math.isfinite),
    st.sampled_from(SPECIAL_FLOATS),
)
# Bit patterns 0 .. 0x3FF0000000000000 are exactly the floats in [0.0, 1.0].
unit_floats = st.one_of(
    st.integers(0, 0x3FF0000000000000).map(_float_from_bits),
    st.sampled_from([f for f in SPECIAL_FLOATS if 0.0 <= f <= 1.0]),
)


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 6))
    parts = draw(st.lists(finite_floats, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)


@st.composite
def plans(draw):
    n = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        j = draw(st.integers(0, n - 1))
        steps.append((j, (j + draw(st.integers(1, n - 1))) % n, draw(unit_floats)))
    js, ks, ts = (tuple(col) for col in zip(*steps)) if steps else ((), (), ())
    orders = (tuple(draw(st.permutations(range(n)))) for _ in range(2))
    return TTransformPlan(js, ks, ts, *orders)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_matrix_writer_round_trips_float_bit_patterns(tmp_path_factory, a):
    path = tmp_path_factory.getbasetemp() / "hypothesis_matrix.json"
    save_matrix(path, a)
    assert_one_line_of(path, matrix_to_obj(a))
    orjson.loads(path.read_bytes())
    assert_loads_as(load_matrix(path), a)


float_spellings = st.one_of(
    finite_floats.map(repr),
    finite_floats.map("{:.17e}".format),
    finite_floats.map("{:.25E}".format),
    finite_floats.map("{:.3g}".format),
    st.integers(-(2**80), 2**80).map(str),
    st.integers(-(10**308), 10**308).map(str),
)


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(0, 3))
    parts = draw(st.lists(float_spellings, min_size=2 * n * n, max_size=2 * n * n))
    pairs = ", ".join(f"[{re}, {im}]" for re, im in zip(parts[::2], parts[1::2]))
    return n, parts, f'{{"n": {n}, "data": [{pairs}]}}'


@settings(max_examples=300, deadline=None)
@given(matrix_texts())
def test_matrix_reader_parses_every_spelling_as_json_does(tmp_path_factory, case):
    n, parts, text = case
    path = tmp_path_factory.getbasetemp() / "hypothesis_spelling.json"
    path.write_text(text)
    want = np.array([float(json.loads(p)) for p in parts], dtype=np.float64)  # "-0" is 0.0
    assert_loads_as(load_matrix(path), want.view(np.complex128).reshape(n, n))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_plan_writer_round_trips_float_bit_patterns(tmp_path_factory, plan):
    path = tmp_path_factory.getbasetemp() / "hypothesis_plan.json"
    save_plan(path, plan)
    assert_one_line_of(path, plan_to_obj(plan))
    back = load_plan(path)
    assert back == plan
    assert np.array(back.t, dtype=np.float64).tobytes() == np.array(plan.t).tobytes()


def test_sequence_spec_round_trip(tmp_path):
    # Every tail kind loads from its literal object to the spec it describes.
    geo_low = {"kind": "geometric-low", "c": 0.5, "r": 0.5}
    geo_high = {"kind": "geometric-high", "c": 0.5, "r": 0.5}
    cases = [
        (HALF_INTERLEAVE,
         {"prefix": [0.3, 1.0], "tail": {"kind": "interleave", "parts": [geo_low, geo_high]}}),
        (SequenceSpec((), ZeroTail()), {"prefix": [], "tail": {"kind": "zero"}}),
        (SequenceSpec((0.25,), OneTail()), {"prefix": [0.25], "tail": {"kind": "one"}}),
        (SequenceSpec((), GeometricHigh(0.5, 0.5)), {"prefix": [], "tail": geo_high}),
        (SequenceSpec((0.5,), DivergentLow("0.5/sqrt(i)", Certificate("harmonic", 0.5))),
         {"prefix": [0.5], "tail": {
             "kind": "divergent-low", "generator": "0.5/sqrt(i)",
             "certificate": {"kind": "harmonic", "p": 0.5, "start": 1}}}),
        (SequenceSpec((), DivergentHigh("0.25", Certificate("constant", 0.25, 3))),
         {"prefix": [], "tail": {
             "kind": "divergent-high", "generator": "0.25",
             "certificate": {"kind": "constant", "p": 0.25, "start": 3}}}),
        (SequenceSpec((0.0,), Interleave(Interleave(ZeroTail(), OneTail()),
                                         GeometricLow(0.5, 0.5))),
         {"prefix": [0.0], "tail": {"kind": "interleave", "parts": [
             {"kind": "interleave", "parts": [{"kind": "zero"}, {"kind": "one"}]}, geo_low]}}),
    ]
    for pos, (spec, obj) in enumerate(cases):
        back = load_sequence_spec(write_json(tmp_path / f"spec{pos}.json", obj))
        assert back == spec
        for i in range(1, 9):
            assert term(back, i) == term(spec, i)


def test_sequence_spec_malformed(tmp_path):
    for obj in (
        {"prefix": [0.5], "tail": {"kind": "triangular"}},
        {"prefix": [2.0], "tail": {"kind": "zero"}},
        {"prefix": [0.5], "tail": {"kind": "geometric-low", "c": 1.0}},
        {"prefix": [0.5], "tail": {"kind": "geometric-low", "c": 1.0, "r": 2.0}},
        {"prefix": [], "tail": {"kind": "interleave", "parts": [{"kind": "zero"}]}},
        {"prefix": [True], "tail": {"kind": "zero"}},
        {
            "prefix": [],
            "tail": {
                "kind": "divergent-low",
                "generator": "0.6",
                "certificate": {"kind": "constant", "p": 0.5, "start": 1},
            },
        },
    ):
        with pytest.raises(FormatError):
            _load(load_sequence_spec, tmp_path, obj)


def test_truncated_projection_round_trip(tmp_path):
    spec = SequenceSpec((), Interleave(GeometricLow(0.5, 0.5), GeometricHigh(0.5, 0.5)))
    tower = build_case_b(spec, depth=3)
    for t in tower:
        assert t.diagonal_map[-1] is None  # the slack position
        path = tmp_path / f"p{t.depth}.json"
        save_truncated_projection(path, t)
        assert_one_line_of(path, truncated_projection_to_obj(t))
        back = load_truncated_projection(path)
        assert_loads_as(back.matrix, t.matrix)
        assert back.depth == t.depth
        assert back.diagonal_map == t.diagonal_map
        assert back.covered == t.covered
        assert back.residual_bound == t.residual_bound


def test_truncated_projection_infinite_bound_round_trip(tmp_path):
    spec = SequenceSpec((), DivergentLow("0.5", Certificate("constant", 0.5)))
    t = build_case_a(spec, depth=2)
    path = tmp_path / "a.json"
    save_truncated_projection(path, t)
    assert_one_line_of(path, truncated_projection_to_obj(t))
    assert json.loads(path.read_text())["residual_bound"] is None
    orjson.loads(path.read_bytes())  # strict JSON: no Infinity literal
    # Files written before the bound was spelled null still load.
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(truncated_projection_to_obj(t, matrix_to_pairs_obj)
                                 | {"residual_bound": math.inf}))
    assert '"residual_bound": Infinity' in legacy.read_text()
    for p in (path, legacy):
        back = load_truncated_projection(p)
        assert back.residual_bound == math.inf
        assert_loads_as(back.matrix, t.matrix)
        assert back.diagonal_map == t.diagonal_map
        assert back.covered == t.covered and back.depth == t.depth


def test_truncated_projection_malformed(tmp_path):
    spec = SequenceSpec((), Interleave(GeometricLow(0.5, 0.5), GeometricHigh(0.5, 0.5)))
    t = build_case_b(spec, depth=1)[0]
    obj = truncated_projection_to_obj(t)
    assert _load(load_truncated_projection, tmp_path, obj).depth == 1

    bad_objs = [
        obj | {"permutation": obj["permutation"][:-1]},
        obj | {"permutation": [0] * len(obj["permutation"])},
        obj | {"covered": [1, -2]},
        obj | {"depth": 0},
        {key: value for key, value in obj.items() if key != "residual_bound"},
    ]
    for bad in bad_objs:
        with pytest.raises(FormatError):
            _load(load_truncated_projection, tmp_path, bad)
