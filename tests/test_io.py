"""JSON round trips for every artifact format, plus malformed-input rejection."""

import json
import math

import numpy as np
import pytest

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
    ZeroTail,
    build_case_a,
    build_case_b,
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


# Reference encoders: a matrix, plan or truncated-projection file is exactly
# ``json.dumps`` of one of these objects plus a newline.
def matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    flat = m.reshape(-1)
    return {"n": int(m.shape[0]), "data": np.stack((flat.real, flat.imag), 1).tolist()}


def plan_to_obj(plan) -> dict:
    return {
        "transforms": [
            {"j": tr.j + 1, "k": tr.k + 1, "t": float(tr.t)} for tr in plan.transforms
        ],
        "source_order": [p + 1 for p in plan.source_order],
        "placement": [p + 1 for p in plan.placement],
    }


def truncated_projection_to_obj(t) -> dict:
    return matrix_to_obj(t.matrix) | {
        "depth": t.depth,
        "covered": list(t.covered),
        "residual_bound": t.residual_bound,
        "permutation": list(t.diagonal_map),
    }


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
        assert path.read_text() == json.dumps(matrix_to_obj(a)) + "\n"  # compact, one line
        back = load_matrix(path)
        assert back.shape == a.shape
        assert back.tobytes() == a.tobytes()  # exact: floats survive JSON round trips


def test_matrix_writer_spells_non_finite_entries_as_json_does(tmp_path):
    quiet_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    a = np.array([
        [math.nan, complex(math.inf, -math.inf)],
        [complex(quiet_nan, -0.0), complex(0.0, math.nan)],
    ])
    path = tmp_path / "m.json"
    save_matrix(path, a)
    text = path.read_text()
    assert text == json.dumps(matrix_to_obj(a)) + "\n"
    assert text.count("NaN") == 3 and "[Infinity, -Infinity]" in text and "-0.0" in text


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
    """Entry-by-entry decoder: the accept/reject rules the matrix codec keeps."""
    n, data = obj["n"], obj["data"]
    if len(data) != n * n:
        raise FormatError("count")
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


@pytest.mark.parametrize("data", MATRIX_CASES)
def test_matrix_codec_accepts_what_the_reference_accepts(tmp_path, data):
    # A file holds lists and plain numbers, so a tuple or numpy scalar is
    # written as the list or number it holds; the reference reads the file too.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "data": data}, default=lambda v: v.item()))
    try:
        want = _reference_matrix_from_obj(json.loads(path.read_text()))
    except FormatError:
        with pytest.raises(FormatError):
            load_matrix(path)
        return
    got = load_matrix(path)
    assert got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()


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
        assert path.read_text() == json.dumps(plan_to_obj(plan)) + "\n"
        assert load_plan(path) == plan
    assert path.read_text().startswith(
        '{"transforms": [{"j": 1, "k": 2, "t": 0.0}, {"j": 2, "k": 3, "t": 1.0}, '
        '{"j": 3, "k": 1, "t": 0.3}, {"j": 3, "k": 1, "t": 1.0}], '
    )


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
        assert path.read_text() == json.dumps(plan_to_obj(plan)) + "\n"
        back = load_plan(path)
        assert back == plan
        assert replay_t_transform_plan(back, y).tobytes() == replay_t_transform_plan(
            plan, y).tobytes()


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
        assert path.read_text() == json.dumps(truncated_projection_to_obj(t)) + "\n"
        back = load_truncated_projection(path)
        assert np.all(back.matrix == t.matrix)
        assert back.depth == t.depth
        assert back.diagonal_map == t.diagonal_map
        assert back.covered == t.covered
        assert back.residual_bound == t.residual_bound


def test_truncated_projection_infinite_bound_round_trip(tmp_path):
    spec = SequenceSpec((), DivergentLow("0.5", Certificate("constant", 0.5)))
    t = build_case_a(spec, depth=2)
    path = tmp_path / "a.json"
    save_truncated_projection(path, t)
    assert path.read_text() == json.dumps(truncated_projection_to_obj(t)) + "\n"
    assert '"residual_bound": Infinity' in path.read_text()
    back = load_truncated_projection(path)
    assert back.residual_bound == math.inf
    assert back.diagonal_map == t.diagonal_map


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
