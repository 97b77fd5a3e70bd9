"""Majorisation predicates and T-transform decompositions vs brute force."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhorn import (
    MajorizationError,
    PrefixSumOverflowError,
    TTransformPlan,
    decompose_t_transforms,
    majorizes,
    majorizes_by_absolute_sums,
    replay_t_transform_plan,
)

from conftest import (
    majorizes_oracle,
    random_doubly_stochastic,
    random_majorized_pair,
)


class TTransform(NamedTuple):
    """One mixing step ``(j, k, t)``, as ``TTransformPlan.transforms`` yields it."""

    j: int
    k: int
    t: float


def t_transform_matrix(tr: TTransform, n: int) -> np.ndarray:
    """The doubly stochastic matrix realising a T-transform on length-n vectors."""
    m = np.eye(n)
    m[tr.j, tr.j] = m[tr.k, tr.k] = tr.t
    m[tr.j, tr.k] = m[tr.k, tr.j] = 1.0 - tr.t
    return m


def _reference_decompose(x, y, tol: float = 1e-9) -> TTransformPlan:
    """The decomposition as first written: a full re-sort of the active list per step."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not majorizes(x, y, tol):
        raise MajorizationError("x is not majorised by y")
    n = x.size
    source_order = np.argsort(-y, kind="stable")
    frame = y[source_order].astype(float)
    scale = max(1.0, float(np.max(np.abs(y))) if n else 1.0)
    settle = 1e-13 * scale
    order = np.argsort(-x, kind="stable")
    active = list(range(n))
    placement = np.empty(n, dtype=int)
    transforms = []
    for c in order:
        target = x[c]
        active.sort(key=lambda p: (-frame[p], p))
        top = active[0]
        if len(active) == 1 or frame[top] - target <= settle:
            placement[c] = top
            active.pop(0)
            continue
        pick = None
        for pos in range(1, len(active)):
            if frame[active[pos]] <= target:
                pick = pos
                break
        if pick is None:
            pick = len(active) - 1
        low = active[pick]
        denom = frame[top] - frame[low]
        if denom <= settle:
            placement[c] = top
            active.pop(0)
            continue
        t = min(1.0, max(0.0, (target - frame[low]) / denom))
        transforms.append(TTransform(int(top), int(low), t))
        hi, lo = frame[top], frame[low]
        frame[top] = t * hi + (1.0 - t) * lo
        frame[low] = (1.0 - t) * hi + t * lo
        placement[c] = top
        active.pop(0)
    return TTransformPlan(
        tuple(tr.j for tr in transforms),
        tuple(tr.k for tr in transforms),
        tuple(tr.t for tr in transforms),
        tuple(int(i) for i in source_order),
        tuple(int(i) for i in placement),
    )


def _plan_bits(plan: TTransformPlan):
    steps = [(j, k, float(t).hex()) for j, k, t in zip(plan.j, plan.k, plan.t)]
    assert len(steps) == len(plan.j) == len(plan.k) == len(plan.t)
    return steps, plan.source_order, plan.placement


def _assert_matches_reference(x, y):
    """Same plan as the re-sort reference, bit for bit, and a bitwise replay."""
    try:
        expected = _reference_decompose(x, y)
    except MajorizationError:
        with pytest.raises(MajorizationError):
            decompose_t_transforms(x, y)
        return
    plan = decompose_t_transforms(x, y)
    assert _plan_bits(plan) == _plan_bits(expected)
    w = np.asarray(y, dtype=float)[list(plan.source_order)]
    for tr in map(TTransform._make, plan.transforms):
        wj, wk = w[tr.j], w[tr.k]
        w[tr.j] = tr.t * wj + (1.0 - tr.t) * wk
        w[tr.k] = (1.0 - tr.t) * wj + tr.t * wk
    assert replay_t_transform_plan(plan, y).tobytes() == w[list(plan.placement)].tobytes()


short_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=6
)


def test_majorizes_frozen_cases():
    assert majorizes([2.0, 2.0], [1.0, 3.0])
    assert not majorizes([1.0, 3.0], [2.0, 2.0])
    assert majorizes([1.0, 1.0, 1.0], [3.0, 0.0, 0.0])
    assert not majorizes([1.0, 1.0], [1.0, 2.0])  # totals differ
    assert majorizes([0.25, 0.75], [0.75, 0.25])  # permutations majorise each other
    assert majorizes([5.0], [5.0])
    with pytest.raises(ValueError):
        majorizes([1.0], [1.0, 0.0])


def test_majorizes_routes_agree_random():
    rng = np.random.default_rng(201)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        if rng.random() < 0.5:
            x, y = random_majorized_pair(rng, n)
        else:
            x = rng.normal(size=n) * 3
            y = rng.normal(size=n) * 3
        expected = majorizes_oracle(x, y)
        assert majorizes(x, y) == expected
        assert majorizes_by_absolute_sums(x, y) == expected


@settings(max_examples=150, deadline=None)
@given(short_vectors, short_vectors)
def test_majorizes_routes_agree_hypothesis(x, y):
    if len(x) != len(y):
        x = (x * len(y))[: len(y)]
    a = majorizes(x, y)
    b = majorizes_by_absolute_sums(x, y)
    c = majorizes_oracle(x, y)
    assert a == b == c


def test_t_transform_matrix_is_doubly_stochastic_and_acts_right():
    rng = np.random.default_rng(202)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        j, k = rng.choice(n, size=2, replace=False)
        tr = TTransform(int(j), int(k), float(rng.random()))
        m = t_transform_matrix(tr, n)
        assert m.min() >= 0.0
        assert np.all(m.sum(axis=0) == 1.0) and np.all(m.sum(axis=1) == 1.0)
        v = rng.normal(size=n)
        mixed = v.copy()
        mixed[tr.j] = tr.t * v[tr.j] + (1.0 - tr.t) * v[tr.k]
        mixed[tr.k] = (1.0 - tr.t) * v[tr.j] + tr.t * v[tr.k]
        assert np.max(np.abs(m @ v - mixed)) <= 1e-12


def test_decompose_replays_exactly():
    rng = np.random.default_rng(203)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        x, y = random_majorized_pair(rng, n)
        plan = decompose_t_transforms(x, y)
        assert len(plan.transforms) <= n - 1 or n == 1
        back = replay_t_transform_plan(plan, y)
        assert np.max(np.abs(back - x)) <= 1e-9


def test_decompose_matches_resort_reference():
    rng = np.random.default_rng(209)
    for trial in range(240):
        n = int(rng.integers(1, 300)) if trial % 12 == 0 else int(rng.integers(1, 40))
        kind = trial % 4
        if kind == 0:
            y = rng.normal(size=n)
        elif kind == 1:
            y = rng.integers(-2, 3, size=n).astype(float)  # heavy ties
        elif kind == 2:
            y = np.resize(rng.integers(0, 3, size=max(1, n // 4)).astype(float), n)
        else:
            y = rng.choice([0.0, -0.0, 0.5, 1.0], size=n)
        choice = trial % 5
        if choice == 0:
            x = rng.permutation(y)
        elif choice == 1:
            x = np.full(n, y.sum() / n)
        else:
            x = random_doubly_stochastic(rng, n) @ y
            if kind and choice == 2:
                x = np.round(x * 4) / 4  # ties in x, sometimes not majorised
        _assert_matches_reference(x, y)


@settings(max_examples=150, deadline=None)
@given(short_vectors, st.randoms(use_true_random=False))
def test_decompose_matches_resort_reference_hypothesis(y, rnd):
    y = np.array(y)
    b = np.zeros((y.size, y.size))
    for w in (0.5, 0.3, 0.2):
        perm = list(range(y.size))
        rnd.shuffle(perm)
        b[np.arange(y.size), perm] += w
    _assert_matches_reference(b @ y, y)
    _assert_matches_reference(y[::-1].copy(), y)


def test_replay_rejects_out_of_range_positions():
    plan = TTransformPlan((0,), (3,), (0.5,), (0, 1, 2), (0, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        replay_t_transform_plan(plan, [3.0, 2.0, 1.0])


def test_majorizes_by_absolute_sums_at_scale():
    rng = np.random.default_rng(210)
    y = rng.normal(size=20_000)
    x = np.repeat(np.sort(y).reshape(-1, 2).mean(axis=1), 2)  # average neighbouring pairs
    assert majorizes_by_absolute_sums(x, y)
    assert not majorizes_by_absolute_sums(y, x)


def test_decompose_identity_needs_no_transforms():
    y = np.array([4.0, 1.0, -2.0, 1.0])
    plan = decompose_t_transforms(y, y)
    assert plan.transforms == ()
    assert np.max(np.abs(replay_t_transform_plan(plan, y) - y)) == 0.0


@pytest.mark.parametrize(
    "x, y",
    [
        ([1e308, 1e308], [1.7e308, 1.7e308]),  # both totals overflow to inf
        ([1.7e308, 0.0], [-1e308, -1e308]),  # -inf against a finite total
        ([0.0, 0.0, 0.0], [1.7e308, 1.7e308, -1.7e308]),  # a top-2 sum overflows
    ],
)
def test_overflowing_prefix_sums_give_no_verdict(x, y):
    for run in (majorizes, majorizes_by_absolute_sums, decompose_t_transforms):
        with pytest.raises(PrefixSumOverflowError):
            run(x, y)
        with pytest.raises(PrefixSumOverflowError):
            run(y, x)


def test_empty_vectors_majorise_each_other():
    assert majorizes([], [])
    plan = decompose_t_transforms([], [])
    assert plan == TTransformPlan((), (), (), (), ())
    assert replay_t_transform_plan(plan, []).size == 0


def test_decompose_rejects_non_majorized():
    with pytest.raises(MajorizationError):
        decompose_t_transforms([3.0, 0.0], [2.0, 1.0])


def test_majorization_respects_convex_order():
    # Majorisation implies sum f(x) <= sum f(y) for convex f; spot-check f = exp.
    rng = np.random.default_rng(208)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        x, y = random_majorized_pair(rng, n, scale=0.5)
        assert np.exp(x).sum() <= np.exp(y).sum() + 1e-9
