"""Unitary realisation of T-transforms, synthesis, and finite projections."""

import numpy as np
import pytest

from schurhorn import (
    InfeasibleDiagonalError,
    MajorizationError,
    carpenter_finite,
    decompose_t_transforms,
    hermitian_residual,
    projection_entry_excess,
    projection_residual,
    synthesize_hermitian,
    unitary_residual,
)
from schurhorn import schur
from schurhorn.schur import _mix_rows_to, _rotate

from conftest import (
    random_doubly_stochastic,
    random_majorized_pair,
    random_projection_diagonal,
)


def kadison_rotation(a, t: float) -> np.ndarray:
    """The 2x2 Kadison rotation of the real block ``a``, from the engine's scalar kernel."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {a.shape}")
    return np.array(schur._rotation_entries(*a.ravel().tolist(), t)).reshape(2, 2)


def random_symmetric(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    a += a.T
    return a


def test_kadison_rotation_frozen_real_case():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    u = kadison_rotation(a, 0.5)
    assert unitary_residual(u) <= 1e-12
    b = u @ a @ u.T
    assert np.max(np.abs(np.diag(b) - 0.5)) <= 1e-13


def test_kadison_rotation_validation():
    with pytest.raises(ValueError):
        kadison_rotation(np.eye(3), 0.5)
    with pytest.raises(ValueError):
        kadison_rotation(np.eye(2), 1.5)
    with pytest.raises(ValueError):
        kadison_rotation(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


_BIG = 1.7e308


def _rotation_blocks(rng):
    """Symmetric blocks ``[[a, b], [b, d]]`` as ``(a, b, d)``: random ones over
    six decades, then the edge cases."""
    for _ in range(100):
        a, d, b = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, size=3)
        yield float(a), float(b), float(d)
    yield from [
        (0.5, 0.3, 0.5), (0.5, -0.4, 0.5), (-2.0, 0.0, -2.0),  # a == d
        (0.7, 0.0, -0.2), (-0.2, 0.0, 0.7), (0.7, -0.0, -0.2), (-0.2, -0.0, 0.7),  # b == ±0
        (1.0, 1e-320, 0.0), (0.0, -5e-324, 1.0), (0.0, 1e-320, 0.0),  # subnormal b
        (_BIG, _BIG, -_BIG), (-_BIG, -_BIG, _BIG),  # near the float limit
        (_BIG, -_BIG, _BIG), (_BIG, 1.0, -_BIG), (1.0, -_BIG, 0.0),
    ]


@pytest.mark.parametrize("t_kind", ["zero", "one", "random"])
def test_rotation_rule_reaches_the_target_diagonal(t_kind):
    rng = np.random.default_rng(311)
    for a, b, d in _rotation_blocks(rng):
        t = {"zero": 0.0, "one": 1.0, "random": float(rng.random())}[t_kind]
        block = np.array([[a, b], [b, d]])
        g = kadison_rotation(block, t)
        assert unitary_residual(g) <= 1e-12
        # Compare in units of the largest part, so that no product overflows.
        scale = max(abs(a), abs(d), abs(b))
        unit = block / scale
        want = [t * unit[0, 0] + (1 - t) * unit[1, 1], (1 - t) * unit[0, 0] + t * unit[1, 1]]
        got = np.diag(g @ unit @ g.T)
        assert np.max(np.abs(got - want)) <= 1e-14, (a, b, d, t)
        if scale < 1e300:
            step = block.copy()
            _rotate(step, None, 0, 1, t)
            assert np.max(np.abs(np.diag(step) / scale - want)) <= 1e-14


def test_real_inputs_give_real_witnesses():
    rng = np.random.default_rng(312)
    for n in (2, 5, 16):
        x, y = random_majorized_pair(rng, n)
        res = synthesize_hermitian(x, y)
        b, v = random_symmetric(rng, n), np.eye(n)
        _mix_rows_to(b, range(n), random_doubly_stochastic(rng, n) @ np.diag(b), 1e-9, v)
        p = carpenter_finite(random_projection_diagonal(rng, n), tol=1e-6)
        for m in (res.matrix, res.unitary, b, v, p):
            assert m.dtype == np.float64


def test_apply_t_transform_unitarily_moves_diagonal_only():
    # One in-place rotation on a dense symmetric block, as in the Case-A repairs,
    # with the pair in either order.
    rng = np.random.default_rng(302)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = random_symmetric(rng, n)
        j, k = rng.choice(n, size=2, replace=False)
        j, k, t = int(j), int(k), float(rng.random())
        b, v = a.copy(), np.eye(n)
        _rotate(b, v, j, k, t)
        assert unitary_residual(v) <= 1e-12
        d = np.diag(a)
        want = d.copy()
        want[j] = t * d[j] + (1.0 - t) * d[k]
        want[k] = (1.0 - t) * d[j] + t * d[k]
        assert np.max(np.abs(np.diag(b) - want)) <= 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(b) - np.linalg.eigvalsh(a))) <= 1e-9


def test_synthesize_hermitian_random_pairs():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x, y = random_majorized_pair(rng, n)
        res = synthesize_hermitian(x, y)
        assert hermitian_residual(res.matrix) <= 1e-10
        assert unitary_residual(res.unitary) <= 1e-12
        assert np.max(np.abs(np.diag(res.matrix).real - x)) <= 1e-10
        got = np.linalg.eigvalsh(res.matrix)
        assert np.max(np.abs(got - np.sort(y))) <= 1e-8
        rebuilt = res.unitary @ np.diag(y) @ res.unitary.T
        assert np.max(np.abs(rebuilt - res.matrix)) <= 1e-9


def test_synthesize_identity_when_x_equals_y():
    y = np.array([3.0, 1.0, -2.0])
    res = synthesize_hermitian(y, y)
    assert np.max(np.abs(res.unitary - np.eye(3))) == 0.0
    assert np.max(np.abs(res.matrix - np.diag(y))) == 0.0


def test_synthesize_rejects_non_majorized():
    with pytest.raises(MajorizationError):
        synthesize_hermitian([2.0, 0.0], [1.5, 0.5])


def test_conjugate_to_diagonal_on_non_diagonal_input():
    # The whole chain on a dense symmetric matrix, as in the Case-A repairs.
    rng = np.random.default_rng(304)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = random_symmetric(rng, n)
        target = random_doubly_stochastic(rng, n) @ np.diag(a)
        b, v = a.copy(), np.eye(n)
        _mix_rows_to(b, range(n), target, 1e-9, v)
        assert unitary_residual(v) <= 1e-12
        assert np.max(np.abs(np.diag(b) - target)) <= 1e-9
        assert np.max(np.abs(v @ a @ v.T - b)) <= 1e-9
        assert np.max(np.abs(np.linalg.eigvalsh(b) - np.linalg.eigvalsh(a))) <= 1e-8


def _dense_chain(a, x):
    """Reference chain: permute, conjugate by each embedded n x n rotation, permute.

    Follows the plan of ``decompose_t_transforms`` using dense products
    ``V A V^T`` only, independently of the in-place engine.
    """
    n = a.shape[0]
    plan = decompose_t_transforms(x, np.diag(a))
    src = np.eye(n)[list(plan.source_order)]
    cur = src @ a @ src.T
    total = src
    for j, k, t in plan.transforms:
        v = np.eye(n)
        idx = np.ix_([j, k], [j, k])
        v[idx] = kadison_rotation(cur[idx], t)
        cur = v @ cur @ v.T
        total = v @ total
    place = np.eye(n)[list(plan.placement)]
    return place @ cur @ place.T, place @ total


@pytest.mark.parametrize("n", [16, 64])
def test_in_place_chain_matches_dense_reference(n):
    rng = np.random.default_rng(307 + n)
    x, y = random_majorized_pair(rng, n)
    res = synthesize_hermitian(x, y)
    want_a, want_u = _dense_chain(np.diag(y), x)
    assert np.max(np.abs(res.matrix - want_a)) <= 1e-12
    assert np.max(np.abs(res.unitary - want_u)) <= 1e-12

    a = random_symmetric(rng, n)
    target = random_doubly_stochastic(rng, n) @ np.diag(a)
    b, v = a.copy(), np.eye(n)
    _mix_rows_to(b, range(n), target, 1e-9, v)
    want_b, want_v = _dense_chain(a, target)
    assert np.max(np.abs(b - want_b)) <= 1e-12
    assert np.max(np.abs(v - want_v)) <= 1e-12


def _array_step(a, u, j, k, t):
    """Reference rotation step: a numpy 2x2 block through ``kadison_rotation``,
    then the same row and column products as the engine."""
    g = kadison_rotation(np.array([[a[j, j], a[j, k]], [a[k, j], a[k, k]]]), t)
    if j > k:
        j, k, g = k, j, g[::-1, ::-1]
    pair = slice(j, k + 1, k - j)
    a[pair] = g @ a[pair]
    a[:, pair] = a[:, pair] @ g.T
    if u is not None:
        u[pair] = g @ u[pair]


def _same_bits(p, q):
    return p.shape == q.shape and p.tobytes() == q.tobytes()


@pytest.mark.parametrize("n", [16, 64])
def test_scalar_step_is_bitwise_the_array_step(monkeypatch, n):
    rng = np.random.default_rng(309 + n)
    # Random steps on a dense symmetric matrix (the Case-A repair case), with
    # j > k as often as j < k.
    a = random_symmetric(rng, n)
    b, ref_b = a.copy(), a.copy()
    v, ref_v = np.eye(n), np.eye(n)
    steps = [(*map(int, rng.choice(n, size=2, replace=False)), float(rng.random()))
             for _ in range(3 * n)]
    assert any(j > k for j, k, _ in steps) and any(j < k for j, k, _ in steps)
    for j, k, t in steps:
        _rotate(b, v, j, k, t)
        _array_step(ref_b, ref_v, j, k, t)
    assert _same_bits(b, ref_b) and _same_bits(v, ref_v)

    # Whole chains through the engine, against the engine run on the reference step.
    x, y = random_majorized_pair(rng, n)
    target = random_doubly_stochastic(rng, n) @ np.diag(a)

    def mix():
        b, v = a.copy(), np.eye(n)
        _mix_rows_to(b, range(n), target, 1e-9, v)
        return b, v

    runs = [lambda: synthesize_hermitian(x, y), mix]
    got = [run() for run in runs]
    monkeypatch.setattr(schur, "_rotate", _array_step)
    want = [run() for run in runs]
    assert _same_bits(got[0].matrix, want[0].matrix)
    assert _same_bits(got[0].unitary, want[0].unitary)
    assert _same_bits(got[1][0], want[1][0]) and _same_bits(got[1][1], want[1][1])


@pytest.mark.parametrize(
    "entry, value, t",
    [
        ((1, 1), np.nan, 0.5),
        ((2, 1), np.inf, 0.5),
        ((1, 2), 2e-8, 0.5),  # off-diagonal defect: |A_12 - A_21| = 2e-8
        ((1, 1), 1.0, 1.5),
        ((1, 1), 1.0, -1e-3),
        ((1, 1), 1.0, np.nan),
    ],
    ids=["nan", "inf", "off-diagonal", "t-above", "t-below", "t-nan"],
)
def test_rotation_checks_raise_through_both_paths(entry, value, t):
    a = np.diag([0.0, 1.0, 0.5, 2.0])
    a[entry] = value
    with pytest.raises(ValueError):
        kadison_rotation(a[1:3, 1:3], t)
    with pytest.raises(ValueError):
        _rotate(a, None, 1, 2, t)
    with pytest.raises(ValueError):
        _rotate(a, None, 2, 1, t)


def test_synthesis_at_n256_meets_criterion_3_bounds():
    rng = np.random.default_rng(308)
    x, y = random_majorized_pair(rng, 256)
    res = synthesize_hermitian(x, y)
    assert hermitian_residual(res.matrix) <= 1e-10
    assert unitary_residual(res.unitary) <= 1e-12
    assert np.max(np.abs(np.diag(res.matrix).real - x)) <= 1e-10
    assert np.max(np.abs(np.linalg.eigvalsh(res.matrix) - np.sort(y))) <= 1e-8
    rebuilt = res.unitary @ np.diag(y) @ res.unitary.T
    assert np.max(np.abs(rebuilt - res.matrix)) <= 1e-9


def test_carpenter_finite_frozen():
    p = carpenter_finite([1.0, 0.0, 0.0])
    assert np.max(np.abs(p - np.diag([1.0, 0.0, 0.0]))) <= 1e-12
    p = carpenter_finite([0.5, 0.5])
    assert projection_residual(p) <= 1e-12
    assert np.max(np.abs(np.diag(p).real - 0.5)) <= 1e-12
    with pytest.raises(InfeasibleDiagonalError) as exc:
        carpenter_finite([0.5, 0.25])
    assert exc.value.defect == pytest.approx(0.25)
    with pytest.raises(ValueError):
        carpenter_finite([1.2])


def test_carpenter_finite_random_diagonals():
    rng = np.random.default_rng(305)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        d = random_projection_diagonal(rng, n)
        p = carpenter_finite(d, tol=1e-6)
        assert projection_residual(p) <= 1e-10
        assert np.max(np.abs(np.diag(p).real - d)) <= 1e-9
        assert projection_entry_excess(p) <= 1e-12