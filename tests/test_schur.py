"""Unitary realisation of T-transforms, synthesis, and finite projections."""

import numpy as np
import pytest

from schurhorn import (
    InfeasibleDiagonalError,
    MajorizationError,
    TTransform,
    apply_t_transform,
    carpenter_finite,
    conjugate_to_diagonal,
    decompose_t_transforms,
    hermitian_residual,
    kadison_rotation,
    projection_entry_excess,
    projection_residual,
    synthesize_hermitian,
    unitary_residual,
)
from schurhorn import schur
from schurhorn.schur import _rotate

from conftest import (
    random_doubly_stochastic,
    random_hermitian,
    random_majorized_pair,
    random_projection_diagonal,
)


def test_kadison_rotation_frozen_real_case():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    u = kadison_rotation(a, 0.5)
    assert unitary_residual(u) <= 1e-12
    b = u @ a @ u.conj().T
    assert np.max(np.abs(np.diag(b).real - 0.5)) <= 1e-13
    assert np.max(np.abs(np.diag(b).imag)) <= 1e-13


def test_kadison_rotation_complex_offdiagonal():
    rng = np.random.default_rng(301)
    for _ in range(100):
        a = random_hermitian(rng, 2)
        t = float(rng.random())
        u = kadison_rotation(a, t)
        assert unitary_residual(u) <= 1e-12
        b = u @ a @ u.conj().T
        d0, d1 = a[0, 0].real, a[1, 1].real
        want = np.array([t * d0 + (1 - t) * d1, (1 - t) * d0 + t * d1])
        assert np.max(np.abs(np.diag(b).real - want)) <= 1e-12
        assert np.max(np.abs(np.diag(b).imag)) <= 1e-12


def test_kadison_rotation_validation():
    with pytest.raises(ValueError):
        kadison_rotation(np.eye(3), 0.5)
    with pytest.raises(ValueError):
        kadison_rotation(np.eye(2), 1.5)
    with pytest.raises(ValueError):
        kadison_rotation(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


def test_apply_t_transform_unitarily_moves_diagonal_only():
    # One in-place rotation on a dense Hermitian block, as in the Case-A repairs,
    # with the pair in either order.
    rng = np.random.default_rng(302)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        j, k = rng.choice(n, size=2, replace=False)
        tr = TTransform(int(j), int(k), float(rng.random()))
        b, v = a.astype(np.complex128), np.eye(n, dtype=np.complex128)
        _rotate(b, v, tr.j, tr.k, tr.t)
        assert unitary_residual(v) <= 1e-12
        want = apply_t_transform(tr, np.diag(a).real)
        assert np.max(np.abs(np.diag(b).real - want)) <= 1e-12
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
        rebuilt = res.unitary @ np.diag(y) @ res.unitary.conj().T
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
    rng = np.random.default_rng(304)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        target = random_doubly_stochastic(rng, n) @ np.diag(a).real
        b, v = conjugate_to_diagonal(a, target)
        assert unitary_residual(v) <= 1e-12
        assert np.max(np.abs(np.diag(b).real - target)) <= 1e-9
        assert np.max(np.abs(v @ a @ v.conj().T - b)) <= 1e-9
        assert np.max(np.abs(np.linalg.eigvalsh(b) - np.linalg.eigvalsh(a))) <= 1e-8


def _dense_chain(a, x):
    """Reference chain: permute, conjugate by each embedded n x n rotation, permute.

    Follows the plan of ``decompose_t_transforms`` using dense products
    ``V A V*`` only, independently of the in-place engine.
    """
    n = a.shape[0]
    plan = decompose_t_transforms(x, np.diag(a).real)
    src = np.eye(n, dtype=np.complex128)[list(plan.source_order)]
    cur = src @ a @ src.conj().T
    total = src
    for tr in plan.transforms:
        v = np.eye(n, dtype=np.complex128)
        idx = np.ix_([tr.j, tr.k], [tr.j, tr.k])
        v[idx] = kadison_rotation(cur[idx], tr.t)
        cur = v @ cur @ v.conj().T
        total = v @ total
    place = np.eye(n, dtype=np.complex128)[list(plan.placement)]
    return place @ cur @ place.conj().T, place @ total


@pytest.mark.parametrize("n", [16, 64])
def test_in_place_chain_matches_dense_reference(n):
    rng = np.random.default_rng(307 + n)
    x, y = random_majorized_pair(rng, n)
    res = synthesize_hermitian(x, y)
    want_a, want_u = _dense_chain(np.diag(y).astype(np.complex128), x)
    assert np.max(np.abs(res.matrix - want_a)) <= 1e-12
    assert np.max(np.abs(res.unitary - want_u)) <= 1e-12

    a = random_hermitian(rng, n)
    target = random_doubly_stochastic(rng, n) @ np.diag(a).real
    b, v = conjugate_to_diagonal(a, target)
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
    a[:, pair] = a[:, pair] @ g.conj().T
    if u is not None:
        u[pair] = g @ u[pair]


def _same_bits(p, q):
    return p.shape == q.shape and p.tobytes() == q.tobytes()


@pytest.mark.parametrize("n", [16, 64])
def test_scalar_step_is_bitwise_the_array_step(monkeypatch, n):
    rng = np.random.default_rng(309 + n)
    # Random steps on a dense Hermitian matrix (the Case-A repair case), with
    # j > k as often as j < k.
    a = random_hermitian(rng, n)
    b, ref_b = a.astype(np.complex128), a.astype(np.complex128)
    v, ref_v = np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128)
    steps = [(*map(int, rng.choice(n, size=2, replace=False)), float(rng.random()))
             for _ in range(3 * n)]
    assert any(j > k for j, k, _ in steps) and any(j < k for j, k, _ in steps)
    for j, k, t in steps:
        _rotate(b, v, j, k, t)
        _array_step(ref_b, ref_v, j, k, t)
    assert _same_bits(b, ref_b) and _same_bits(v, ref_v)

    # Whole chains through the engine, against the engine run on the reference step.
    x, y = random_majorized_pair(rng, n)
    target = random_doubly_stochastic(rng, n) @ np.diag(a).real
    runs = [lambda: synthesize_hermitian(x, y), lambda: conjugate_to_diagonal(a, target)]
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
        ((2, 1), complex(np.inf, 0.0), 0.5),
        ((1, 2), 2e-8, 0.5),  # off-diagonal defect: |A_12 - conj(A_21)| = 2e-8
        ((2, 2), 1.0 + 1e-8j, 0.5),  # imaginary diagonal: |A_22 - conj(A_22)| = 2e-8
        ((1, 1), 1.0, 1.5),
        ((1, 1), 1.0, -1e-3),
        ((1, 1), 1.0, np.nan),
    ],
    ids=["nan", "inf", "off-diagonal", "imaginary-diagonal", "t-above", "t-below", "t-nan"],
)
def test_rotation_checks_raise_through_both_paths(entry, value, t):
    a = np.diag([0.0, 1.0, 0.5, 2.0]).astype(np.complex128)
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
    rebuilt = res.unitary @ np.diag(y) @ res.unitary.conj().T
    assert np.max(np.abs(rebuilt - res.matrix)) <= 1e-9


def test_conjugate_to_diagonal_rejects_bad_target():
    a = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(MajorizationError):
        conjugate_to_diagonal(a, [0.25, 0.85])


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