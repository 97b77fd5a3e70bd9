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