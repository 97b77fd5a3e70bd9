"""Matrix helpers and the eigensolver against independent oracles."""

import numpy as np
import pytest

from schurhorn import (
    ConvergenceError,
    DimensionMismatchError,
    adjoint,
    as_matrix,
    conjugate_by,
    diagonal,
    hermitian_eigenvalues,
    hermitian_residual,
    is_hermitian,
    is_projection,
    is_unitary,
    matmul,
    projection_entry_excess,
    projection_residual,
    save_matrix,
    save_vector,
    unitary_residual,
)
from schurhorn.cli import main

from conftest import random_hermitian, random_unitary


def _matmul_oracle(a, b):
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _cubic_eigen_oracle(a):
    """Eigenvalues of a 3x3 Hermitian matrix via its characteristic polynomial."""
    tr = np.trace(a)
    minors = 0.0 + 0.0j
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minors += a[i, i] * a[j, j] - a[i, j] * a[j, i]
    det = np.linalg.det(a)
    roots = np.roots([1.0, -tr.real, minors.real, -det.real])
    return np.sort(roots.real)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.max(np.abs(matmul(a, b) - _matmul_oracle(a, b))) <= 1e-9


def test_matmul_associative():
    rng = np.random.default_rng(102)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a, b, c = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left - right)) <= 1e-9


def test_matmul_shape_checks():
    with pytest.raises(DimensionMismatchError):
        matmul(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_conjugation_preserves_trace_and_spectrum():
    rng = np.random.default_rng(103)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        u = random_unitary(rng, n)
        b = conjugate_by(u, a)
        assert abs(np.trace(b) - np.trace(a)) <= 1e-9
        assert np.max(np.abs(np.linalg.eigvalsh(b) - np.linalg.eigvalsh(a))) <= 1e-9


def test_adjoint_and_residuals():
    rng = np.random.default_rng(104)
    a = random_hermitian(rng, 5)
    assert hermitian_residual(a) == 0.0
    assert is_hermitian(a)
    assert np.max(np.abs(adjoint(a) - a)) == 0.0
    u = random_unitary(rng, 5)
    assert unitary_residual(u) <= 1e-12
    assert is_unitary(u, tol=1e-10)
    p = u[:, :2] @ u[:, :2].conj().T
    assert projection_residual(p) <= 1e-12
    assert is_projection(p, tol=1e-10)
    assert not is_projection(p + 0.01 * np.eye(5), tol=1e-10)


FROZEN_EIGS = [
    (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 3.0])),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([-1.0, 1.0])),
    (
        np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]),
        np.array([1.0, 1.0, 4.0]),
    ),
]


@pytest.mark.parametrize("matrix,expected", FROZEN_EIGS)
def test_eigenvalues_frozen(matrix, expected):
    got = hermitian_eigenvalues(matrix)
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_eigenvalues_match_cubic_roots_oracle():
    rng = np.random.default_rng(105)
    for _ in range(25):
        a = random_hermitian(rng, 3)
        got = hermitian_eigenvalues(a)
        assert np.max(np.abs(got - _cubic_eigen_oracle(a))) <= 1e-8


def test_eigenvalues_match_lapack():
    rng = np.random.default_rng(106)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = random_hermitian(rng, n)
        got = hermitian_eigenvalues(a)
        assert np.max(np.abs(got - np.linalg.eigvalsh(a))) <= 1e-10


def test_eigenvalues_edge_cases():
    assert hermitian_eigenvalues(np.array([[3.5]]))[0] == 3.5
    assert np.all(hermitian_eigenvalues(np.zeros((4, 4))) == 0.0)
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lapack_failure_is_a_convergence_error(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ConvergenceError):
        hermitian_eigenvalues(a)
    save_matrix(tmp_path / "a.json", a)
    save_vector(tmp_path / "y.json", np.array([3.0, 1.0]))
    code = main(["verify", str(tmp_path / "a.json"), "--spectrum", str(tmp_path / "y.json")])
    capsys.readouterr()
    assert code == 3


def test_diagonal_rejects_imaginary_residue():
    a = np.array([[1.0 + 0.5j, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        diagonal(a)
    d = diagonal(np.diag([1.0, 2.0, 3.0]))
    assert d.dtype == np.float64
    assert np.all(d == [1.0, 2.0, 3.0])


def test_projection_entry_excess_zero_for_projections():
    p = np.full((2, 2), 0.5)
    assert projection_entry_excess(p) == 0.0
    rng = np.random.default_rng(107)
    u = random_unitary(rng, 6)
    q = u[:, :3] @ u[:, :3].conj().T
    assert projection_entry_excess(q) <= 1e-12


def test_projection_entry_excess_flags_violations():
    # Off-diagonal mass 0.5 exceeds min(d, 1-d) = 0.09 for d = 0.9.
    bad = np.array([[0.9, 0.5], [0.5, 0.9]])
    assert projection_entry_excess(bad) > 0.1

