"""Matrix helpers and the eigensolver against independent oracles."""

import numpy as np
import pytest

from schurhorn import (
    ConvergenceError,
    DimensionMismatchError,
    as_matrix,
    hermitian_eigenvalues,
    hermitian_residual,
    projection_entry_excess,
    projection_residual,
    save_matrix,
    unitary_residual,
)
from schurhorn.cli import main

from conftest import random_hermitian, random_unitary, write_json


def _cubic_eigen_oracle(a):
    """Eigenvalues of a 3x3 Hermitian matrix via its characteristic polynomial."""
    tr = np.trace(a)
    minors = 0.0 + 0.0j
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minors += a[i, i] * a[j, j] - a[i, j] * a[j, i]
    det = np.linalg.det(a)
    roots = np.roots([1.0, -tr.real, minors.real, -det.real])
    return np.sort(roots.real)


def test_adjoint_and_residuals():
    rng = np.random.default_rng(104)
    a = random_hermitian(rng, 5)
    assert hermitian_residual(a) == 0.0
    assert np.max(np.abs(a.conj().T - a)) == 0.0
    u = random_unitary(rng, 5)
    assert unitary_residual(u) <= 1e-12
    p = u[:, :2] @ u[:, :2].conj().T
    assert projection_residual(p) <= 1e-12
    assert projection_residual(p + 0.01 * np.eye(5)) > 1e-10
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_hermitian_check_scales_with_the_entries():
    # The residual bound is STRUCTURAL_TOL * max(1, max|A|).
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.eye(2) + 1e-9 * skew)  # |A| ~ 1, residual 1e-9
    big = np.diag([1e6, -1e6])
    assert np.all(hermitian_eigenvalues(big + 1e-5 * skew) == [-1e6, 1e6])  # bound 1e-4
    with pytest.raises(ValueError):
        hermitian_eigenvalues(big + 1e-3 * skew)
    small = 1e-3 * np.eye(2)  # max|A| < 1: the bound is STRUCTURAL_TOL itself
    assert np.all(hermitian_eigenvalues(small + 5e-11 * skew) == [1e-3, 1e-3])
    with pytest.raises(ValueError):
        hermitian_eigenvalues(small + 2e-10 * skew)


def test_as_matrix_keeps_real_input_real():
    for a in ([[1, 0], [0, 1]], np.eye(2, dtype=bool), np.eye(2, dtype=np.float32), np.eye(2)):
        assert as_matrix(a).dtype == np.float64
    for a in ([[1j, 0], [0, 1]], np.eye(2, dtype=np.complex64), np.eye(2, dtype=np.complex128)):
        assert as_matrix(a).dtype == np.complex128
    m = np.eye(3)
    assert as_matrix(m) is m  # already float64: no copy


def test_lapack_failure_is_a_convergence_error(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ConvergenceError):
        hermitian_eigenvalues(a)
    save_matrix(tmp_path / "a.json", a)
    write_json(tmp_path / "y.json", {"values": [3.0, 1.0]})
    code = main(["verify", str(tmp_path / "a.json"), "--spectrum", str(tmp_path / "y.json")])
    capsys.readouterr()
    assert code == 3


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

