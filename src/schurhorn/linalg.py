"""Dense matrix helpers and structural checks.

Matrices are plain numpy arrays: ``float64`` when the input is real (bool,
integer or float entries) and ``complex128`` otherwise, so a real witness is
checked in real arithmetic.  Every routine treats its inputs as immutable
and returns fresh arrays, so callers may pass views without worrying about
aliasing.  Eigenvalues come from LAPACK (``numpy.linalg.eigvalsh``) behind a
Hermitian-input check.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STRUCTURAL_TOL",
    "INTEGER_TOL",
    "DimensionMismatchError",
    "ConvergenceError",
    "as_matrix",
    "hermitian_residual",
    "unitary_residual",
    "projection_residual",
    "hermitian_eigenvalues",
    "projection_entry_excess",
]

# Max-entry tolerance for structural predicates (Hermitian / unitary / projection).
STRUCTURAL_TOL = 1e-10
# Tolerance for "is this sum an integer" decisions.  Must stay below 1/4 so the
# nearest integer is unambiguous for the defect values that occur in practice.
INTEGER_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operand shapes do not line up."""


class ConvergenceError(RuntimeError):
    """The LAPACK eigensolver failed to converge."""


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square matrix, validating finiteness.

    Real input (bool, integer or float entries) becomes ``float64``, any
    other input ``complex128``; an array already of that dtype is not copied.
    """
    m = np.asarray(a)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatchError("matrices must have dimension >= 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def hermitian_residual(a) -> float:
    """Max-entry norm of ``A - A*``."""
    return _hermitian_gap(as_matrix(a))


def _hermitian_gap(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max())


def unitary_residual(u) -> float:
    """Larger of the max-entry norms of ``UU* - I`` and ``U*U - I``."""
    u = as_matrix(u)
    eye = np.eye(u.shape[0])
    r1 = np.max(np.abs(u @ u.conj().T - eye))
    r2 = np.max(np.abs(u.conj().T @ u - eye))
    return float(max(r1, r2))


def projection_residual(p) -> float:
    """Larger of the max-entry norms of ``P^2 - P`` and ``P - P*``."""
    p = as_matrix(p)
    return float(max(np.max(np.abs(p @ p - p)), np.max(np.abs(p - p.conj().T))))


def hermitian_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    Checks the input is Hermitian (max-entry residual at most
    ``STRUCTURAL_TOL * max(1, max|A|)``, so the check scales with the entries
    as rounding does) and delegates to LAPACK through
    ``numpy.linalg.eigvalsh``; a LAPACK failure raises
    :class:`ConvergenceError`.
    """
    a = as_matrix(a)
    gap = _hermitian_gap(a)
    # gap > TOL * max(1, max|A|), with the scan for max|A| only when gap > TOL.
    if gap > STRUCTURAL_TOL and gap > STRUCTURAL_TOL * float(np.abs(a).max()):
        raise ValueError("hermitian_eigenvalues requires a Hermitian input")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc


def projection_entry_excess(p) -> float:
    """Worst violation of the entrywise projection bounds.

    For a projection ``P`` every entry satisfies
    ``|P_st|^2 <= min(P_tt, P_ss, 1 - P_tt, 1 - P_ss)`` and every column has
    ``sum_{s != t} |P_st|^2 <= min(P_tt, 1 - P_tt)``.  Returns the largest
    amount by which either family of bounds is exceeded (0.0 when all hold).
    """
    p = as_matrix(p)
    d = np.diag(p).real
    cap = np.minimum(d, 1.0 - d)
    pair_cap = np.minimum.outer(cap, cap)
    sq = np.abs(p) ** 2
    np.fill_diagonal(sq, 0.0)
    entry_excess = float(np.max(sq - pair_cap)) if p.shape[0] > 1 else 0.0
    col_excess = float(np.max(sq.sum(axis=0) - cap))
    return max(entry_excess, col_excess, 0.0)
