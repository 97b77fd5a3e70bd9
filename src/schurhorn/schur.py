"""Constructive Schur-Horn machinery.

Builds Hermitian matrices with a prescribed diagonal and spectrum by realising
each T-transform of the diagonal as a 2x2 unitary rotation of two rows and
columns, applied in place, and derives the finite projection-with-given-diagonal
construction from it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import INTEGER_TOL
from .majorization import as_vector, decompose_t_transforms

__all__ = [
    "InfeasibleDiagonalError",
    "SynthesisResult",
    "synthesize_hermitian",
    "conjugate_to_diagonal",
    "carpenter_finite",
]

_PHASE_TOL = 1e-13
_HERMITIAN_TOL = 1e-8  # largest |A - A*| entry a rotation or conjugation accepts


class InfeasibleDiagonalError(ValueError):
    """A prescribed diagonal cannot be realised; carries the integrality defect."""

    def __init__(self, message: str, defect: float | None = None):
        super().__init__(message)
        self.defect = defect


@dataclass(frozen=True)
class SynthesisResult:
    """Hermitian matrix with prescribed diagonal plus the unitary that built it.

    For the diagonal ``x`` and spectrum ``y`` it was built from,
    ``matrix = unitary @ diag(y) @ unitary*`` and ``diag(matrix) == x`` up to
    roundoff.
    """

    matrix: np.ndarray
    unitary: np.ndarray


def _mixing_phase(a01: complex, a10: complex) -> complex:
    """Unimodular c with ``c*a01 + conj(c)*a10 = 0`` (Hermitian inputs)."""
    if abs(a01) == 0.0 and abs(a10) == 0.0:
        return 1.0 + 0.0j
    primary = cmath.exp(1j * (math.pi / 2.0 - cmath.phase(a01)))
    scale = max(1.0, abs(a01), abs(a10))
    if abs(primary * a01 + primary.conjugate() * a10) <= _PHASE_TOL * scale:
        return primary
    # Safety net: scan a few unimodular candidates and keep the best.
    candidates = [primary, -primary, 1.0 + 0.0j, 1.0j]
    best = min(candidates, key=lambda c: abs(c * a01 + c.conjugate() * a10))
    if abs(best * a01 + best.conjugate() * a10) > _PHASE_TOL * scale:
        raise ValueError("could not balance off-diagonal phases; input not Hermitian?")
    return best


def _rotation_entries(a00, a01, a10, a11, t: float) -> tuple:
    """Entries ``(g00, g01, g10, g11)`` of the Kadison rotation ``U`` of a 2x2 block ``A``.

    For Hermitian ``A``, ``diag(U A U*) = (t A00 + (1-t) A11, (1-t) A00 + t A11)``:
    the angle solves ``sin(theta)^2 = t`` and the phase cancels the
    off-diagonal contribution.  Works on Python scalars and checks ``t`` in
    [0, 1], finite entries, Hermitian residual (imaginary diagonal parts
    included) at most ``_HERMITIAN_TOL``, and balanced phases.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {t}")
    if not all(map(cmath.isfinite, (a00, a01, a10, a11))):
        raise ValueError("matrix entries must be finite")
    residual = max(
        abs(a00 - a00.conjugate()), abs(a01 - a10.conjugate()), abs(a11 - a11.conjugate())
    )
    if residual > _HERMITIAN_TOL:
        raise ValueError("a rotation requires a (numerically) Hermitian 2x2 block")
    theta = math.asin(math.sqrt(t))
    s = math.sin(theta)
    co = math.cos(theta)
    c = _mixing_phase(a01, a10)
    return c * s, -co, c * co, s


def _rotate(a: np.ndarray, u: np.ndarray | None, j: int, k: int, t: float) -> None:
    """Mix diagonal entries ``j`` and ``k`` of ``a`` with weight ``t``, in place.

    Rows and columns ``(j, k)`` of ``a`` are conjugated by the Kadison
    rotation of their 2x2 block, and rows ``(j, k)`` of ``u`` (when given)
    are multiplied by it; nothing else is touched, so a step costs O(n).
    """
    g00, g01, g10, g11 = _rotation_entries(
        a.item(j, j), a.item(j, k), a.item(k, j), a.item(k, k), t
    )
    g = np.array([[g00, g01], [g10, g11]], dtype=np.complex128)
    if j > k:
        # Reversing both the pair and the rotation's frame is the same step.
        j, k, g = k, j, g[::-1, ::-1]
    pair = slice(j, k + 1, k - j)  # rows j and k as a view, no fancy-index copies
    a[pair] = g @ a[pair]
    a[:, pair] = a[:, pair] @ g.conj().T
    if u is not None:
        u[pair] = g @ u[pair]


def _mix_rows_to(a: np.ndarray, rows, x, tol: float, u: np.ndarray | None = None) -> None:
    """Carry the diagonal of ``a`` at ``rows`` to ``x`` by a unitary conjugation, in place.

    Requires ``x`` majorised by ``diag(a)[rows]``.  Each T-transform of the
    decomposition rotates two of the ``rows`` (and the matching columns);
    a final permutation among ``rows``, skipped when it is the identity,
    leaves ``a[rows[c], rows[c]] == x[c]``.  Diagonal entries outside
    ``rows`` keep their values.  When ``u`` is given, its rows receive the
    same unitary from the left.
    """
    rows = list(rows)
    y = linalg.diagonal(a)[rows]
    plan = decompose_t_transforms(x, y, tol)  # raises MajorizationError if x not << y
    frame = [rows[p] for p in plan.source_order]
    for j, k, t in zip(plan.j, plan.k, plan.t):
        _rotate(a, u, frame[j], frame[k], t)
    src = [frame[p] for p in plan.placement]
    if src != rows:
        a[rows, :] = a[src, :]
        a[:, rows] = a[:, src]
        if u is not None:
            u[rows, :] = u[src, :]


def synthesize_hermitian(x, y, tol: float = 1e-9) -> SynthesisResult:
    """Hermitian matrix with diagonal ``x`` and spectrum ``y`` (needs x majorised by y).

    This is :func:`conjugate_to_diagonal` applied to ``diag(y)``: the
    returned unitary satisfies ``matrix = unitary @ diag(y) @ unitary*``.
    """
    x = as_vector(x)
    y = as_vector(y)
    a, u = conjugate_to_diagonal(np.diag(y), x, tol)
    return SynthesisResult(a, u)


def conjugate_to_diagonal(a, x, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Unitarily push the diagonal of ``A`` to ``x`` without moving its spectrum.

    Requires ``x`` majorised by ``diag(A)``.  Returns ``(A', V)`` with
    ``A' = V A V*``, ``diag(A') = x`` and the same spectrum as ``A``.  Each
    step of the T-transform decomposition of ``x`` against ``diag(A)`` is
    realised as a 2x2 rotation of two rows and columns, applied in place to a
    copy of ``A``, so a chain of at most ``n - 1`` steps costs O(n^2).
    """
    a = linalg.as_matrix(a)
    if linalg.hermitian_residual(a) > _HERMITIAN_TOL:
        raise ValueError("conjugate_to_diagonal requires a Hermitian input")
    x = as_vector(x)
    cur = a.copy()
    v = np.eye(a.shape[0], dtype=np.complex128)
    _mix_rows_to(cur, range(a.shape[0]), x, tol, v)
    return cur, v


def carpenter_finite(a, tol: float = INTEGER_TOL) -> np.ndarray:
    """Projection with prescribed diagonal ``a`` (entries in [0, 1], integer sum).

    The diagonal is majorised by the matching 0/1 staircase, so the rotation
    chain of :func:`conjugate_to_diagonal` carries ``diag(1, ..., 1, 0, ..., 0)``
    to it; only the matrix is formed, not the unitary.  A non-integer sum is
    infeasible and raises with the defect attached.
    """
    v = as_vector(a)
    if v.size and (v.min() < -1e-12 or v.max() > 1.0 + 1e-12):
        raise ValueError("carpenter_finite needs diagonal entries in [0, 1]")
    v = np.clip(v, 0.0, 1.0)
    s = float(v.sum())
    m = round(s)
    defect = abs(s - m)
    if defect > tol:
        raise InfeasibleDiagonalError(
            f"diagonal sum {s!r} is {defect:.3e} away from an integer", defect=defect
        )
    target = np.zeros(v.size, dtype=np.complex128)
    target[:m] = 1.0
    p = np.diag(target)
    _mix_rows_to(p, range(v.size), v, max(tol, 1e-9))
    return p
