"""Constructive Schur-Horn machinery.

Builds real symmetric matrices with a prescribed diagonal and spectrum by
realising each T-transform of the diagonal as a real 2x2 plane rotation of two
rows and columns, applied in place, and derives the finite
projection-with-given-diagonal construction from it.  Every builder's input is
real, so the rotation engine is real-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import INTEGER_TOL, DimensionMismatchError
from .majorization import as_vector, decompose_t_transforms

__all__ = [
    "InfeasibleDiagonalError",
    "SynthesisResult",
    "synthesize_hermitian",
    "carpenter_finite",
]

_ANGLE_TOL = 1e-13  # largest miss of the angle equation, relative to hypot(h, |b|)
_HERMITIAN_TOL = 1e-8  # largest |A01 - A10| a rotation accepts


class InfeasibleDiagonalError(ValueError):
    """A prescribed diagonal cannot be realised; carries the integrality defect."""

    def __init__(self, message: str, defect: float | None = None):
        super().__init__(message)
        self.defect = defect


@dataclass(frozen=True)
class SynthesisResult:
    """Real symmetric matrix with prescribed diagonal plus the rotation that built it.

    ``unitary`` is orthogonal: for the diagonal ``x`` and spectrum ``y`` it
    was built from, ``matrix = unitary @ diag(y) @ unitary.T`` and
    ``diag(matrix) == x`` up to roundoff.
    """

    matrix: np.ndarray
    unitary: np.ndarray


def _rotation_entries(a00: float, a01: float, a10: float, a11: float, t: float) -> tuple:
    """Entries ``(g00, g01, g10, g11)`` of the Kadison rotation ``G`` of a real 2x2 block ``A``.

    For symmetric ``A``, ``diag(G A G^T) = (t A00 + (1-t) A11, (1-t) A00 + t A11)``.
    ``G = [[cos θ, w sin θ], [-w sin θ, cos θ]]`` with ``w`` the sign of ``b``,
    the mean of ``A01`` and ``A10`` (``w = 1`` when ``b = ±0``), and ``θ`` in
    ``[-π/2, 0]`` solves ``h cos 2θ + |b| sin 2θ = (2t - 1) h`` with
    ``h = (A00 - A11)/2``.  With ``b = 0`` this is the plain Givens rotation
    ``cos θ = sqrt(t)``.  Works on Python floats, scaling the block first so
    that huge entries do not overflow, and checks ``t`` in [0, 1], finite
    entries, symmetric residual ``|A01 - A10|`` at most ``_HERMITIAN_TOL``, and
    that ``θ`` meets its equation to ``_ANGLE_TOL`` relative to ``hypot(h, |b|)``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {t}")
    if not all(map(math.isfinite, (a00, a01, a10, a11))):
        raise ValueError("matrix entries must be finite")
    if abs(a01 - a10) > _HERMITIAN_TOL:
        raise ValueError("a rotation requires a (numerically) symmetric 2x2 block")
    b = a01 + 0.5 * (a10 - a01)  # their mean; the residual check bounds the gap
    h = 0.5 * a00 - 0.5 * a11
    # Work in units of the block's largest part.
    big = abs(b)
    scale = max(abs(h), big)
    hs, bs = (h / scale, big / scale) if scale > 0.0 else (0.0, 0.0)
    w = -1.0 if b < 0.0 else 1.0
    if bs == 0.0:
        # No off-diagonal coupling left at this scale: the Givens step cos θ = sqrt(t).
        theta = math.asin(math.sqrt(t))
        co, si = math.sin(theta), -math.cos(theta)
    else:
        # tan θ is the negative root of t h τ² - |b| τ - (1 - t) h = 0, taken
        # in the form without cancellation for the sign of h.
        root = bs + math.sqrt(bs * bs + 4.0 * t * (1.0 - t) * hs * hs)
        x, y = (root, -2.0 * (1.0 - t) * hs) if hs >= 0.0 else (-2.0 * t * hs, -root)
        norm = math.hypot(x, y)
        co, si = x / norm, y / norm
    miss = hs * (co * co - si * si) + 2.0 * bs * co * si - (2.0 * t - 1.0) * hs
    if not abs(miss) <= _ANGLE_TOL * math.hypot(hs, bs):
        raise ValueError(f"rotation angle misses its equation by {abs(miss):.3e}")
    return co, w * si, -w * si, co


def _rotate(a: np.ndarray, u: np.ndarray | None, j: int, k: int, t: float) -> None:
    """Mix diagonal entries ``j`` and ``k`` of the real ``a`` with weight ``t``, in place.

    Rows and columns ``(j, k)`` of ``a`` are conjugated by the Kadison
    rotation of their 2x2 block, and rows ``(j, k)`` of ``u`` (when given)
    are multiplied by it; nothing else is touched, so a step costs O(n).
    """
    g00, g01, g10, g11 = _rotation_entries(
        a.item(j, j), a.item(j, k), a.item(k, j), a.item(k, k), t
    )
    if j > k:
        # Reversing both the pair and the rotation's frame is the same step.
        j, k, g00, g01, g10, g11 = k, j, g11, g10, g01, g00
    g = np.array([[g00, g01], [g10, g11]])
    pair = slice(j, k + 1, k - j)  # rows j and k as a view, no fancy-index copies
    a[pair] = g @ a[pair]
    a[:, pair] = a[:, pair] @ g.T
    if u is not None:
        u[pair] = g @ u[pair]


def _mix_rows_to(a: np.ndarray, rows, x, tol: float, u: np.ndarray | None = None) -> None:
    """Carry the diagonal of the real symmetric ``a`` at ``rows`` to ``x`` by an
    orthogonal conjugation, in place.

    Requires ``x`` majorised by ``diag(a)[rows]``.  Each T-transform of the
    decomposition rotates two of the ``rows`` (and the matching columns);
    a final permutation among ``rows``, skipped when it is the identity,
    leaves ``a[rows[c], rows[c]] == x[c]``.  Diagonal entries outside
    ``rows`` keep their values.  When ``u`` is given, its rows receive the
    same rotations from the left.  A chain of at most ``len(rows) - 1``
    steps costs O(n^2).
    """
    if not a.size:
        raise DimensionMismatchError("matrices must have dimension >= 1")
    rows = list(rows)
    plan = decompose_t_transforms(x, a.diagonal()[rows], tol)  # raises if x not << y
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
    """Real symmetric matrix with diagonal ``x`` and spectrum ``y`` (needs x majorised by y).

    The rotation chain of the T-transform decomposition of ``x`` against
    ``y`` is applied in place to ``diag(y)`` and to the identity, so the
    returned orthogonal ``unitary`` satisfies ``matrix = unitary @ diag(y) @ unitary.T``.
    """
    x = as_vector(x)
    y = as_vector(y)
    a, u = np.diag(y), np.eye(y.size)
    _mix_rows_to(a, range(y.size), x, tol, u)
    return SynthesisResult(a, u)


def carpenter_finite(a, tol: float = INTEGER_TOL) -> np.ndarray:
    """Projection with prescribed diagonal ``a`` (entries in [0, 1], integer sum).

    The diagonal is majorised by the matching 0/1 staircase, so the rotation
    chain of :func:`synthesize_hermitian` carries ``diag(1, ..., 1, 0, ..., 0)``
    to it; only the matrix is formed, a ``float64`` one, not the unitary.  A
    non-integer sum is infeasible and raises with the defect attached.
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
    target = np.zeros(v.size)
    target[:m] = 1.0
    p = np.diag(target)
    _mix_rows_to(p, range(v.size), v, max(tol, 1e-9))
    return p
