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

_ANGLE_TOL = 1e-13  # largest miss of the angle equation, relative to hypot(h, |b|)
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


def _rotation_entries(a00, a01, a10, a11, t: float) -> tuple:
    """Entries ``(g00, g01, g10, g11)`` of the Kadison rotation ``G`` of a 2x2 block ``A``.

    For Hermitian ``A``, ``diag(G A G*) = (t A00 + (1-t) A11, (1-t) A00 + t A11)``.
    ``G = [[cos θ, w sin θ], [-conj(w) sin θ, cos θ]]`` is aligned with the
    off-diagonal's own phase, ``w = b/|b|`` for ``b`` the mean of ``A01`` and
    ``conj(A10)`` (``w = 1`` when ``b = 0``), and ``θ`` in ``[-π/2, 0]`` solves
    ``h cos 2θ + |b| sin 2θ = (2t - 1) h`` with ``h = (A00 - A11)/2``; so a real
    block gets a real rotation.  With ``b = 0`` this is the plain Givens
    rotation ``cos θ = sqrt(t)``.  Works on Python scalars, scaling the block
    first so that neither subnormal nor huge entries lose ``w`` or overflow,
    and checks ``t`` in [0, 1], finite entries, Hermitian residual (imaginary
    diagonal parts included) at most ``_HERMITIAN_TOL``, and that ``θ``
    meets its equation to ``_ANGLE_TOL`` relative to ``hypot(h, |b|)``.
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
    b = a01 + 0.5 * (a10.conjugate() - a01)  # their mean; the residual check bounds the gap
    h = 0.5 * a00.real - 0.5 * a11.real
    # Work in units of the block's largest part, and take the phase of b from
    # b over its own largest part, so that it stays unimodular however small
    # or large b is.
    big = max(abs(b.real), abs(b.imag))
    scale = max(abs(h), big)
    hs = h / scale if scale > 0.0 else 0.0
    w, bs = 1.0, 0.0
    if big > 0.0:
        b /= big
        w = b / abs(b)
        bs = big / scale * abs(b)
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
    return co, w * si, -w.conjugate() * si, co


def _rotate(a: np.ndarray, u: np.ndarray | None, j: int, k: int, t: float) -> None:
    """Mix diagonal entries ``j`` and ``k`` of ``a`` with weight ``t``, in place.

    Rows and columns ``(j, k)`` of ``a`` are conjugated by the Kadison
    rotation of their 2x2 block, and rows ``(j, k)`` of ``u`` (when given)
    are multiplied by it; nothing else is touched, so a step costs O(n).  The
    rotation takes the dtype of ``a``: a real block gives a real rotation.
    """
    g00, g01, g10, g11 = _rotation_entries(
        a.item(j, j), a.item(j, k), a.item(k, j), a.item(k, k), t
    )
    if j > k:
        # Reversing both the pair and the rotation's frame is the same step.
        j, k, g00, g01, g10, g11 = k, j, g11, g10, g01, g00
    g = np.array([[g00, g01], [g10, g11]], dtype=a.dtype)
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
    copy of ``A``, so a chain of at most ``n - 1`` steps costs O(n^2).  A real
    ``A`` gives ``float64`` results, a complex one ``complex128``.
    """
    a = linalg.as_matrix(a)
    if linalg.hermitian_residual(a) > _HERMITIAN_TOL:
        raise ValueError("conjugate_to_diagonal requires a Hermitian input")
    x = as_vector(x)
    cur = a.copy()
    v = np.eye(a.shape[0], dtype=a.dtype)
    _mix_rows_to(cur, range(a.shape[0]), x, tol, v)
    return cur, v


def carpenter_finite(a, tol: float = INTEGER_TOL) -> np.ndarray:
    """Projection with prescribed diagonal ``a`` (entries in [0, 1], integer sum).

    The diagonal is majorised by the matching 0/1 staircase, so the rotation
    chain of :func:`conjugate_to_diagonal` carries ``diag(1, ..., 1, 0, ..., 0)``
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
