"""Majorisation predicates and the constructive T-transform decomposition.

``x`` is majorised by ``y`` when, after sorting both non-increasingly, every
top-k partial sum of ``x`` is at most the matching partial sum of ``y`` and the
totals agree.  The decomposition routine below turns that order relation into
an explicit chain of two-entry mixing steps (T-transforms), which is what the
matrix constructions in :mod:`schurhorn.schur` consume.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MajorizationError",
    "TTransform",
    "TTransformPlan",
    "as_vector",
    "majorizes",
    "majorizes_by_absolute_sums",
    "apply_t_transform",
    "decompose_t_transforms",
    "replay_t_transform_plan",
    "verify_concentration",
]


class MajorizationError(ValueError):
    """The requested construction needs ``x`` majorised by ``y`` and it is not."""


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d real vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def majorizes(x, y, tol: float = 1e-9) -> bool:
    """True when ``x`` is majorised by ``y`` (``x`` less spread out than ``y``)."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    if abs(cx[-1] - cy[-1]) > tol:
        return False
    if x.size == 1:
        return True
    return bool(np.all(cx[:-1] <= cy[:-1] + tol))


def majorizes_by_absolute_sums(x, y, tol: float = 1e-9) -> bool:
    """Majorisation test via sums of absolute deviations.

    ``x`` is majorised by ``y`` iff the totals agree and
    ``sum_j |x_j - t| <= sum_j |y_j - t|`` for every real ``t``.  The deviation
    gap is piecewise linear in ``t`` and flat at infinity once the totals
    match, so checking ``t`` at every entry of ``x`` and ``y`` is exhaustive.
    Each deviation sum is read off sorted entries and their prefix sums, so
    the test takes O(n log n) time and O(n) memory.
    """
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if abs(float(x.sum() - y.sum())) > tol:
        return False
    pts = np.concatenate([x, y])
    return bool(np.all(_deviation_sums(x, pts) <= _deviation_sums(y, pts) + tol))


def _deviation_sums(v: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``sum_j |v_j - t|`` for every ``t`` in ``pts``."""
    s = np.sort(v)
    below = np.concatenate(([0.0], np.cumsum(s)))
    m = np.searchsorted(s, pts)  # entries of v below t
    return (2 * m - s.size) * pts - 2.0 * below[m] + below[-1]


@dataclass(frozen=True)
class TTransform:
    """Mixing step replacing entries (j, k) by their t-weighted averages.

    Positions are 0-based.  Applied to ``v`` it sets
    ``v[j] = t*v[j] + (1-t)*v[k]`` and ``v[k] = (1-t)*v[j] + t*v[k]``.
    """

    j: int
    k: int
    t: float

    def __post_init__(self):
        if self.j == self.k:
            raise ValueError("T-transform needs two distinct positions")
        if self.j < 0 or self.k < 0:
            raise ValueError("T-transform positions must be non-negative")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.t}")
        object.__setattr__(self, "t", float(self.t))  # written as a JSON float


def apply_t_transform(tr: TTransform, x) -> np.ndarray:
    v = as_vector(x).copy()
    _mix(tr, v)
    return v


def _mix(tr: TTransform, v) -> None:
    """Apply ``tr`` in place to the list or array ``v``."""
    if tr.j >= len(v) or tr.k >= len(v):
        raise ValueError(f"positions ({tr.j}, {tr.k}) out of range for length {len(v)}")
    vj, vk = v[tr.j], v[tr.k]
    v[tr.j] = tr.t * vj + (1.0 - tr.t) * vk
    v[tr.k] = (1.0 - tr.t) * vj + tr.t * vk


@dataclass(frozen=True)
class TTransformPlan:
    """Decomposition of a majorisation into at most n-1 T-transforms.

    The transforms act on the *frame*: ``y`` sorted non-increasingly, i.e. the
    vector ``y[source_order]``.  After applying them in order, the frame holds
    the entries of ``x``; ``placement[c]`` records the frame position holding
    ``x[c]``.  :func:`replay_t_transform_plan` performs exactly this replay.
    """

    transforms: tuple[TTransform, ...]
    source_order: tuple[int, ...]
    placement: tuple[int, ...]


def replay_t_transform_plan(plan: TTransformPlan, y) -> np.ndarray:
    """Apply a plan to ``y`` and return the result aligned with the target order."""
    w = as_vector(y)[list(plan.source_order)].tolist()
    for tr in plan.transforms:
        _mix(tr, w)
    return np.array(w)[list(plan.placement)]


def decompose_t_transforms(x, y, tol: float = 1e-9) -> TTransformPlan:
    """Express ``x`` as a chain of T-transforms applied to ``y``.

    Repeatedly targets the largest remaining entry of ``x``: among the still
    active frame positions, the largest value is mixed with the first active
    value not exceeding the target, which places the target exactly and
    removes one position from play.  At most ``n - 1`` transforms are emitted;
    ``x == y`` yields none.

    The active positions are kept as one list of ``(-value, position)`` keys
    in increasing order.  A step changes a single value, so it costs one
    bisection and one insertion rather than a re-sort: O(n log n) comparisons
    in all.
    """
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if not majorizes(x, y, tol):
        raise MajorizationError("x is not majorised by y")
    n = x.size
    source_order = np.argsort(-y, kind="stable")
    frame = y[source_order].tolist()
    # Equal-within-noise values are retired without a mixing step.
    scale = max(1.0, float(np.max(np.abs(y))) if n else 1.0)
    settle = 1e-13 * scale
    targets = x.tolist()
    keys = [(-v, p) for p, v in enumerate(frame)]  # frame is non-increasing
    placement = [0] * n
    transforms: list[TTransform] = []
    for c in np.argsort(-x, kind="stable").tolist():
        target = targets[c]
        top = keys[0][1]
        placement[c] = top
        if len(keys) == 1 or frame[top] - target <= settle:
            del keys[0]
            continue
        # First active value not exceeding the target, else the smallest.
        pick = min(bisect_left(keys, (-target, -1), 1), len(keys) - 1)
        low = keys[pick][1]
        denom = frame[top] - frame[low]
        if denom <= settle:
            del keys[0]
            continue
        if denom == math.inf:  # the halves of both differences are exact and finite
            t = (0.5 * target - 0.5 * frame[low]) / (0.5 * frame[top] - 0.5 * frame[low])
        else:
            t = (target - frame[low]) / denom
        tr = TTransform(top, low, min(1.0, max(0.0, t)))
        transforms.append(tr)
        _mix(tr, frame)
        del keys[pick]
        del keys[0]
        insort(keys, (-frame[low], low))
    return TTransformPlan(tuple(transforms), tuple(source_order.tolist()), tuple(placement))


def verify_concentration(x, x_up, y, y_down, tol: float = 1e-9) -> bool:
    """Check the hypotheses of the concentration comparison.

    Given blocks with ``x_up >= x`` entrywise, ``y_down <= y`` entrywise,
    every entry of ``x`` at least every entry of ``y``, and matching grand
    totals, the concatenation (x, y) is majorised by (x_up, y_down).  Returns
    whether all four hypotheses hold within ``tol``.
    """
    x = as_vector(x)
    xu = as_vector(x_up)
    y = as_vector(y)
    yd = as_vector(y_down)
    if x.shape != xu.shape or y.shape != yd.shape:
        raise ValueError("blocks must match pairwise in length")
    if x.size and np.any(xu < x - tol):
        return False
    if y.size and np.any(y < yd - tol):
        return False
    if x.size and y.size and float(x.min()) < float(y.max()) - tol:
        return False
    total_gap = abs(float(xu.sum() + yd.sum() - x.sum() - y.sum()))
    return total_gap <= tol
