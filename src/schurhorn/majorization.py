"""Majorisation predicates and the constructive T-transform decomposition.

``x`` is majorised by ``y`` when, after sorting both non-increasingly, every
top-k partial sum of ``x`` is at most the matching partial sum of ``y`` and the
totals agree.  The decomposition routine below turns that order relation into
an explicit chain of two-entry mixing steps (T-transforms), which is what the
matrix constructions in :mod:`schurhorn.schur` consume.  A plan stores the
chain as three columns -- positions ``j`` and ``k`` and weights ``t`` -- with
no object per step.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MajorizationError",
    "PrefixSumOverflowError",
    "TTransformPlan",
    "as_vector",
    "majorizes",
    "majorizes_by_absolute_sums",
    "decompose_t_transforms",
    "replay_t_transform_plan",
]


class MajorizationError(ValueError):
    """The requested construction needs ``x`` majorised by ``y`` and it is not."""


class PrefixSumOverflowError(RuntimeError):
    """A prefix sum of the majorisation test left the float range: no verdict."""


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d real vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def majorizes(x, y, tol: float = 1e-9) -> bool:
    """True when ``x`` is majorised by ``y`` (``x`` less spread out than ``y``).

    Raises :class:`PrefixSumOverflowError` when a prefix sum overflows.
    """
    return _prefix_test(as_vector(x), as_vector(y), tol)[0]


def _prefix_test(x: np.ndarray, y: np.ndarray, tol: float) -> tuple[bool, np.ndarray, np.ndarray]:
    """Top-k prefix-sum test of ``x`` majorised by ``y`` (finite 1-d arrays).

    Returns the verdict and the non-increasing sort orders of ``x`` and
    ``y``, stable, so tied entries keep index order.  The prefix sums are
    ``np.cumsum``'s, accumulated left to right; one that overflows raises
    :class:`PrefixSumOverflowError`, as an infinite total decides nothing.
    """
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    order_x = (-x).argsort(kind="stable")
    order_y = (-y).argsort(kind="stable")
    verdict = True
    if x.size:
        with np.errstate(over="ignore"):
            cx = x[order_x].cumsum()
            cy = y[order_y].cumsum()
        # A running sum that overflows stays infinite, so the totals show it.
        total_x, total_y = cx.item(-1), cy.item(-1)
        if not (math.isfinite(total_x) and math.isfinite(total_y)):
            raise PrefixSumOverflowError("a prefix sum overflows the float range")
        verdict = not abs(total_x - total_y) > tol and bool((cx[:-1] <= cy[:-1] + tol).all())
    return verdict, order_x, order_y


def majorizes_by_absolute_sums(x, y, tol: float = 1e-9) -> bool:
    """Majorisation test via sums of absolute deviations.

    ``x`` is majorised by ``y`` iff the totals agree and
    ``sum_j |x_j - t| <= sum_j |y_j - t|`` for every real ``t``.  The deviation
    gap is piecewise linear in ``t`` and flat at infinity once the totals
    match, so checking ``t`` at every entry of ``x`` and ``y`` is exhaustive.
    Each deviation sum is read off sorted entries and their prefix sums, so
    the test takes O(n log n) time and O(n) memory.  A total or deviation sum
    that overflows raises :class:`PrefixSumOverflowError`.
    """
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        total_x, total_y = float(x.sum()), float(y.sum())
        if not (math.isfinite(total_x) and math.isfinite(total_y)):
            raise PrefixSumOverflowError("a total overflows the float range")
        if abs(total_x - total_y) > tol:
            return False
        pts = np.concatenate([x, y])
        dev_x, dev_y = _deviation_sums(x, pts), _deviation_sums(y, pts)
    # An overflow leaves an inf or NaN behind, which decides nothing.
    if not (np.isfinite(dev_x).all() and np.isfinite(dev_y).all()):
        raise PrefixSumOverflowError("a deviation sum overflows the float range")
    return bool(np.all(dev_x <= dev_y + tol))


def _deviation_sums(v: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``sum_j |v_j - t|`` for every ``t`` in ``pts``."""
    s = np.sort(v)
    below = np.concatenate(([0.0], np.cumsum(s)))
    m = np.searchsorted(s, pts)  # entries of v below t
    return (2 * m - s.size) * pts - 2.0 * below[m] + below[-1]


@dataclass(frozen=True)
class TTransformPlan:
    """Decomposition of a majorisation into at most n-1 T-transforms, as columns.

    Step ``i`` mixes frame positions ``j = j[i]`` and ``k = k[i]`` (0-based)
    with weight ``t = t[i]``: it sets ``v[j] = t*v[j] + (1-t)*v[k]`` and
    ``v[k] = (1-t)*v[j] + t*v[k]``.  The plan stores the three columns, not
    one object per step.  The transforms act on the *frame*: ``y`` sorted
    non-increasingly, i.e. the vector ``y[source_order]``.  After applying
    them in order, the frame holds the entries of ``x``; ``placement[c]``
    records the frame position holding ``x[c]``.
    :func:`replay_t_transform_plan` performs exactly this replay.
    """

    j: tuple[int, ...]
    k: tuple[int, ...]
    t: tuple[float, ...]
    source_order: tuple[int, ...]
    placement: tuple[int, ...]

    @property
    def transforms(self) -> tuple[tuple[int, int, float], ...]:
        """The steps as plain ``(j, k, t)`` tuples, built on each access."""
        return tuple(zip(self.j, self.k, self.t))


def replay_t_transform_plan(plan: TTransformPlan, y) -> np.ndarray:
    """Apply a plan to ``y`` and return the result aligned with the target order."""
    w = as_vector(y)[list(plan.source_order)].tolist()
    n = len(w)
    for j, k, t in zip(plan.j, plan.k, plan.t):
        if not (0 <= j < n and 0 <= k < n):
            raise ValueError(f"positions ({j}, {k}) out of range for length {n}")
        vj, vk = w[j], w[k]
        w[j] = t * vj + (1.0 - t) * vk
        w[k] = (1.0 - t) * vj + t * vk
    return np.array(w)[list(plan.placement)]


def decompose_t_transforms(x, y, tol: float = 1e-9) -> TTransformPlan:
    """Express ``x`` as a chain of T-transforms applied to ``y``.

    Repeatedly targets the largest remaining entry of ``x``: among the still
    active frame positions, the largest value is mixed with the first active
    value not exceeding the target, which places the target exactly and
    removes one position from play.  At most ``n - 1`` transforms are emitted
    into the plan's ``j``, ``k`` and ``t`` columns; ``x == y`` yields none.

    The steps run on Python floats, in the orders the majorisation test
    sorted ``x`` and ``y`` into.  The active positions are kept as one list of
    ``(-value, position)`` keys in increasing order.  A step changes a single
    value, so it costs one bisection and one insertion rather than a
    re-sort: O(n log n) comparisons in all.
    """
    x = as_vector(x)
    y = as_vector(y)
    ok, order_x, source_order = _prefix_test(x, y, tol)
    if not ok:
        raise MajorizationError("x is not majorised by y")
    n = x.size
    xs = x.tolist()
    frame = y[source_order].tolist()
    # Equal-within-noise values are retired without a mixing step.
    scale = max(1.0, abs(frame[0]), abs(frame[-1])) if n else 1.0
    settle = 1e-13 * scale
    keys = [(-v, p) for p, v in enumerate(frame)]  # frame is non-increasing
    placement = [0] * n
    js: list[int] = []
    ks: list[int] = []
    ts: list[float] = []
    # Each target retires one key, so ``active`` is ``len(keys)``.
    for active, c in zip(range(n, 0, -1), order_x.tolist()):
        target = xs[c]
        top = keys[0][1]
        placement[c] = top
        hi = frame[top]
        if active == 1 or hi - target <= settle:
            del keys[0]
            continue
        # First active value not exceeding the target, else the smallest.
        pick = bisect_left(keys, (-target, -1), 1, active - 1)
        low = keys[pick][1]
        lo = frame[low]
        denom = hi - lo
        if denom <= settle:
            del keys[0]
            continue
        if denom == math.inf:  # the halves of both differences are exact and finite
            t = (0.5 * target - 0.5 * lo) / (0.5 * hi - 0.5 * lo)
        else:
            t = (target - lo) / denom
        t = min(1.0, max(0.0, t))  # with low != top (pick >= 1), a valid step
        js.append(top)
        ks.append(low)
        ts.append(t)
        frame[top] = t * hi + (1.0 - t) * lo
        frame[low] = (1.0 - t) * hi + t * lo
        del keys[pick]
        del keys[0]
        insort(keys, (-frame[low], low))
    return TTransformPlan(
        tuple(js), tuple(ks), tuple(ts), tuple(source_order.tolist()), tuple(placement)
    )
