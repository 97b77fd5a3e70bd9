"""Projections of infinite-dimensional flavour with a prescribed diagonal.

Given a [0, 1]-valued sequence (a :class:`~schurhorn.sequences.SequenceSpec`)
and a threshold ``alpha``, the sums

* ``low_sum``: sum of the terms that are at most ``alpha``, and
* ``high_complement_sum``: sum of ``1 - term`` over the remaining terms

decide whether the sequence is the diagonal of some projection: it is exactly
when the two sums are not both finite, or both are finite and differ by an
integer.  This module classifies sequences accordingly and constructs finite
truncations of a witnessing projection:

* :func:`build_case_b` (both sums finite): a tower ``P_1, P_2, ...`` of
  growing projections, each a corner-perturbation of the next, kept as one
  final-size matrix plus each level's slack row and column (formed on read),
  covering more and more indices at their exact diagonal values and
  satisfying the verified increment bound ``||(P_{k+r} - P_k) e_t||^2 <= 6 / 2**k``.
* :func:`build_case_a` (divergent): a direct sum of integer-trace blocks whose
  perturbed diagonals are repaired by unitaries acting across neighbouring
  blocks, leaving only the final block's top-up entries off target.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .linalg import INTEGER_TOL, STRUCTURAL_TOL, projection_entry_excess, projection_residual
from .majorization import MajorizationError
from .schur import InfeasibleDiagonalError, _mix_rows_to, carpenter_finite
from .sequences import (
    BudgetExhaustedError,
    SequenceSpec,
    SideSums,
    TailCertificateError,
    complement,
    term,
)

__all__ = [
    "Feasibility",
    "KadisonReport",
    "TruncatedProjection",
    "VerificationReport",
    "kadison_sums",
    "feasibility",
    "build_case_b",
    "build_case_a",
    "projection_with_trace",
    "projection_with_cotrace",
    "projection_increment_norms",
    "verify_truncation",
]

_CHAIN_TOL = 1e-9  # tolerance of the builders' rotation chains
_TRACE_TOL = 1e-8  # how far a projection_with_trace trace may miss its integer
_ORDER_SAMPLE = 2048  # leading terms that pick the side Case-A builds on


class Feasibility(enum.Enum):
    """Classification of a sequence as a prospective projection diagonal."""

    CASE_A = "CaseA"
    CASE_B = "CaseB-feasible"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class KadisonReport:
    """Threshold sums and the feasibility verdict they imply.

    ``sums`` is the :func:`kadison_sums` split of the whole sequence at
    ``alpha``; ``low_sum`` and ``high_complement_sum`` read its two sums.
    ``defect`` is the exact distance of their difference from the nearest
    integer (see :func:`feasibility`; ``None`` unless both are finite).
    """

    alpha: float
    sums: SideSums
    defect: float | None
    feasibility: Feasibility

    @property
    def low_sum(self) -> float | None:
        return self.sums.low

    @property
    def high_complement_sum(self) -> float | None:
        return self.sums.high


def kadison_sums(spec: SequenceSpec, alpha: float = 0.5, *, budget: int = 100_000) -> SideSums:
    """Side sums of the whole sequence (prefix plus tail) at ``alpha`` in (0, 1).

    The tail may evaluate at most ``budget`` terms, else :class:`BudgetExhaustedError`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    return SideSums.of(spec.prefix, alpha) + spec.tail.side_sums(alpha, budget)


def _integrality_defect(spec: SequenceSpec) -> float:
    """Exact distance of ``a_f - b_f`` from the nearest integer, both sums finite.

    A term ``v`` adds ``v`` on the low side and ``-(1 - v)`` on the high
    side, the same mod 1, so ``a_f - b_f`` is the prefix sum plus the tail's
    ``residue()``, mod 1, at every threshold.
    """
    ratios = [v.as_integer_ratio() for v in spec.prefix]
    q = max((b for _, b in ratios), default=1)  # powers of two: the largest is their lcm
    p = sum(a * (q // b) for a, b in ratios)
    tail_p, tail_q = spec.tail.residue()
    num, den = p * tail_q + tail_p * q, q * tail_q
    rem = num % den
    return min(rem, den - rem) / den


def feasibility(
    spec: SequenceSpec,
    alpha: float = 0.5,
    *,
    budget: int = 100_000,
) -> KadisonReport:
    """Decide which construction (if any) applies to the sequence at ``alpha``.

    When both side sums are finite, the defect is the exact distance of
    ``a_f - b_f`` from the nearest integer, in integer arithmetic from the
    closed forms (:func:`_integrality_defect`) rather than from the
    difference of the two float sums, so the verdict does not depend on
    ``alpha``.
    """
    sums = kadison_sums(spec, alpha, budget=budget)
    if sums.total_divergent:
        verdict, defect = Feasibility.CASE_A, None
    else:
        defect = _integrality_defect(spec)
        verdict = Feasibility.CASE_B if defect <= INTEGER_TOL else Feasibility.INFEASIBLE
    return KadisonReport(alpha, sums, defect, verdict)


@dataclass(frozen=True, eq=False)
class TruncatedProjection:
    """Finite corner of a projection with prescribed diagonal.

    ``diagonal_map[p]`` is the 1-based sequence index whose value sits at
    matrix position ``p`` (``None`` for an auxiliary slack position).
    ``covered`` lists the indices whose diagonal entry already equals the
    prescribed value exactly; positions mapping to other indices are still
    in transit (their entries carry a documented perturbation).
    ``residual_bound`` is the verified bound on ``||(P' - P) e_t||^2``
    against any deeper truncation ``P'`` (``inf`` when no bound is claimed).
    """

    matrix: np.ndarray
    depth: int
    diagonal_map: tuple[int | None, ...]
    covered: tuple[int, ...]
    residual_bound: float


def _complemented(p: TruncatedProjection) -> TruncatedProjection:
    """``I - P`` with the same bookkeeping: a witness for the complemented sequence."""
    return replace(p, matrix=np.eye(p.matrix.shape[0], dtype=p.matrix.dtype) - p.matrix)


def _checked_report(spec: SequenceSpec, alpha: float, budget: int, report) -> KadisonReport:
    """``report`` if it was computed at ``alpha`` (else ``ValueError``), or a fresh one."""
    if report is None:
        return feasibility(spec, alpha, budget=budget)
    if report.alpha != alpha:
        raise ValueError(f"the report is at alpha={report.alpha!r}, not {alpha!r}")
    return report


def _repair(matrix: np.ndarray, rows, targets) -> None:
    """``_mix_rows_to`` at ``_CHAIN_TOL``.  The construction guarantees its majorisation, so
    a failed chain is the builder's fault (``RuntimeError``, exit 3), not infeasibility."""
    try:
        _mix_rows_to(matrix, rows, targets, _CHAIN_TOL)
    except MajorizationError as exc:
        raise RuntimeError("block repair hypotheses failed; construction is inconsistent") from exc


class _Reader:
    """The working sequence read once, in index order, and split at ``alpha``.

    ``queues[0]`` holds the read low-side terms, ``floor < v <= alpha``, and
    ``queues[1]`` the others, as ``(index, value)`` pairs in index order.
    Position ``i`` comes from ``sample`` while it lasts.  Every read counts
    against ``budget``; a read past it raises :class:`BudgetExhaustedError`.
    """

    def __init__(self, spec: SequenceSpec, alpha: float, floor: float, budget: int, sample=()):
        self.spec, self.alpha, self.floor, self.sample = spec, alpha, floor, sample
        self.budget, self.reads = budget, 0
        self.queues: tuple[deque, deque] = (deque(), deque())

    def next(self, side: int) -> tuple[int, float]:
        """Serve the first unserved term of ``side`` (0 low), reading on until there is one."""
        queue = self.queues[side]
        while not queue:
            if self.reads >= self.budget:
                raise BudgetExhaustedError(f"more than {self.budget} terms consumed")
            i = self.reads = self.reads + 1
            v = self.sample[i - 1] if i <= len(self.sample) else term(self.spec, i)
            self.queues[not self.floor < v <= self.alpha].append((i, v))
        return queue.popleft()


class _Tower(Sequence):
    """Read-only tower ``P_1, ..., P_D`` held as its final matrix.

    Level ``k`` is that matrix's leading corner with the slack row and column
    it had after step ``k``; each read forms it as a fresh array.
    """

    def __init__(self, matrix, diagonal_map, slack, complemented: bool):
        self._matrix, self._map, self._slack = matrix, diagonal_map, slack
        self._complemented = complemented

    def __len__(self) -> int:
        return len(self._slack)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[k] for k in range(len(self))[key]]
        k = range(1, len(self) + 1)[key]  # the depth; IndexError past either end
        row, col = self._slack[k - 1]
        matrix = self._matrix[: row.size, : row.size].copy()
        matrix[-1], matrix[:, -1] = row, col
        placed = self._map[: row.size - 1]  # the slack position is last
        level = TruncatedProjection(
            matrix, k, (*placed, None), tuple(sorted(placed)), 6.0 * 2.0**-k
        )
        return _complemented(level) if self._complemented else level


def build_case_b(
    spec: SequenceSpec,
    alpha: float = 0.5,
    depth: int = 1,
    *,
    budget: int = 100_000,
    report: KadisonReport | None = None,
) -> Sequence[TruncatedProjection]:
    """Tower ``P_1, ..., P_depth`` of projections for a summable-defect sequence.

    Step ``k`` covers enough low indices to push the uncovered low mass
    ``delta_k`` below ``2**-k`` and enough high indices to push the uncovered
    high complement mass ``mu_k`` strictly below ``delta_k``; the leftover
    ``sigma_k = delta_k - mu_k`` occupies a single slack position.  Each
    ``P_{k+1}`` extends ``P_k`` by rotating newly appended exact 0/1 entries
    together with the old slack position, so the old corner moves by at most
    the retired residual mass -- giving ``||(P_{k+r} - P_k) e_t||^2 <= 6/2**k``.
    All levels' terms are read first; the tower then grows inside one matrix
    of the final size, kept with each level's slack row and column after its
    step; reading ``P_k`` forms a fresh copy of its leading corner with them.

    When only the high side carries infinite mass the construction runs on
    the complemented sequence at ``1 - alpha`` and returns ``I - Q``.
    ``report``, when given, is ``feasibility(spec, alpha, budget=budget)``
    computed by the caller at the same ``alpha`` (else ``ValueError``) and
    spares a second scan.  Its side counts bound the terms each side yields;
    a ``None`` count raises :class:`TailCertificateError` before any term is read.
    One pass in index order serves both sides: the build reads each term
    once, and at most ``budget`` terms, else :class:`BudgetExhaustedError`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    report = _checked_report(spec, alpha, budget, report)
    if report.feasibility is Feasibility.CASE_A:
        raise ValueError("the threshold sums diverge; use build_case_a instead")
    if report.feasibility is Feasibility.INFEASIBLE:
        raise InfeasibleDiagonalError(
            f"threshold sums differ by a non-integer (defect {report.defect:.3e})",
            defect=report.defect,
        )
    sums = report.sums
    work_spec, work_alpha = spec, alpha
    complemented = not sums.low_mass_infinite and sums.high_mass_infinite
    if complemented:
        # Only the high side carries infinite mass: the residual ordering
        # mu < delta could not be sustained, so build for the complement.
        work_spec, work_alpha = complement(spec), 1.0 - alpha
        sums = kadison_sums(work_spec, work_alpha, budget=budget)
    totals = (float(sums.low), float(sums.high))  # a_f, b_f
    limits = [sums.low_count, sums.high_count]  # terms each side may still yield
    snap = 1e-13 * max(1.0, *totals)

    def residual(total: float, taken: float) -> float:
        left = total - taken
        return 0.0 if left <= snap else left

    # Side 0 is the low side, side 1 the high side.  Both counts are read
    # before any term is pulled, so an unattributable side fails first.
    if None in limits:
        raise TailCertificateError("tail rule cannot attribute positions to a side")
    reader = _Reader(work_spec, work_alpha, -math.inf, budget)
    taken = [0.0, 0.0]  # covered low mass, covered high complement mass

    def pull(side: int, short) -> tuple[list[tuple[int, float]], float]:
        """Pull one term of ``side`` if any remain, then more while ``short``
        holds for its uncovered mass; return the new terms and that mass."""
        pulled = []
        left = residual(totals[side], taken[side])
        while limits[side] > 0:
            i, v = reader.next(side)
            limits[side] -= 1
            pulled.append((i, v))
            taken[side] += 1.0 - v if side else v
            left = residual(totals[side], taken[side])
            if not short(left):
                break
        return pulled, left

    levels = []  # per level: its new low terms, new high terms and slack sigma
    for k in range(1, depth + 1):
        target = 2.0**-k
        new_low, delta = pull(0, lambda left: left >= target)
        new_high, mu = pull(1, lambda left: not (left < delta or (left == 0.0 and delta == 0.0)))
        if mu > delta + snap:
            raise BudgetExhaustedError("residual ordering mu < delta unattainable at this depth")
        levels.append((new_low, new_high, max(0.0, delta - mu)))

    # Level k is the leading e x e corner of the final matrix: later levels
    # only write beyond it and into its slack row and column, so keep those.
    positions = [i for new_low, new_high, _ in levels for i, _ in new_low + new_high]
    matrix = np.zeros((len(positions) + 1,) * 2)
    slack, e = [], 1  # each level's slack row and column; the dimension e_k
    for k, (new_low, new_high, sigma) in enumerate(levels, start=1):
        step_diag = [v for _, v in new_low + new_high] + [sigma]
        d, e = e, e + len(new_low) + len(new_high)
        corner = matrix[:e, :e]
        if k == 1:
            corner[...] = carpenter_finite(np.array(step_diag))
        else:
            np.fill_diagonal(corner[e - len(new_high) :, e - len(new_high) :], 1.0)
            _repair(corner, range(d - 1, e), step_diag)
        slack.append((corner[-1].copy(), corner[:, -1].copy()))
    return _Tower(matrix, (*positions, None), slack, complemented)


def build_case_a(
    spec: SequenceSpec,
    alpha: float = 0.5,
    depth: int = 3,
    *,
    budget: int = 100_000,
    report: KadisonReport | None = None,
) -> TruncatedProjection:
    """Truncated projection for a sequence with divergent threshold sums.

    Works on the low-side terms, those in ``(1e-12, alpha]`` (of the
    complemented sequence at ``1 - alpha`` when divergence lives on the high
    side), read once in index order; every other term waits in a queue.
    Each block is cut from a window of low-side terms sorted by value,
    descending, ties in index order.  Block 1 is the largest term ``b_1`` of
    the first window whose sum reaches 1, pushed up to 1.  Block ``k`` holds
    the head left for it by the previous window, pushed down by the previous
    top-up ``delta_{k-1}`` (split proportionally), at most one untouched
    queued term, and a tail: the fewest largest terms of a new window
    (leftover terms first, then fresh ones) that sum to ``1 / (1 - m)``,
    pushed up by the top-up ``delta_k`` that rounds the block sum to the
    next integer.  ``m`` is the largest of ``b_1`` and the window, which
    keeps every pushed-up entry at most 1.  The window's next-largest terms,
    until they sum to ``delta_k``, are the next head; the rest go back to
    the pool.  Sorting puts each tail above the next head, so the exact
    entries of two consecutive blocks are majorised by their pushed ones,
    and a unitary acting across the two restores the exact values.  Its
    rotation chain tests that majorisation exactly before the first
    rotation; a failure raises ``RuntimeError``.  Only the final block's
    pushed-up tail stays perturbed, so no finite residual bound is claimed
    (``residual_bound = inf``).

    When neither side sum is ``inf`` the side is the one with more mass among
    the first ``_ORDER_SAMPLE`` terms, reused when the low side wins.  A
    build reads at most ``budget`` terms of its working sequence, each once,
    else :class:`BudgetExhaustedError`.  ``report`` is as for :func:`build_case_b`.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    report = _checked_report(spec, alpha, budget, report)
    if report.feasibility is not Feasibility.CASE_A:
        raise ValueError("the threshold sums are summable; use build_case_b instead")

    if math.inf in (report.low_sum, report.high_complement_sum):
        complemented = report.low_sum != math.inf
        sample: list[float] = []
    else:
        sample = [term(spec, i) for i in range(1, min(_ORDER_SAMPLE, budget) + 1)]
        head = SideSums.of(sample, alpha)
        complemented = head.low < head.high
        if complemented:
            sample = []
    work_spec = complement(spec) if complemented else spec
    reader = _Reader(work_spec, 1.0 - alpha if complemented else alpha, 1e-12, budget, sample)
    pool: list[tuple[int, float]] = []  # low-side terms read but not placed, in index order

    def grow(mass: float) -> None:
        """Move low-side terms into the pool until they add at least ``mass``."""
        added = 0.0
        while added < mass:
            pool.append(reader.next(0))
            added += pool[-1][1]

    def reach(window, start: int, bound: float) -> tuple[int, float]:
        """End of the shortest ``window[start:end]`` whose sum reaches ``bound``
        (``len(window)`` if none does), and that sum."""
        end, total = start, 0.0
        while total < bound and end < len(window):
            total += window[end][1]
            end += 1
        return end, total

    # Per block: entries as (index, built value, exact value), pushed-down
    # head first and pushed-up tail last, and the (head, tail) lengths.
    blocks: list[list[tuple[int, float, float]]] = []
    spans: list[tuple[int, int]] = []
    head: list[tuple[int, float]] = []
    head_total = delta = b1 = 0.0
    grow(1.0)
    for k in range(1, depth + 1):
        entries = [(idx, v - (v / head_total) * delta, v) for idx, v in head]
        running = head_total - delta
        if k > 1 and reader.queues[1]:  # an untouched term off the low side
            idx, v = reader.queues[1].popleft()
            entries.append((idx, v, v))
            running += v
        while True:
            window = sorted(pool, key=lambda t: -t[1])
            if k == 1:
                b1 = bound = window[0][1]  # block 1's tail is its largest term
            else:
                bound = 1.0 / (1.0 - max(b1, window[0][1] if window else 0.0))
            cut, tail_total = reach(window, 0, bound)
            total = running + tail_total
            next_delta = math.floor(total) + 1.0 - total
            need = next_delta if k < depth else 0.0
            stop, next_total = reach(window, cut, need)
            if tail_total >= bound and next_total >= need:
                break
            grow(max(bound - tail_total, 0.0) + need - next_total)
        spans.append((len(head), cut))
        entries += [(idx, v + (v / tail_total) * next_delta, v) for idx, v in window[:cut]]
        blocks.append(entries)
        head, head_total, delta = window[cut:stop], next_total, next_delta
        pool[:] = sorted(window[stop:])

    offsets = list(itertools.accumulate(map(len, blocks), initial=0))
    matrix = np.zeros((offsets[-1], offsets[-1]))
    for k, block in enumerate(blocks):
        span = slice(offsets[k], offsets[k + 1])
        matrix[span, span] = carpenter_finite(np.array([value for _, value, _ in block]))
    exact = [v for block in blocks for _, _, v in block]
    for k in range(len(blocks) - 1):
        # Block k's pushed-up tail ends where block k + 1's pushed-down head starts.
        rows = range(offsets[k + 1] - spans[k][1], offsets[k + 1] + spans[k + 1][0])
        _repair(matrix, rows, [exact[p] for p in rows])

    diagonal_map = [idx for block in blocks for idx, _, _ in block]
    covered = tuple(sorted(diagonal_map[: offsets[-1] - spans[-1][1]]))  # all but the last tail
    result = TruncatedProjection(
        matrix=matrix,
        depth=depth,
        diagonal_map=tuple(diagonal_map),
        covered=covered,
        residual_bound=math.inf,
    )
    return _complemented(result) if complemented else result


def projection_with_trace(
    spec: SequenceSpec, *, budget: int = 100_000
) -> TruncatedProjection:
    """Truncated projection whose diagonal is the (summable) sequence.

    One :func:`feasibility` call at 1/2 decides it: Case A or infinitely many
    terms above 1/2 is not summable (``ValueError``), and the total
    ``a_f + high_count - b_f`` is an integer ``m`` exactly when ``a_f - b_f``
    is (else :class:`InfeasibleDiagonalError`).  The returned truncation has
    trace within ``_TRACE_TOL`` (1e-8) of ``m``
    (the construction is run deep enough that every above-half entry is
    covered, at which point the trace equals ``m`` exactly in real
    arithmetic).
    """
    report = feasibility(spec, 0.5, budget=budget)
    if report.feasibility is Feasibility.CASE_A or report.sums.high_count in (None, math.inf):
        raise ValueError("the sequence is not summable")
    depth = max(1, math.ceil(math.log2(3.0 / _TRACE_TOL)), int(report.sums.high_count))
    return build_case_b(spec, 0.5, depth, budget=budget, report=report)[-1]


def projection_with_cotrace(
    spec: SequenceSpec, *, budget: int = 100_000
) -> TruncatedProjection:
    """Truncated projection with diagonal ``spec`` when ``sum (1 - term)`` is finite.

    Runs :func:`projection_with_trace` on the complemented sequence and flips
    the result, so ``trace(I - P)`` lands within ``_TRACE_TOL`` of the integer
    complement total.
    """
    return _complemented(projection_with_trace(complement(spec), budget=budget))


def projection_increment_norms(projections) -> list[tuple[int, int, float]]:
    """Worst column movement between every pair of truncations.

    For each pair ``(P_k, P_{k+r})`` (the first embedded as the leading
    corner), returns ``(k, r, max_t ||(P_{k+r} - P_k) e_t||^2)`` over the
    smaller dimension's basis vectors.  ``projections`` is read once.
    """
    projections, out = list(projections), []
    for a, small in enumerate(projections):
        for big in projections[a + 1 :]:
            d = small.matrix.shape[0]
            dbig = big.matrix.shape[0]
            if dbig < d:
                raise ValueError("projections must be ordered by depth")
            diff = big.matrix[:, :d].astype(np.result_type(big.matrix, small.matrix))
            diff[:d] -= small.matrix
            worst = float(np.max(np.sum(np.abs(diff) ** 2, axis=0))) if d else 0.0
            out.append((small.depth, big.depth - small.depth, worst))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Re-checked invariants of a truncated projection against its sequence."""

    projection_residual: float
    diagonal_error: float
    entry_excess: float
    ok: bool


def verify_truncation(
    spec: SequenceSpec,
    truncated: TruncatedProjection,
    tol: float = STRUCTURAL_TOL,
) -> VerificationReport:
    """Re-verify a truncation: projection axioms, covered diagonal, entry bounds.

    A covered index that sits at no matrix position cannot be checked, and
    an index placed at several positions is no corner of one projection;
    either counts as an infinite diagonal error.
    """
    p = truncated.matrix
    proj_res = projection_residual(p)
    covered = set(truncated.covered)
    placed = [idx for idx in truncated.diagonal_map if idx is not None]
    unique = set(placed)
    diag_err = math.inf if covered - unique or len(unique) < len(placed) else 0.0
    for pos, idx in enumerate(truncated.diagonal_map):
        if idx is not None and idx in covered:
            diag_err = max(diag_err, abs(p[pos, pos].real - term(spec, idx)))
    excess = projection_entry_excess(p)
    ok = bool(proj_res <= tol and diag_err <= max(tol, 1e-9) and excess <= max(tol, 1e-9))
    return VerificationReport(proj_res, diag_err, excess, ok)
