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
  growing projections, each a corner-perturbation of the next, covering more
  and more indices at their exact diagonal values and satisfying the verified
  increment bound ``||(P_{k+r} - P_k) e_t||^2 <= 6 / 2**k``.
* :func:`build_case_a` (divergent): a direct sum of integer-trace blocks whose
  perturbed diagonals are repaired by unitaries acting across neighbouring
  blocks, leaving only the final block's top-up entries off target.
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from .linalg import INTEGER_TOL, STRUCTURAL_TOL, projection_entry_excess, projection_residual
from .majorization import verify_concentration
from .schur import InfeasibleDiagonalError, _mix_rows_to, carpenter_finite
from .sequences import (
    BudgetExhaustedError,
    SequenceSpec,
    SideSums,
    _combine,
    complement,
    sequence_total,
    side_index_count,
    side_indices,
    term,
    terms,
)

__all__ = [
    "Feasibility",
    "KadisonReport",
    "TruncatedProjection",
    "MonotoneSelection",
    "MonotoneSelectionError",
    "VerificationReport",
    "kadison_sums",
    "feasibility",
    "build_case_b",
    "build_case_a",
    "projection_with_trace",
    "projection_with_cotrace",
    "monotone_divergent_subsequence",
    "block_projection_from_partition",
    "projection_increment_norms",
    "verify_truncation",
]

_CHAIN_TOL = 1e-9  # tolerance of the builders' rotation chains
_TRACE_TOL = 1e-8  # how far a projection_with_trace trace may miss its integer
_SELECTION_SAMPLE = 4096  # leading terms that pick the Case-A selection rule
_ORDER_SAMPLE = 2048  # leading terms that pick the side Case-A tries first


class Feasibility(enum.Enum):
    """Classification of a sequence as a prospective projection diagonal."""

    CASE_A = "CaseA"
    CASE_B = "CaseB-feasible"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class KadisonReport:
    """Threshold sums and the feasibility verdict they imply.

    ``low_sum`` / ``high_complement_sum`` are exact reals, ``inf`` for a
    certified divergent side, or ``None`` when total divergence cannot be
    attributed to a single side.  ``defect`` is the distance of their
    difference from the nearest integer (``None`` unless both are finite).
    """

    alpha: float
    low_sum: float | None
    high_complement_sum: float | None
    low_mass_infinite: bool
    high_mass_infinite: bool
    defect: float | None
    feasibility: Feasibility


def kadison_sums(spec: SequenceSpec, alpha: float = 0.5, *, budget: int = 100_000) -> SideSums:
    """Side sums of the whole sequence (prefix plus tail) at ``alpha`` in (0, 1).

    The tail may evaluate at most ``budget`` terms, else :class:`BudgetExhaustedError`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    tail = spec.tail.side_sums(alpha, budget)
    prefix_low = sum(v for v in spec.prefix if v <= alpha)
    prefix_high = sum(1.0 - v for v in spec.prefix if v > alpha)
    return SideSums(
        _combine(prefix_low, tail.low),
        _combine(prefix_high, tail.high),
        tail.low_mass_infinite,
        tail.high_mass_infinite,
    )


def feasibility(
    spec: SequenceSpec,
    alpha: float = 0.5,
    *,
    budget: int = 100_000,
) -> KadisonReport:
    """Decide which construction (if any) applies to the sequence at ``alpha``."""
    sums = kadison_sums(spec, alpha, budget=budget)
    low, high = sums.low, sums.high
    if sums.total_divergent:
        verdict = Feasibility.CASE_A
        defect = None
    else:
        diff = low - high
        defect = abs(diff - round(diff))
        verdict = Feasibility.CASE_B if defect <= INTEGER_TOL else Feasibility.INFEASIBLE
    return KadisonReport(
        alpha, low, high, sums.low_mass_infinite, sums.high_mass_infinite, defect, verdict
    )


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
    return replace(p, matrix=np.eye(p.matrix.shape[0], dtype=np.complex128) - p.matrix)


def build_case_b(
    spec: SequenceSpec,
    alpha: float = 0.5,
    depth: int = 1,
    *,
    budget: int = 100_000,
) -> list[TruncatedProjection]:
    """Tower ``P_1, ..., P_depth`` of projections for a summable-defect sequence.

    Step ``k`` covers enough low indices to push the uncovered low mass
    ``delta_k`` below ``2**-k`` and enough high indices to push the uncovered
    high complement mass ``mu_k`` strictly below ``delta_k``; the leftover
    ``sigma_k = delta_k - mu_k`` occupies a single slack position.  Each
    ``P_{k+1}`` extends ``P_k`` by rotating newly appended exact 0/1 entries
    together with the old slack position, so the old corner moves by at most
    the retired residual mass -- giving ``||(P_{k+r} - P_k) e_t||^2 <= 6/2**k``.

    When only the high side carries infinite mass the construction runs on
    the complemented sequence at ``1 - alpha`` and returns ``I - Q``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    report = feasibility(spec, alpha, budget=budget)
    if report.feasibility is Feasibility.CASE_A:
        raise ValueError("the threshold sums diverge; use build_case_a instead")
    if report.feasibility is Feasibility.INFEASIBLE:
        raise InfeasibleDiagonalError(
            f"threshold sums differ by a non-integer (defect {report.defect:.3e})",
            defect=report.defect,
        )
    complemented = False
    work_spec, work_alpha = spec, alpha
    a_f, b_f = float(report.low_sum), float(report.high_complement_sum)
    if not report.low_mass_infinite and report.high_mass_infinite:
        # Only the high side carries infinite mass: the residual ordering
        # mu < delta could not be sustained, so build for the complement.
        complemented = True
        work_spec, work_alpha = complement(spec), 1.0 - alpha
        sums = kadison_sums(work_spec, work_alpha, budget=budget)
        a_f, b_f = float(sums.low), float(sums.high)
    snap = 1e-13 * max(1.0, a_f, b_f)

    def residual(total: float, taken: float) -> float:
        left = total - taken
        return 0.0 if left <= snap else left

    # Side 0 is the low side, side 1 the high side.  Both are counted before
    # any term is pulled, so an unattributable side fails first.
    for low in (True, False):
        side_index_count(work_spec, work_alpha, low)
    sides = [side_indices(work_spec, work_alpha, low) for low in (True, False)]
    totals = (a_f, b_f)
    taken = [0.0, 0.0]  # covered low mass, covered high complement mass
    pulls = 0

    def pull(side: int, short) -> tuple[list[tuple[int, float]], float]:
        """Pull one term of ``side`` if any remain, then more while ``short``
        holds for its uncovered mass; return the new terms and that mass."""
        nonlocal pulls
        pulled = []
        left = residual(totals[side], taken[side])
        for i, v in sides[side]:
            pulls += 1
            if pulls > budget:
                raise BudgetExhaustedError(f"more than {budget} terms consumed")
            pulled.append((i, v))
            taken[side] += 1.0 - v if side else v
            left = residual(totals[side], taken[side])
            if not short(left):
                break
        return pulled, left

    matrix: np.ndarray | None = None
    rows: list[int | None] = []
    results: list[TruncatedProjection] = []

    for k in range(1, depth + 1):
        target = 2.0**-k
        new_low, delta = pull(0, lambda left: left >= target)
        new_high, mu = pull(1, lambda left: not (left < delta or (left == 0.0 and delta == 0.0)))
        if mu > delta + snap:
            raise BudgetExhaustedError(
                "residual ordering mu < delta unattainable at this depth"
            )
        sigma = max(0.0, delta - mu)
        step_diag = [v for _, v in new_low + new_high] + [sigma]
        new_rows = [i for i, _ in new_low + new_high]
        if matrix is None:
            matrix = carpenter_finite(np.array(step_diag))
            rows = [*new_rows, None]
        else:
            d = len(rows)
            grow = len(new_rows)
            bigger = np.zeros((d + grow, d + grow), dtype=np.complex128)
            bigger[:d, :d] = matrix
            for offset in range(len(new_low), grow):
                bigger[d + offset, d + offset] = 1.0
            positions = [d - 1, *range(d, d + grow)]
            _mix_rows_to(bigger, positions, step_diag, _CHAIN_TOL)
            matrix = bigger
            rows = rows[:-1] + [*new_rows, None]
        covered = tuple(sorted(i for i in rows if i is not None))
        results.append(
            TruncatedProjection(
                matrix=matrix,
                depth=k,
                diagonal_map=tuple(rows),
                covered=covered,
                residual_bound=6.0 * 2.0**-k,
            )
        )
    return [_complemented(p) for p in results] if complemented else results


class MonotoneSelectionError(RuntimeError):
    """No selection rule fits the sampled terms of a divergent sequence.

    The spec itself is valid, so this is a limit of :func:`build_case_a`
    (exit code 3), not malformed input.
    """


@dataclass(frozen=True)
class MonotoneSelection:
    """Rule for extracting a non-increasing divergent subsequence.

    ``constant`` keeps values within ``tolerance`` of ``value`` (an infinite
    cluster); ``descending`` keeps any value not exceeding the previously kept
    one (up to ``tolerance``), which is the full stream when it is already
    sorted and a greedy sub-stream otherwise.
    """

    kind: str
    value: float | None
    tolerance: float

    def keeps(self, v: float, last_kept: float | None) -> bool:
        if not 1e-12 < v < 1.0 - 1e-12:
            return False
        if self.kind == "constant":
            return abs(v - self.value) <= self.tolerance
        return last_kept is None or v <= last_kept + self.tolerance


def _bucket(v: float) -> float:
    return round(v, 9)


def _largest_bucket(vals: list[float], need: int) -> list[float] | None:
    """Largest group of ``vals`` sharing one :func:`_bucket` value, if it has
    at least ``need`` members; of equal groups, the first to appear in ``vals``.

    Rounding is monotone, so each group is a run of the sorted values, and a
    run of ``need`` or more covers one of the positions ``need - 1``,
    ``2 * need - 1``, ...: only the groups at those positions are measured.
    """
    ordered = sorted(vals)
    step = max(need, 1)
    runs: dict[int, int] = {}
    for pos in range(step - 1, len(ordered), step):
        key = _bucket(ordered[pos])
        lo = bisect_left(ordered, key, key=_bucket)
        runs[lo] = bisect_right(ordered, key, lo, key=_bucket)
    size = max((hi - lo for lo, hi in runs.items()), default=0)
    if size < need:
        return None
    tied = [lo for lo, hi in runs.items() if hi - lo == size]
    if len(tied) > 1:
        tied.sort(key=lambda lo: _first_at(vals, ordered[lo], ordered[lo + size - 1]))
    return ordered[tied[0] : tied[0] + size]


def _first_at(vals: list[float], low: float, high: float) -> int:
    return next(j for j, v in enumerate(vals) if low <= v <= high)


def monotone_divergent_subsequence(values, *, min_cluster: int = 16) -> MonotoneSelection | None:
    """Pick a selection rule from sampled candidate values, or ``None``.

    Tries, in order: an infinite constant cluster (many samples sharing one
    value), an already non-increasing sample, and a greedy non-increasing
    sub-stream that retains a substantial share of the sampled mass.
    """
    vals = [v for v in map(float, values) if 1e-12 < v < 1.0 - 1e-12]
    if not vals:
        return None
    need = max(min_cluster, len(vals) // 4)
    cluster = _largest_bucket(vals, need)
    if cluster is not None and min(cluster) > 1e-6:
        return MonotoneSelection("constant", float(median(cluster)), 1e-9)
    if all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])):
        return MonotoneSelection("descending", None, 1e-12)
    kept: list[float] = []
    for v in vals:
        if not kept or v <= kept[-1] + 1e-12:
            kept.append(v)
    if len(kept) >= need and sum(kept) >= 0.25 * sum(vals):
        return MonotoneSelection("descending", None, 1e-12)
    return None


def block_projection_from_partition(blocks) -> np.ndarray:
    """Direct sum of projections, one per diagonal block (integer block sums)."""
    mats = [carpenter_finite(np.asarray(block, dtype=float)) for block in blocks]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at : at + d, at : at + d] = m
        at += d
    return out


def _attributed_order(spec: SequenceSpec, report: KadisonReport, sample_size: int, budget: int):
    """Preferred complementation order for the divergent construction.

    When neither side sum is ``inf`` it is read off the first ``_ORDER_SAMPLE``
    terms of one pass over ``spec`` that also covers the ``sample_size``
    terms of its selection sample; that pass is returned too (else ``None``).
    The pass takes at most ``budget`` terms.
    """
    if report.low_sum == math.inf:
        return [False, True], None
    if report.high_complement_sum == math.inf:
        return [True, False], None
    alpha = report.alpha
    count = min(max(sample_size, _ORDER_SAMPLE), budget)
    values = terms(spec, count)
    mass_low = 0.0
    mass_high = 0.0
    for v in values[:_ORDER_SAMPLE]:
        if v <= alpha:
            mass_low += v
        else:
            mass_high += 1.0 - v
    return ([False, True] if mass_low >= mass_high else [True, False]), values


def build_case_a(
    spec: SequenceSpec,
    alpha: float = 0.5,
    depth: int = 3,
    *,
    budget: int = 100_000,
) -> TruncatedProjection:
    """Truncated projection for a sequence with divergent threshold sums.

    Extracts a non-increasing divergent subsequence ``b`` (working on the
    complemented sequence when divergence lives on the high side) and builds
    ``depth`` diagonal blocks with integer sums: block 1 is the single entry
    ``b_1 + (1 - b_1)``; block ``k`` carries a few ``b`` terms pushed down by
    the previous block's top-up ``delta_{k-1}`` (split proportionally over the
    smallest head of ``b`` that can absorb it), at most one untouched term
    from the remaining sequence, and a tail of ``b`` terms pushed up by the
    new top-up ``delta_k`` that rounds the block sum to the next integer.
    Unitaries acting across consecutive blocks then restore the pushed
    entries to their exact values; only the final block's pushed-up tail
    stays perturbed, so no finite residual bound is claimed
    (``residual_bound = inf``).
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    report = feasibility(spec, alpha, budget=budget)
    if report.feasibility is not Feasibility.CASE_A:
        raise ValueError("the threshold sums are summable; use build_case_b instead")

    sample_size = min(_SELECTION_SAMPLE, budget)
    order, plain = _attributed_order(spec, report, sample_size, budget)
    for complemented in order:
        work_spec = complement(spec) if complemented else spec
        work_alpha = 1.0 - alpha if complemented else alpha
        if plain is None or complemented:
            sample = terms(work_spec, sample_size)
        else:
            sample = plain[:sample_size]
        selection = monotone_divergent_subsequence(v for v in sample if v <= work_alpha)
        if selection is not None:
            break
    else:
        raise MonotoneSelectionError(
            "no monotone divergent subsequence is apparent in the sampled terms"
        )

    queue: deque[tuple[int, float]] = deque()

    def selected():
        """Yield the kept ``(index, value)`` terms of the working sequence and
        queue the others; a term comes from the selection sample while it lasts."""
        last = None
        for i in itertools.count(1):
            if i > budget:
                raise BudgetExhaustedError(f"more than {budget} terms consumed")
            v = sample[i - 1] if i <= sample_size else term(work_spec, i)
            if v <= work_alpha and selection.keeps(v, last):
                if selection.kind == "descending":
                    last = v
                yield i, v
            else:
                queue.append((i, v))

    b_terms = selected()

    def take(bound: float) -> tuple[list[tuple[int, float]], float]:
        """Kept terms, in order, until their sum reaches ``bound``, and that sum."""
        terms, total = [], 0.0
        while total < bound:
            idx, v = next(b_terms)
            terms.append((idx, v))
            total += v
        return terms, total

    first_idx, b1 = next(b_terms)
    delta = 1.0 - b1
    s_threshold = 1.0 / (1.0 - b1)
    # Per block: entries as (index, built value, exact value), plus the spans
    # of pushed-down and pushed-up positions for the repair step.
    blocks: list[list[tuple[int, float, float]]] = [[(first_idx, 1.0, b1)]]
    down_parts: list[list[int]] = [[]]  # local positions pushed down, per block
    up_parts: list[list[int]] = [[0]]  # local positions pushed up, per block

    for _ in range(2, depth + 1):
        absorb, total = take(delta)
        entries = [(idx, v - (v / total) * delta, v) for idx, v in absorb]
        running = total - delta
        if queue:
            idx, v = queue.popleft()
            entries.append((idx, v, v))
            running += v
        tail, tail_total = take(s_threshold)
        running += tail_total
        delta = math.floor(running) + 1.0 - running
        down_parts.append(list(range(len(absorb))))
        up_parts.append(list(range(len(entries), len(entries) + len(tail))))
        entries += [(idx, v + (v / tail_total) * delta, v) for idx, v in tail]
        blocks.append(entries)

    offsets = list(itertools.accumulate(map(len, blocks), initial=0))
    matrix = block_projection_from_partition(
        [[value for _, value, _ in block] for block in blocks]
    )
    for k in range(len(blocks) - 1):
        up_positions = [offsets[k] + p for p in up_parts[k]]
        down_positions = [offsets[k + 1] + p for p in down_parts[k + 1]]
        pushed_up = [blocks[k][p][1] for p in up_parts[k]]
        exact_up = [blocks[k][p][2] for p in up_parts[k]]
        pushed_down = [blocks[k + 1][p][1] for p in down_parts[k + 1]]
        exact_down = [blocks[k + 1][p][2] for p in down_parts[k + 1]]
        if not verify_concentration(exact_up, pushed_up, exact_down, pushed_down, tol=1e-8):
            raise RuntimeError("block repair hypotheses failed; construction is inconsistent")
        _mix_rows_to(matrix, up_positions + down_positions, exact_up + exact_down, _CHAIN_TOL)

    diagonal_map = [idx for block in blocks for idx, _, _ in block]
    uncovered = {blocks[-1][p][0] for p in up_parts[-1]}
    covered = tuple(sorted(set(diagonal_map) - uncovered))
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

    The sequence total must be within the integer tolerance of an integer
    ``m``; the returned truncation has trace within ``_TRACE_TOL`` (1e-8) of ``m``
    (the construction is run deep enough that every above-half entry is
    covered, at which point the trace equals ``m`` exactly in real
    arithmetic).
    """
    total = sequence_total(spec)
    if not math.isfinite(total):
        raise ValueError("the sequence is not summable")
    m = round(total)
    defect = abs(total - m)
    if defect > INTEGER_TOL:
        raise InfeasibleDiagonalError(
            f"sequence total {total!r} is {defect:.3e} away from an integer", defect=defect
        )
    high_count = int(side_index_count(spec, 0.5, False))
    depth = max(1, math.ceil(math.log2(3.0 / _TRACE_TOL)), high_count)
    return build_case_b(spec, 0.5, depth, budget=budget)[-1]


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
    smaller dimension's basis vectors.
    """
    out = []
    for a in range(len(projections)):
        for b in range(a + 1, len(projections)):
            small = projections[a]
            big = projections[b]
            d = small.matrix.shape[0]
            dbig = big.matrix.shape[0]
            if dbig < d:
                raise ValueError("projections must be ordered by depth")
            embedded = np.zeros((dbig, d), dtype=np.complex128)
            embedded[:d, :] = small.matrix
            diff = big.matrix[:, :d] - embedded
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
    ok = proj_res <= tol and diag_err <= max(tol, 1e-9) and excess <= max(tol, 1e-9)
    return VerificationReport(proj_res, diag_err, excess, ok)
