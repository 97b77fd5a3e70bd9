"""Threshold-sum feasibility and the two truncated-projection constructions."""

import math
import random
from collections import Counter
from statistics import median

import numpy as np
import pytest

from schurhorn import (
    BudgetExhaustedError,
    Certificate,
    DivergentHigh,
    DivergentLow,
    Feasibility,
    GeometricHigh,
    GeometricLow,
    InfeasibleDiagonalError,
    Interleave,
    MonotoneSelection,
    MonotoneSelectionError,
    OneTail,
    SequenceSpec,
    TailCertificateError,
    ZeroTail,
    block_projection_from_partition,
    build_case_a,
    build_case_b,
    feasibility,
    kadison_sums,
    monotone_divergent_subsequence,
    projection_entry_excess,
    projection_increment_norms,
    projection_residual,
    projection_with_cotrace,
    projection_with_trace,
    term,
    verify_truncation,
)
from schurhorn import carpenter

# Interleaves 1/2^{i+1} with 1 - 1/2^{i+1}: the canonical summable-defect example.
HALF_INTERLEAVE = SequenceSpec((), Interleave(GeometricLow(0.5, 0.5), GeometricHigh(0.5, 0.5)))
CONSTANT_HALF = SequenceSpec((), DivergentLow("0.5", Certificate("constant", 0.5)))


def test_kadison_sums_frozen():
    s = kadison_sums(HALF_INTERLEAVE, 0.5)
    assert (s.low, s.high) == (0.5, 0.5)
    assert s.low_mass_infinite and s.high_mass_infinite
    s = kadison_sums(SequenceSpec((0.9,), GeometricLow(1.0, 0.5)), 0.5)
    assert s.low == pytest.approx(1.0, abs=0)
    assert s.high == pytest.approx(0.1, abs=1e-15)
    s = kadison_sums(SequenceSpec((), ZeroTail()), 0.5)
    assert (s.low, s.high) == (0.0, 0.0)


def test_feasibility_verdicts():
    r = feasibility(HALF_INTERLEAVE)
    assert r.feasibility is Feasibility.CASE_B
    assert r.defect == pytest.approx(0.0, abs=1e-15)
    r = feasibility(SequenceSpec((), GeometricLow(0.5, 0.5)))
    assert r.feasibility is Feasibility.INFEASIBLE
    assert r.defect == pytest.approx(0.5, abs=1e-15)
    r = feasibility(CONSTANT_HALF)
    assert r.feasibility is Feasibility.CASE_A
    assert r.defect is None and r.low_sum == math.inf
    r = feasibility(SequenceSpec((), OneTail()))
    assert r.feasibility is Feasibility.CASE_B
    with pytest.raises(ValueError):
        feasibility(HALF_INTERLEAVE, alpha=0.0)


def test_feasibility_threshold_independent_here():
    reports = [feasibility(HALF_INTERLEAVE, a) for a in (0.3, 0.5, 0.7)]
    assert all(r.feasibility is Feasibility.CASE_B for r in reports)
    defects = [r.defect for r in reports]
    assert max(defects) - min(defects) <= 1e-12


def test_case_b_tower_frozen_first_step():
    tower = build_case_b(HALF_INTERLEAVE, depth=6)
    p1 = tower[0]
    want = np.array([0.25, 0.75, 0.875, 0.125])
    assert np.max(np.abs(np.diag(p1.matrix).real - want)) <= 1e-12
    assert p1.diagonal_map == (1, 2, 4, None)
    assert p1.covered == (1, 2, 4)
    assert p1.residual_bound == 6.0 / 2.0
    p2 = tower[1]
    assert p2.diagonal_map == (1, 2, 4, 3, 6, None)
    assert p2.covered == (1, 2, 3, 4, 6)
    for k, p in enumerate(tower, start=1):
        assert p.depth == k
        assert p.matrix.shape == (2 * k + 2, 2 * k + 2)
        assert abs(np.trace(p.matrix).real - (k + 1)) <= 1e-9
        assert p.residual_bound == 6.0 * 2.0**-k
        report = verify_truncation(HALF_INTERLEAVE, p)
        assert report.ok, report


@pytest.mark.parametrize(
    "spec",
    [HALF_INTERLEAVE, SequenceSpec((), GeometricHigh(1.0, 0.5))],
    ids=["interleave", "complemented"],
)
def test_case_b_tower_levels_are_independent_arrays(spec):
    tower = build_case_b(spec, depth=6)
    for k, p in enumerate(tower, start=1):
        alone = build_case_b(spec, depth=k)[-1].matrix
        assert p.matrix.tobytes() == alone.tobytes()
    for i, p in enumerate(tower):
        for q in tower[i + 1 :]:
            assert not np.shares_memory(p.matrix, q.matrix)
    # Levels built after level k leave it as it was.
    deeper = build_case_b(spec, depth=8)
    for p, q in zip(tower, deeper):
        assert p.matrix.tobytes() == q.matrix.tobytes()


def test_case_b_tower_increment_bounds():
    tower = build_case_b(HALF_INTERLEAVE, depth=8)
    for k, r, norm in projection_increment_norms(tower):
        assert norm <= 6.0 * 2.0**-k
    with pytest.raises(ValueError):
        projection_increment_norms(list(reversed(tower)))


def test_case_b_complement_switch():
    # only the high side carries infinite mass: built via the complement
    spec = SequenceSpec((), GeometricHigh(1.0, 0.5))
    tower = build_case_b(spec, depth=6)
    for p in tower:
        assert verify_truncation(spec, p).ok
    p1 = tower[0]
    assert p1.covered == (1, 2)
    assert p1.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)
    assert p1.matrix[1, 1].real == pytest.approx(0.75, abs=1e-12)
    for k, r, norm in projection_increment_norms(tower):
        assert norm <= 6.0 * 2.0**-k


def test_case_b_degenerate_all_zero_and_all_one():
    tower = build_case_b(SequenceSpec((), ZeroTail()), depth=4)
    for k, p in enumerate(tower, start=1):
        assert p.matrix.shape == (k + 1, k + 1)
        assert np.max(np.abs(p.matrix)) == 0.0
    tower = build_case_b(SequenceSpec((), OneTail()), depth=4)
    for k, p in enumerate(tower, start=1):
        want = np.diag([1.0] * k + [0.0])
        assert np.max(np.abs(p.matrix - want)) <= 1e-12


def test_case_b_pulls_a_term_per_side_at_every_level():
    # delta = 0.1 is already below 2^-4 only from level 4 on, yet every level
    # must still cover at least one more low index: a side with terms left
    # gives one up before its residual condition is consulted.
    tower = build_case_b(SequenceSpec((0.9, 0.1), ZeroTail()), depth=6)
    low_covered = [len([i for i in p.covered if i != 1]) for p in tower]
    assert low_covered == [1, 2, 3, 4, 5, 6]
    assert all(1 in p.covered for p in tower)  # the lone high index, at level 1


def test_case_b_rejections():
    with pytest.raises(ValueError):
        build_case_b(HALF_INTERLEAVE, depth=0)
    with pytest.raises(ValueError):
        build_case_b(CONSTANT_HALF)  # divergent: wrong construction
    with pytest.raises(InfeasibleDiagonalError) as exc:
        build_case_b(SequenceSpec((), GeometricLow(0.5, 0.5)))
    assert exc.value.defect == pytest.approx(0.5)
    with pytest.raises(BudgetExhaustedError):
        build_case_b(HALF_INTERLEAVE, depth=8, budget=2)


def test_monotone_divergent_subsequence_rules():
    sel = monotone_divergent_subsequence([0.5] * 40)
    assert sel is not None and sel.kind == "constant"
    assert sel.value == pytest.approx(0.5)
    sel = monotone_divergent_subsequence([1.0 / (i + 2) for i in range(1, 100)])
    assert sel is not None and sel.kind == "descending"
    # strictly increasing stream has no usable non-increasing sub-stream
    assert monotone_divergent_subsequence([0.5 - 1.0 / (i + 2) for i in range(1, 100)]) is None
    assert monotone_divergent_subsequence([]) is None
    assert monotone_divergent_subsequence([0.0, 1.0]) is None


def test_block_projection_from_partition():
    p = block_projection_from_partition([[0.5, 0.5], [1.0]])
    assert projection_residual(p) <= 1e-12
    assert np.max(np.abs(p[:2, 2])) == 0.0
    assert p[2, 2].real == 1.0
    with pytest.raises(InfeasibleDiagonalError):
        block_projection_from_partition([[0.5, 0.25]])


def test_case_a_constant_half_frozen():
    t = build_case_a(CONSTANT_HALF, depth=3)
    assert t.matrix.shape == (12, 12)
    assert abs(np.trace(t.matrix).real - 7.0) <= 1e-9
    assert t.diagonal_map == tuple(range(1, 13))
    assert t.covered == tuple(range(1, 9))
    assert t.residual_bound == math.inf
    d = np.diag(t.matrix).real
    assert np.max(np.abs(d[:8] - 0.5)) <= 1e-9
    assert np.max(np.abs(d[8:] - 0.75)) <= 1e-9
    assert projection_residual(t.matrix) <= 1e-10
    assert projection_entry_excess(t.matrix) <= 1e-9
    assert verify_truncation(CONSTANT_HALF, t).ok


def test_case_a_constant_with_queue_entries():
    # terms 0.5, 0.25, 1/6, 0.125 visit the queue; the constant 0.1 cluster
    # drives the blocks and one queued term is re-inserted per block
    spec = SequenceSpec((), DivergentLow("max(0.1, 0.5/i)", Certificate("constant", 0.1)))
    t = build_case_a(spec, depth=3)
    assert verify_truncation(spec, t).ok
    covered = set(t.covered)
    assert 1 in covered and 2 in covered  # queued terms 0.5 and 0.25 restored
    for pos, idx in enumerate(t.diagonal_map):
        if idx in covered:
            assert t.matrix[pos, pos].real == pytest.approx(term(spec, idx), abs=1e-9)


def test_case_a_descending_harmonic():
    spec = SequenceSpec(
        (), DivergentLow("min(0.5, 2/i)", Certificate("harmonic", 2.0, start=4))
    )
    t = build_case_a(spec, depth=2)
    assert verify_truncation(spec, t).ok
    assert t.covered == (1, 2)
    assert t.matrix[0, 0].real == pytest.approx(0.5, abs=1e-9)


def test_case_a_complemented_high_divergence():
    spec = SequenceSpec((), DivergentHigh("0.25", Certificate("constant", 0.25)))
    t = build_case_a(spec, depth=3)
    assert verify_truncation(spec, t).ok
    d = np.diag(t.matrix).real
    for pos, idx in enumerate(t.diagonal_map):
        if idx in set(t.covered):
            assert d[pos] == pytest.approx(0.75, abs=1e-9)
    assert projection_residual(t.matrix) <= 1e-10


def test_case_a_rejections():
    with pytest.raises(ValueError):
        build_case_a(CONSTANT_HALF, depth=1)
    with pytest.raises(ValueError):
        build_case_a(HALF_INTERLEAVE)  # summable: wrong construction
    with pytest.raises(BudgetExhaustedError):
        build_case_a(CONSTANT_HALF, depth=3, budget=10)
    oscillating = SequenceSpec(
        (), DivergentLow("0.25 + 0.2*sin(i)", Certificate("constant", 0.05))
    )
    # A valid spec outside the construction's reach: a numerical limit, not bad input.
    with pytest.raises(MonotoneSelectionError):
        build_case_a(oscillating, depth=3)


def test_projection_with_trace_examples():
    spec = SequenceSpec((0.5, 0.5, 0.5, 0.5), ZeroTail())
    t = projection_with_trace(spec)
    assert abs(np.trace(t.matrix).real - 2.0) <= 1e-8
    assert verify_truncation(spec, t).ok
    spec = SequenceSpec((0.75, 0.25), GeometricLow(1.0, 0.5))
    t = projection_with_trace(spec)
    assert abs(np.trace(t.matrix).real - 2.0) <= 1e-8
    assert verify_truncation(spec, t).ok
    with pytest.raises(InfeasibleDiagonalError) as exc:
        projection_with_trace(SequenceSpec((), GeometricLow(0.5, 0.5)))
    assert exc.value.defect == pytest.approx(0.5)
    with pytest.raises(ValueError):
        projection_with_trace(SequenceSpec((), OneTail()))


def test_projection_with_cotrace_example():
    spec = SequenceSpec((0.5, 0.5), GeometricHigh(1.0, 0.5))
    t = projection_with_cotrace(spec)
    n = t.matrix.shape[0]
    assert abs((n - np.trace(t.matrix).real) - 2.0) <= 1e-8
    assert verify_truncation(spec, t).ok


def test_verify_truncation_detects_tampering():
    tower = build_case_b(HALF_INTERLEAVE, depth=2)
    p = tower[-1]
    assert verify_truncation(HALF_INTERLEAVE, p).ok
    tampered_matrix = p.matrix.copy()
    tampered_matrix[0, 0] += 0.01
    from schurhorn import TruncatedProjection

    bad = TruncatedProjection(
        matrix=tampered_matrix,
        depth=p.depth,
        diagonal_map=p.diagonal_map,
        covered=p.covered,
        residual_bound=p.residual_bound,
    )
    report = verify_truncation(HALF_INTERLEAVE, bad)
    assert not report.ok
    assert report.diagonal_error > 1e-3


def _reference_monotone(values, *, min_cluster: int = 16):
    """The bucket-per-value selection that the sorted-sample version replaced."""
    vals = [float(v) for v in values if 1e-12 < float(v) < 1.0 - 1e-12]
    if not vals:
        return None
    buckets: dict[float, list[float]] = {}
    for v in vals:
        buckets.setdefault(round(v, 9), []).append(v)
    anchor = max(buckets, key=lambda key: len(buckets[key]))
    cluster = buckets[anchor]
    if len(cluster) >= max(min_cluster, len(vals) // 4) and min(cluster) > 1e-6:
        return MonotoneSelection("constant", float(median(cluster)), 1e-9)
    if all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])):
        return MonotoneSelection("descending", None, 1e-12)
    kept: list[float] = []
    for v in vals:
        if not kept or v <= kept[-1] + 1e-12:
            kept.append(v)
    if len(kept) >= max(min_cluster, len(vals) // 4) and sum(kept) >= 0.25 * sum(vals):
        return MonotoneSelection("descending", None, 1e-12)
    return None


def _selection_samples():
    rng = random.Random(20021)
    centre = 0.123456789
    near = [centre + d for d in (0.0, 4e-10, -4e-10, 6e-10, -6e-10, 5e-10, -5e-10)]
    yield [0.3] * 64
    yield [rng.choice(near) for _ in range(400)]
    yield [centre + (rng.random() - 0.5) * 2e-9 for _ in range(4096)]
    for size in (32, 100, 4096):
        two = [0.2] * (size // 2) + [0.4] * (size // 2)  # equal clusters: first seen wins
        yield two
        yield two[::-1]
        rng.shuffle(two)
        yield two
        yield [v + rng.choice((0.0, 4e-10, -4e-10)) for v in two]
    yield [0.5 / math.sqrt(i) for i in range(1, 4097)]
    yield sorted((rng.random() for _ in range(500)), reverse=True)
    yield [rng.random() for _ in range(500)]
    yield [0.3 + 0.2 * math.sin(i) ** 2 for i in range(1, 2049)]
    for size in range(1, 16):
        yield [rng.choice((0.1, 0.2, 0.2 + 4e-10)) for _ in range(size)]
        yield sorted((rng.random() for _ in range(size)), reverse=True)
    yield [1e-12, 1.0 - 1e-12, 2e-12, 1.0 - 2e-12] * 20
    yield [5e-7] * 40 + [0.25] * 39  # the largest cluster sits below 1e-6
    yield [rng.randint(1, 9) / 10 for _ in range(1000)]
    yield [rng.randint(1, 10**9 - 1) / 1e9 + rng.choice((5e-10, -5e-10)) for _ in range(300)]


@pytest.mark.parametrize("values", list(_selection_samples()))
@pytest.mark.parametrize("min_cluster", [16, 1])
def test_monotone_selection_matches_bucket_reference(values, min_cluster):
    def key(sel):
        return None if sel is None else (sel.kind, repr(sel.value), sel.tolerance)

    want = _reference_monotone(values, min_cluster=min_cluster)
    assert key(monotone_divergent_subsequence(values, min_cluster=min_cluster)) == key(want)


def test_builds_reuse_the_reported_side_sums(monkeypatch):
    calls = []
    for cls in (DivergentLow, GeometricLow):
        real = cls.side_sums

        def counted(self, *args, real=real, **kwargs):
            calls.append(type(self).__name__)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "side_sums", counted)
    case_a = SequenceSpec((), DivergentLow("0.4/sqrt(i)", Certificate("harmonic", 0.4)))
    case_b = SequenceSpec((0.75, 0.25), GeometricLow(1.0, 0.5))  # low mass infinite
    for spec, build in ((case_a, build_case_a), (case_b, build_case_b)):
        calls.clear()
        assert feasibility(spec).feasibility is not Feasibility.INFEASIBLE  # as the CLI does
        build(spec, 0.5, 3)
        assert len(calls) == 2, calls


@pytest.mark.parametrize(
    "spec, alpha",
    [
        (CONSTANT_HALF, 0.5),  # low side infinite: no order sample
        (SequenceSpec((), DivergentLow("0.4/sqrt(i)", Certificate("harmonic", 0.4))), 0.3),
    ],
    ids=["attributed", "unattributed"],
)
def test_case_a_evaluates_each_term_once(monkeypatch, spec, alpha):
    seen = []
    real, real_batch = carpenter.term, carpenter.terms

    def counted(s, i):
        seen.append((s, i))
        return real(s, i)

    def counted_batch(s, count):
        seen.extend((s, i) for i in range(1, count + 1))
        return real_batch(s, count)

    monkeypatch.setattr(carpenter, "term", counted)
    monkeypatch.setattr(carpenter, "terms", counted_batch)
    build_case_a(spec, alpha, depth=3)
    assert len(seen) >= 4096  # the selection sample at least
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("budget", [10, 100])
def test_case_a_order_sample_stays_within_budget(monkeypatch, budget):
    seen = []
    real, real_batch = carpenter.term, carpenter.terms

    def counted(s, i):
        seen.append(s)
        return real(s, i)

    def counted_batch(s, count):
        seen.extend([s] * count)
        return real_batch(s, count)

    monkeypatch.setattr(carpenter, "term", counted)
    monkeypatch.setattr(carpenter, "terms", counted_batch)
    spec = SequenceSpec((), DivergentLow("0.4/sqrt(i)", Certificate("harmonic", 0.4)))
    try:
        build_case_a(spec, 0.3, 3, budget=budget)
    except BudgetExhaustedError:
        pass
    assert seen
    assert max(Counter(seen).values()) <= budget  # per pass over a working sequence
