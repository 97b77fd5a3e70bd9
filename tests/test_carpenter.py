"""Threshold-sum feasibility and the two truncated-projection constructions."""

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

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
    OneTail,
    SequenceSpec,
    TailCertificateError,
    ZeroTail,
    build_case_a,
    build_case_b,
    feasibility,
    kadison_sums,
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


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("r", [1.0 - 2.0**-40, 1.0 - 2.0**-30], ids=["1-2^-40", "1-2^-30"])
def test_feasibility_is_exact_for_slow_geometric_tails(r, alpha):
    # c r / (1 - r) = 2^k - 1 is an integer, but the float side sums are near
    # 2^k, where their spacing exceeds INTEGER_TOL: only the exact residue
    # gives the same verdict at every threshold.
    low, high = GeometricLow(1.0, r), GeometricHigh(1.0, r)
    for tail in (low, high, Interleave(low, high), Interleave(high, low)):
        report = feasibility(SequenceSpec((), tail), alpha)
        assert report.feasibility is Feasibility.CASE_B, tail
        assert report.defect == 0.0
    for prefix in [(0.5,), (0.25, 0.5)]:
        report = feasibility(SequenceSpec(prefix, Interleave(low, high)), alpha)
        assert report.feasibility is Feasibility.INFEASIBLE
        assert report.defect == min(sum(prefix) % 1, 1 - sum(prefix) % 1)


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

    def key(p):
        return p.matrix.tobytes(), p.depth, p.diagonal_map, p.covered, p.residual_bound

    # Each read forms a fresh array, and writing into it changes no later read.
    levels = list(tower)
    for k in [*range(len(tower)), -1]:
        first, second = tower[k], tower[k]
        assert key(first) == key(second) and not np.shares_memory(first.matrix, second.matrix)
        first.matrix[...] = np.nan
    assert [key(p) for p in tower] == [key(p) for p in levels]
    # The tower reads as the list of its levels.
    assert len(tower) == len(levels) == 6
    for k in [-6, -2, -1]:
        assert key(tower[k]) == key(levels[k])
    for s in [slice(None), slice(1, 4), slice(-3, None), slice(None, None, -2), slice(9, 12)]:
        assert [key(p) for p in tower[s]] == [key(p) for p in levels[s]]
    assert [key(p) for p in reversed(tower)] == [key(p) for p in reversed(levels)]
    for k in [6, -7]:
        with pytest.raises(IndexError):
            levels[k]
        with pytest.raises(IndexError):
            tower[k]


def test_case_b_deepest_read_peaks_near_the_final_matrix():
    # The tower keeps one final matrix and each level's slack row and column,
    # so building it and reading its deepest level peaks near two such matrices.
    tracemalloc.start()
    try:
        deepest = build_case_b(HALF_INTERLEAVE, depth=200)[-1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deepest.matrix.shape == (402, 402)
    assert peak < 4 * deepest.matrix.nbytes, (peak, deepest.matrix.nbytes)


@pytest.mark.parametrize("alpha", [0.5, 0.3])
@pytest.mark.parametrize(
    "spec, depth",
    [
        (HALF_INTERLEAVE, 30),
        (SequenceSpec((), GeometricHigh(1.0, 0.5)), 12),
        (SequenceSpec((0.9, 0.1), ZeroTail()), 6),
    ],
    ids=["interleave", "complemented", "zero-tail"],
)
def test_case_b_levels_are_leading_corners_of_the_deepest(spec, depth, alpha):
    # Later levels rotate only a level's slack row and column and what lies
    # beyond it, so the rest of each level is the deepest level's corner, bit for bit.
    tower = build_case_b(spec, alpha, depth)
    deepest = tower[-1].matrix
    for p in tower:
        d = p.matrix.shape[0] - 1
        assert p.matrix[:d, :d].tobytes() == deepest[:d, :d].tobytes()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: build_case_b(HALF_INTERLEAVE, depth=4), id="case-b"),
        pytest.param(lambda: build_case_b(SequenceSpec((), GeometricHigh(1.0, 0.5)), depth=4),
                     id="case-b-complemented"),
        pytest.param(lambda: [build_case_a(SequenceSpec(
            (), DivergentHigh("0.25", Certificate("constant", 0.25))), depth=3)],
                     id="case-a-complemented"),
        pytest.param(lambda: [projection_with_trace(
            SequenceSpec((0.75, 0.25), GeometricLow(1.0, 0.5)))], id="trace"),
        pytest.param(lambda: [projection_with_cotrace(
            SequenceSpec((0.5, 0.5), GeometricHigh(1.0, 0.5)))], id="cotrace"),
    ],
)
def test_builders_return_float64_for_real_terms(build):
    tower = build()
    assert all(p.matrix.dtype == np.float64 for p in tower)
    # The increment norms of a real tower are those of its complex copy, bit for bit.
    as_complex = [replace(p, matrix=p.matrix.astype(np.complex128)) for p in tower]
    assert projection_increment_norms(tower) == projection_increment_norms(as_complex)
    assert projection_increment_norms(tower[:1] + as_complex[1:]) == projection_increment_norms(
        as_complex)


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
    # the high prefix terms 0.9 and 0.6 visit the queue while the low terms
    # drive the blocks; one queued term is re-inserted per block
    spec = SequenceSpec((0.9, 0.1, 0.6), DivergentLow("0.3", Certificate("constant", 0.3)))
    t = build_case_a(spec, depth=3)
    assert verify_truncation(spec, t).ok
    covered = set(t.covered)
    assert 1 in covered and 3 in covered  # queued terms 0.9 and 0.6 restored
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
    # An oscillating stream holds no monotone divergent run; sorted windows
    # build it all the same.
    oscillating = SequenceSpec(
        (), DivergentLow("0.25 + 0.2*sin(i)", Certificate("constant", 0.05))
    )
    assert verify_truncation(oscillating, build_case_a(oscillating, depth=3)).ok


# Certified divergent generators whose terms are not non-increasing
# (oscillating, periodic or increasing): each must build on either side.
PROBE_GENERATORS = [
    pytest.param("0.3+0.2*sin(i)**2", Certificate("constant", 0.3), id="sin-squared"),
    pytest.param("0.2+0.1*(i%7)/7", Certificate("constant", 0.2), id="period-7"),
    pytest.param("0.2*abs(sin(i))+0.2/i", Certificate("harmonic", 0.2), id="abs-sin-harmonic"),
    pytest.param("0.25+0.2*sin(i)", Certificate("constant", 0.05), id="sin"),
    pytest.param("0.35-0.1/i", Certificate("constant", 0.25), id="increasing"),
    pytest.param("0.1+0.4*abs(cos(i))", Certificate("constant", 0.1), id="abs-cos"),
]


@pytest.mark.parametrize("generator, certificate", PROBE_GENERATORS)
@pytest.mark.parametrize("side", [DivergentLow, DivergentHigh])
@pytest.mark.parametrize("depth, prefix", [(3, ()), (6, (0.9, 0.1, 0.6))], ids=["d3", "d6-prefix"])
def test_case_a_probe_specs_build_and_verify(generator, certificate, side, depth, prefix):
    spec = SequenceSpec(prefix, side(generator, certificate))
    alphas = [a for a in (0.3, 0.45, 0.5, 0.55, 0.7)
              if feasibility(spec, a).feasibility is Feasibility.CASE_A]
    assert alphas
    for alpha in alphas:
        assert verify_truncation(spec, build_case_a(spec, alpha, depth)).ok, alpha


def test_case_a_tail_bound_follows_the_window_maximum():
    # b1 = 0.2 comes from the prefix, but later windows hold 0.6 and 0.7: a
    # tail bound of 1/(1 - b1) would push 0.7 above 1 at depth 2.
    spec = SequenceSpec(
        (0.2,) * 5, DivergentHigh("0.3+0.1*(i%2)", Certificate("constant", 0.3))
    )
    for depth in (2, 3, 4):
        assert verify_truncation(spec, build_case_a(spec, 0.7, depth)).ok


@pytest.mark.parametrize(
    "generator, certificate, depth, dim, last_covered",
    [
        pytest.param("0.495/sqrt(i)", Certificate("harmonic", 0.495), 3, 47, 23, id="sqrt-d3"),
        pytest.param("0.495/sqrt(i)", Certificate("harmonic", 0.495), 5, 165, 117, id="sqrt-d5"),
        pytest.param("0.3", Certificate("constant", 0.3), 3, 16, 11, id="constant-d3"),
        pytest.param("0.3", Certificate("constant", 0.3), 5, 29, 24, id="constant-d5"),
        pytest.param("0.25+0.15/i", Certificate("constant", 0.25), 3, 18, 11, id="harmonic-sum-d3"),
        pytest.param("0.25+0.15/i", Certificate("constant", 0.25), 5, 37, 30, id="harmonic-sum-d5"),
    ],
)
def test_case_a_benchmark_families_frozen(generator, certificate, depth, dim, last_covered):
    # The perfbench Case-A families are non-increasing, so each sorted window
    # is in stream order and the blocks take consecutive indices.
    spec = SequenceSpec((), DivergentLow(generator, certificate))
    t = build_case_a(spec, 0.5, depth)
    assert t.matrix.shape == (dim, dim)
    assert t.diagonal_map == tuple(range(1, dim + 1))
    assert t.covered == tuple(range(1, last_covered + 1))
    assert verify_truncation(spec, t).ok


SQRT = DivergentLow("0.495/sqrt(i)", Certificate("harmonic", 0.495))
CONSTANT = DivergentLow("0.3", Certificate("constant", 0.3))
NESTED_PREFIX = (0.9, 0.1, 0.6)


@pytest.mark.parametrize(
    "spec, alpha",
    [
        pytest.param(SequenceSpec((), SQRT), 0.5, id="bench-sqrt"),
        pytest.param(SequenceSpec((), CONSTANT), 0.5, id="bench-constant"),
        pytest.param(SequenceSpec((), DivergentLow("0.25+0.15/i", Certificate("constant", 0.25))),
                     0.5, id="bench-harmonic-sum"),
        # Specs whose Case-A builds at growing depth probe nested truncations.
        pytest.param(SequenceSpec(NESTED_PREFIX, SQRT), 0.5, id="nested-sqrt"),
        pytest.param(SequenceSpec(NESTED_PREFIX, CONSTANT), 0.5, id="nested-constant"),
        pytest.param(SequenceSpec(NESTED_PREFIX, DivergentLow(
            "0.3+0.2*sin(i)**2", Certificate("constant", 0.3))), 0.45, id="nested-sin-squared"),
        pytest.param(SequenceSpec(NESTED_PREFIX, DivergentHigh(
            "0.25+0.2*sin(i)", Certificate("constant", 0.05))), 0.5, id="nested-sin-high"),
        pytest.param(SequenceSpec(NESTED_PREFIX, DivergentLow(
            "0.2+0.1*(i%7)/7", Certificate("constant", 0.2))), 0.3, id="nested-period-7"),
    ],
)
@pytest.mark.parametrize("depth", [3, 6])
def test_case_a_builds_from_real_terms_are_real(spec, alpha, depth):
    # The block repairs rotate real symmetric blocks, so the witness is real.
    t = build_case_a(spec, alpha, depth)
    assert t.matrix.dtype == np.float64
    assert verify_truncation(spec, t).ok


def _bucket_order(window):
    """``window`` by value, largest first, equal values in index order."""
    buckets: dict[float, list[tuple[int, float]]] = {}
    for t in sorted(window):
        buckets.setdefault(t[1], []).append(t)
    return [t for v in sorted(buckets, reverse=True) for t in buckets[v]]


def _reach(window, start, bound):
    end, total = start, 0.0
    while total < bound and end < len(window):
        total += window[end][1]
        end += 1
    return end, total


def _reference_blocks(values, alpha, depth):
    """``(head, queued, tail)`` index lists of each Case-A block that the
    window rule cuts from the low-side terms of ``values``."""
    low = [(i, v) for i, v in enumerate(values, 1) if 1e-12 < v <= alpha]
    high = [(i, v) for i, v in enumerate(values, 1) if not 1e-12 < v <= alpha]
    read = taken = 0  # low terms moved into the pool, queued terms placed
    pool: list[tuple[int, float]] = []
    blocks, head = [], []
    head_total = delta = b1 = 0.0

    def grow(mass):
        nonlocal read
        added = 0.0
        while added < mass:
            pool.append(low[read])
            added += low[read][1]
            read += 1

    grow(1.0)
    for k in range(1, depth + 1):
        running = head_total - delta
        queued = [t for t in high if t[0] < low[read - 1][0]]  # read so far
        placed = []
        if k > 1 and taken < len(queued):
            placed = [queued[taken]]
            running += queued[taken][1]
            taken += 1
        while True:
            window = _bucket_order(pool)
            if k == 1:
                b1 = bound = window[0][1]
            else:
                bound = 1.0 / (1.0 - max(b1, window[0][1] if window else 0.0))
            cut, tail_total = _reach(window, 0, bound)
            total = running + tail_total
            next_delta = math.floor(total) + 1.0 - total
            need = next_delta if k < depth else 0.0
            stop, next_total = _reach(window, cut, need)
            if tail_total >= bound and next_total >= need:
                break
            grow(max(bound - tail_total, 0.0) + need - next_total)
        blocks.append(tuple([i for i, _ in t] for t in (head, placed, window[:cut])))
        head, head_total, delta = window[cut:stop], next_total, next_delta
        pool[:] = window[stop:]
    return blocks


def _selection_samples():
    rng = random.Random(20021)
    centre = 0.123456789
    near = [centre + d for d in (0.0, 4e-10, -4e-10, 6e-10, -6e-10, 5e-10, -5e-10)]
    yield [0.3] * 64
    yield [rng.choice(near) for _ in range(400)]
    yield [centre + (rng.random() - 0.5) * 2e-9 for _ in range(4096)]
    for size in (32, 100, 4096):
        two = [0.2] * (size // 2) + [0.4] * (size // 2)  # equal clusters
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
    yield [5e-7] * 40 + [0.25] * 39
    yield [rng.randint(1, 9) / 10 for _ in range(1000)]
    yield [rng.randint(1, 10**9 - 1) / 1e9 + rng.choice((5e-10, -5e-10)) for _ in range(300)]


@pytest.mark.parametrize("values", list(_selection_samples()))
@pytest.mark.parametrize("queued", [16, 1])
def test_monotone_selection_matches_bucket_reference(values, queued):
    # Tie-heavy, clustered, shuffled and oscillating streams, behind `queued`
    # high-side terms and ahead of a constant low tail.  The blocks must be
    # the ones a reference that orders each window by value buckets cuts, and
    # every tail must sit above the next head: a monotone selection.
    prefix = (0.9,) * queued + tuple(values)
    spec = SequenceSpec(prefix, DivergentLow("0.3", Certificate("constant", 0.3)))
    t = build_case_a(spec, 0.5, depth=3)
    exact = [term(spec, i) for i in range(1, len(prefix) + 201)]
    blocks = _reference_blocks(exact, 0.5, 3)
    assert t.diagonal_map == tuple(i for block in blocks for part in block for i in part)
    assert t.covered == tuple(sorted(set(t.diagonal_map) - set(blocks[-1][2])))
    for (_, _, tail), (head, _, _) in zip(blocks, blocks[1:]):
        assert min(exact[i - 1] for i in tail) >= max(exact[i - 1] for i in head)
    assert verify_truncation(spec, t).ok


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


@pytest.mark.parametrize(
    "tail",
    [
        OneTail(),
        GeometricHigh(1.0, 0.5),
        DivergentLow("0.25", Certificate("constant", 0.25)),
        DivergentHigh("0.25", Certificate("constant", 0.25)),
    ],
    ids=lambda tail: tail.kind,
)
def test_projection_with_trace_rejects_unsummable_sequences(tail):
    with pytest.raises(ValueError, match="not summable") as exc:
        projection_with_trace(SequenceSpec((0.5,), tail))
    assert type(exc.value) is ValueError


def test_case_b_unattributed_side_fails_before_any_term(monkeypatch):
    report = feasibility(HALF_INTERLEAVE)
    seen = []
    real = carpenter.term
    monkeypatch.setattr(carpenter, "term", lambda *args: seen.append(args) or real(*args))
    for side in ("low_count", "high_count"):
        with pytest.raises(TailCertificateError):
            forged = replace(report, sums=replace(report.sums, **{side: None}))
            build_case_b(HALF_INTERLEAVE, depth=2, report=forged)
    assert seen == []
    assert build_case_b(HALF_INTERLEAVE, depth=2, report=report)[-1].covered == (1, 2, 3, 4, 6)
    assert seen


def test_case_b_rejects_a_report_at_another_alpha():
    spec = SequenceSpec((0.4, 0.6), HALF_INTERLEAVE.tail)
    with pytest.raises(ValueError, match="alpha=0.5") as exc:
        build_case_b(spec, 0.3, 5, report=feasibility(spec, 0.5))
    assert type(exc.value) is ValueError
    tower = build_case_b(spec, 0.3, 5, report=feasibility(spec, 0.3))
    assert verify_truncation(spec, tower[-1]).ok


def test_case_a_rejects_a_report_at_another_alpha():
    spec = SequenceSpec((), DivergentLow("0.4", Certificate("constant", 0.4)))
    with pytest.raises(ValueError, match="alpha=0.5") as exc:
        build_case_a(spec, 0.3, report=feasibility(spec, 0.5))
    assert type(exc.value) is ValueError
    built = build_case_a(spec, 0.3, report=feasibility(spec, 0.3))
    assert verify_truncation(spec, built).ok


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
    "build, spec, alpha, depth",
    [
        (build_case_a, CONSTANT_HALF, 0.5, 3),  # low side infinite: no order sample
        (
            build_case_a,
            SequenceSpec((), DivergentLow("0.4/sqrt(i)", Certificate("harmonic", 0.4))),
            0.3,
            3,
        ),
        (build_case_b, HALF_INTERLEAVE, 0.5, 6),
        # high-only: built on the complement, with terms on both of its sides
        (build_case_b, SequenceSpec((0.25, 0.25), GeometricHigh(0.5, 0.5)), 0.5, 6),
    ],
    ids=["attributed", "unattributed", "case-b-interleave", "case-b-high-only"],
)
def test_case_a_evaluates_each_term_once(monkeypatch, build, spec, alpha, depth):
    seen = []
    real = carpenter.term

    def counted(s, i):
        seen.append((s, i))
        return real(s, i)

    monkeypatch.setattr(carpenter, "term", counted)
    build(spec, alpha, depth)
    assert len(set(seen)) == len(seen)


def _sparse_interleave(levels: int) -> SequenceSpec:
    """Prefix 1/2, then a ``1 - 2**-(j + 1)`` tail behind ``levels`` zero interleaves:
    feasible, with the high terms ``2**levels`` indices apart."""
    tail = GeometricHigh(0.5, 0.5)
    for _ in range(levels):
        tail = Interleave(ZeroTail(), tail)
    return SequenceSpec((0.5,), tail)


def test_case_b_budget_bounds_the_terms_read(monkeypatch):
    seen = []
    real = carpenter.term
    monkeypatch.setattr(carpenter, "term", lambda s, i: seen.append(i) or real(s, i))
    with pytest.raises(BudgetExhaustedError):
        build_case_b(_sparse_interleave(10), 0.5, 3, budget=1000)
    assert 0 < len(seen) <= 1000


@pytest.mark.parametrize("budget", [10, 100])
def test_case_a_order_sample_stays_within_budget(monkeypatch, budget):
    seen = []
    real = carpenter.term

    def counted(s, i):
        seen.append(s)
        return real(s, i)

    monkeypatch.setattr(carpenter, "term", counted)
    spec = SequenceSpec((), DivergentLow("0.4/sqrt(i)", Certificate("harmonic", 0.4)))
    try:
        build_case_a(spec, 0.3, 3, budget=budget)
    except BudgetExhaustedError:
        pass
    assert seen
    assert max(Counter(seen).values()) <= budget  # per pass over a working sequence
