"""Sequence specs: term evaluation, complements, and exact side sums."""

import math
import pickle
import re
from pathlib import Path

import mpmath
import pytest

from schurhorn import (
    Certificate,
    DivergentHigh,
    DivergentLow,
    GeometricHigh,
    GeometricLow,
    Interleave,
    OneTail,
    SequenceSpec,
    TailCertificateError,
    ZeroTail,
    complement,
    kadison_sums,
    term,
)
from schurhorn.sequences import _GEN_FUNCS

HALF_INTERLEAVE = Interleave(GeometricLow(1.0, 0.5), GeometricHigh(1.0, 0.5))


def test_interleave_terms_frozen():
    # odd positions: 1/2^k low branch; even positions: 1 - 1/2^k high branch
    want = [0.5, 0.5, 0.25, 0.75, 0.125, 0.875, 0.0625, 0.9375]
    got = [HALF_INTERLEAVE.term(i) for i in range(1, 9)]
    assert got == want


def test_term_prefix_offset_and_validation():
    spec = SequenceSpec((0.9, 0.1), GeometricLow(1.0, 0.5))
    assert term(spec, 1) == 0.9
    assert term(spec, 2) == 0.1
    assert term(spec, 3) == 0.5  # tail position 1
    assert term(spec, 4) == 0.25
    with pytest.raises(ValueError):
        term(spec, 0)
    with pytest.raises(ValueError):
        SequenceSpec((1.2,), ZeroTail())
    with pytest.raises(ValueError):
        GeometricLow(1.0, 1.5)
    with pytest.raises(ValueError):
        GeometricLow(-1.0, 0.5)
    with pytest.raises(ValueError):
        GeometricLow(4.0, 0.5)  # first term would be 2


def test_nan_values_are_rejected():
    with pytest.raises(ValueError):
        SequenceSpec((math.nan, 0.5), ZeroTail())
    for cls in (GeometricLow, GeometricHigh):
        with pytest.raises(ValueError):
            cls(math.nan, 0.5)
        with pytest.raises(ValueError):
            cls(0.5, math.nan)
    for cls in (DivergentLow, DivergentHigh):
        with pytest.raises(TailCertificateError):
            cls("1e308*10 - 1e308*10", Certificate("harmonic", 0.5))  # inf - inf


def test_complement_round_trip():
    spec = SequenceSpec((0.25, 1.0), HALF_INTERLEAVE)  # dyadic: complement is exact
    comp = complement(spec)
    for i in range(1, 12):
        assert term(comp, i) == pytest.approx(1.0 - term(spec, i), abs=0)
    back = complement(comp)
    for i in range(1, 12):
        assert term(back, i) == term(spec, i)
    assert ZeroTail().complement() == OneTail()
    assert GeometricHigh(1.0, 0.5).complement() == GeometricLow(1.0, 0.5)


def test_geometric_low_side_sums_frozen():
    # terms 1/2, 1/4, ...; at alpha = 0.5 every term is low: sum = 1
    s = GeometricLow(1.0, 0.5).side_sums(0.5)
    assert (s.low, s.high) == (1.0, 0.0)
    assert s.low_mass_infinite and not s.high_mass_infinite
    # at alpha = 0.2 the first two terms (1/2, 1/4) are high: high = 0.5 + 0.75
    s = GeometricLow(1.0, 0.5).side_sums(0.2)
    assert s.low == pytest.approx(0.25, abs=1e-15)  # 1/8 + 1/16 + ... = 1/4
    assert s.high == pytest.approx(1.25, abs=1e-15)


def test_geometric_high_side_sums_frozen():
    # terms 1/2, 3/4, 7/8, ...; at alpha = 0.5 the first term (exactly 0.5) is low
    s = GeometricHigh(1.0, 0.5).side_sums(0.5)
    assert s.low == pytest.approx(0.5, abs=0)
    assert s.high == pytest.approx(0.5, abs=0)  # sum of 1/4, 1/8, ...
    assert s.high_mass_infinite and not s.low_mass_infinite


def _mp_scan(c, r, bound, inclusive):
    """Term-by-term scan of ``c * r**j`` in 50-digit arithmetic: first index
    not above ``bound``, sum of ``1 - term`` before it, sum of terms from it on."""
    with mpmath.workdps(50):
        c, r, bound = mpmath.mpf(c), mpmath.mpf(r), mpmath.mpf(bound)
        i, v, head = 1, c * r, mpmath.mpf(0)
        while v >= bound if inclusive else v > bound:
            head += 1 - v
            i, v = i + 1, v * r
        return i, float(head), float(v / (1 - r))


@pytest.mark.parametrize(
    "c, r", [(c, r) for c in (0.0, 0.3, 1.0, 2.0) for r in (0.5, 0.9, 0.99, 0.999) if c * r <= 1]
)
@pytest.mark.parametrize("alpha", [0.01, 0.125, 0.3, 0.5, 0.875])
def test_geometric_split_matches_exact_scan(c, r, alpha):
    i, high, low = _mp_scan(c, r, alpha, inclusive=False)
    s = GeometricLow(c, r).side_sums(alpha)
    assert (s.low_count, s.high_count) == (math.inf, i - 1)
    assert s.low == pytest.approx(low, rel=1e-12, abs=1e-15)
    assert s.high == pytest.approx(high, rel=1e-12)
    # 1 - c*r**j <= alpha exactly when c*r**j >= 1 - alpha; the code compares with
    # the float 1 - alpha, and no term on this grid falls between the two.
    j, low, high = _mp_scan(c, r, 1 - mpmath.mpf(alpha), inclusive=True)
    s = GeometricHigh(c, r).side_sums(alpha)
    assert (s.low_count, s.high_count) == (j - 1, math.inf)
    assert s.low == pytest.approx(low, rel=1e-12)
    assert s.high == pytest.approx(high, rel=1e-12, abs=1e-15)


def test_geometric_split_exact_boundary_hits():
    # c*r**3 == alpha exactly: the third term is low, the first two high.
    s = GeometricLow(1.0, 0.5).side_sums(0.125)
    assert s.high_count == 2
    assert (s.low, s.high) == (0.25, 1.25)
    # 1 - r**3 == alpha exactly: the first three terms are low.
    s = GeometricHigh(1.0, 0.5).side_sums(0.875)
    assert s.low_count == 3
    assert (s.low, s.high) == (2.125, 0.125)  # 1/2 + 3/4 + 7/8; 1/16 + 1/32 + ...


def test_slow_geometric_split_is_closed_form():
    tail = GeometricLow(1.0, 0.9999999)
    i = tail.side_sums(0.01).high_count + 1
    with mpmath.workdps(50):
        c, r = mpmath.mpf(1.0), mpmath.mpf(0.9999999)
        assert c * r ** (i - 1) > 0.01 >= c * r**i
        head = (i - 1) - c * r * (1 - r ** (i - 1)) / (1 - r)
        low, high = float(c * r**i / (1 - r)), float(head)
    s = tail.side_sums(0.01)
    assert s.low == pytest.approx(low, rel=1e-9)
    assert s.high == pytest.approx(high, rel=1e-9)


def test_interleave_side_sums_combine():
    s = HALF_INTERLEAVE.side_sums(0.5)
    assert s.low == pytest.approx(1.5, abs=0)  # 1.0 from low branch + 0.5 boundary
    assert s.high == pytest.approx(0.5, abs=0)
    assert s.low_mass_infinite and s.high_mass_infinite
    assert not s.total_divergent


def test_trivial_tails_side_sums():
    for tail in (ZeroTail(), OneTail()):
        s = tail.side_sums(0.3)
        assert (s.low, s.high) == (0.0, 0.0)
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            kadison_sums(SequenceSpec((), ZeroTail()), alpha)


def test_divergent_low_attribution():
    tail = DivergentLow("0.25", Certificate("constant", 0.25))
    # alpha >= 1/2: all terms low, low side divergent
    s = tail.side_sums(0.5)
    assert s.low == math.inf and s.high == 0.0
    assert s.total_divergent
    # constant certificate p > alpha: all terms >= p land high
    s = tail.side_sums(0.1)
    assert s.low == 0.0 and s.high == math.inf
    # harmonic certificate cannot attribute below 1/2
    h = DivergentLow("0.5/i", Certificate("harmonic", 0.5))
    s = h.side_sums(0.25)
    assert s.low is None and s.high is None
    assert s.total_divergent


def test_divergent_high_attribution():
    # certificate margin p > 1 - alpha pins the terms (1 - g <= 1 - p < alpha) low
    strong = DivergentHigh("0.4", Certificate("constant", 0.4))
    s = strong.side_sums(0.7)
    assert s.low == math.inf and s.high == 0.0
    weak = DivergentHigh("0.25", Certificate("constant", 0.25))
    # alpha < 1/2: all terms in [1/2, 1] sit high
    s = weak.side_sums(0.3)
    assert s.low == 0.0 and s.high == math.inf
    # alpha = 1/2 with terms bounded away from 1/2: still all high
    s = weak.side_sums(0.5)
    assert s.low == 0.0 and s.high == math.inf
    # no certificate margin at alpha = 0.7 (p = 0.25 <= 0.3): unattributed
    s = weak.side_sums(0.7)
    assert s.low is None and s.high is None


def test_side_counts_of_a_sequence():
    s = kadison_sums(SequenceSpec((0.9,), GeometricLow(1.0, 0.5)), 0.5)
    assert (s.low_count, s.high_count) == (math.inf, 1)  # just the prefix 0.9 is high
    harmonic = DivergentLow("0.5/i", Certificate("harmonic", 0.5))
    s = kadison_sums(SequenceSpec((0.9, 0.1), harmonic), 0.25)
    assert (s.low_count, s.high_count) == (None, None)  # unattributed tail: no count
    s = kadison_sums(SequenceSpec((0.9,), Interleave(harmonic, OneTail())), 0.25)
    assert (s.low_count, s.high_count) == (None, None)  # None wins over inf


_COUNT_TAILS = [
    ZeroTail(),
    OneTail(),
    GeometricLow(1.0, 0.5),
    GeometricLow(0.0, 0.5),
    GeometricLow(2.0, 0.3),
    GeometricLow(1.0, 0.99),
    GeometricHigh(1.0, 0.5),
    GeometricHigh(0.5, 0.9),
    HALF_INTERLEAVE,
    Interleave(GeometricLow(0.9, 0.9), ZeroTail()),
    Interleave(Interleave(GeometricHigh(1.0, 0.99), OneTail()), GeometricLow(1.0, 0.7)),
    Interleave(GeometricLow(1.0, 0.5), DivergentLow("0.25", Certificate("constant", 0.25))),
    DivergentLow("0.25", Certificate("constant", 0.25)),
    DivergentLow("0.5/i", Certificate("harmonic", 0.5)),
    DivergentHigh("0.4", Certificate("constant", 0.4)),
    DivergentHigh("0.5/sqrt(i)", Certificate("harmonic", 0.5)),
]


@pytest.mark.parametrize("tail", _COUNT_TAILS, ids=lambda t: t.kind)
@pytest.mark.parametrize("prefix", [(), (0.9, 0.01, 0.5, 0.125, 1.0, 0.0)])
@pytest.mark.parametrize("alpha", [0.01, 0.125, 0.3, 0.5, 0.875])
def test_side_counts_match_a_scan(tail, prefix, alpha):
    # A finite count is the number of positions a scan finds on that side; an
    # infinite side still has positions in the second half of the scan.
    spec = SequenceSpec(prefix, tail)
    s = kadison_sums(spec, alpha)
    if s.low_count is None or s.high_count is None:
        assert s.total_divergent
        return
    n = 4000
    low = [term(spec, i) <= alpha for i in range(1, n + 1)]
    for count, side in ((s.low_count, low), (s.high_count, [not x for x in low])):
        if count == math.inf:
            assert any(side[n // 2 :])
        else:
            assert count == sum(side)


def test_certificate_validation():
    with pytest.raises(TailCertificateError):
        Certificate("linear", 1.0)
    with pytest.raises(TailCertificateError):
        Certificate("constant", 0.0)
    with pytest.raises(TailCertificateError):
        Certificate("constant", 0.5, start=0)
    # generator escaping [0, 1/2] rejected
    with pytest.raises(TailCertificateError):
        DivergentLow("0.6", Certificate("constant", 0.5))
    # sampled value below the certified lower bound rejected
    with pytest.raises(TailCertificateError):
        DivergentLow("0.25", Certificate("constant", 0.3))
    # evaluation failures surface as certificate errors
    with pytest.raises(TailCertificateError):
        DivergentLow("__import__('os')", Certificate("constant", 0.1))
    with pytest.raises(TailCertificateError):
        DivergentLow("1/(i-1)", Certificate("constant", 0.1))
    # a valid harmonic witness passes
    tail = DivergentLow("0.5/sqrt(i)", Certificate("harmonic", 0.5))
    assert tail.term(4) == 0.25


def test_generator_failures_name_the_sequence_position():
    at_100 = DivergentLow("0.25 + 0*(1/(i-100))", Certificate("constant", 0.25))
    assert at_100.term(99) == 0.25
    spec = SequenceSpec((0.5, 0.5), Interleave(ZeroTail(), at_100))
    with pytest.raises(TailCertificateError, match=r"failed at i=100:"):
        term(spec, 202)
    # A float index bounds ``**``: the power overflows instead of growing an integer.
    with pytest.raises(TailCertificateError, match=r"failed at i=2:"):
        DivergentLow("0.25 + 0*i**200000", Certificate("constant", 0.25))


def test_divergent_terms_clip_to_half():
    tail = DivergentLow("0.5", Certificate("constant", 0.5))
    assert tail.term(10) == 0.5
    high = DivergentHigh("0.5/i", Certificate("harmonic", 0.5))
    assert high.term(1) == 0.5
    assert high.term(5) == pytest.approx(0.9, abs=1e-15)


_OLD_GEN_FUNCS = {
    "sqrt": math.sqrt, "log": math.log, "log2": math.log2, "exp": math.exp,
    "sin": math.sin, "cos": math.cos, "floor": math.floor, "ceil": math.ceil,
    "min": min, "max": max, "abs": abs, "pi": math.pi, "e": math.e,
}


def _reference_g(expr: str, i: int) -> float:
    """The per-term ``eval`` path the compiled generators replaced, with its clamp."""
    env = dict(_OLD_GEN_FUNCS)
    env["i"] = i
    value = float(eval(compile(expr, "<tail generator>", "eval"), {"__builtins__": {}}, env))
    return min(0.5, max(0.0, value))


NAN = "(1e308*10 - 1e308*10)"


@pytest.mark.parametrize(
    "generator, cert",
    [
        ("0.5", ("constant", 0.5, 1)),
        ("0.25", ("constant", 0.25, 1)),
        ("0.5/i", ("harmonic", 0.5, 1)),
        ("0.5/sqrt(i)", ("harmonic", 0.5, 1)),
        ("0.49123456789/sqrt(i)", ("harmonic", 0.49123456789, 1)),
        ("min(0.5, 2/i)", ("harmonic", 2.0, 4)),
        ("0.25 + 0.2*sin(i)", ("constant", 0.05, 1)),
        ("0.3+0.2*sin(i)**2", ("constant", 0.3, 1)),
        ("0.2718281828+0.15/i", ("constant", 0.2718281828, 1)),
        ("abs(cos(i))/(2 + log2(i)) + exp(-i)/e", ("harmonic", 1e-3, 1)),
        ("max(floor(i/3) % 2 * 0.3, ceil(i % 5)/20) + log(i)/pi/1e4", ("constant", 1e-3, 40)),
        ("0.25 if i >= 40 else -0.0", ("constant", 0.25, 40)),  # -0.0 clamps to +0.0
        (f"{NAN} if i == 40 else 0.25", ("constant", 0.25, 41)),  # NaN clamps to +0.0
        ("0.25 if i > 3 and not i % 7 == 0 or i < 2 else 0.5 * (i > 0)", ("constant", 0.25, 1)),
    ],
)
def test_compiled_generator_terms_match_eval_reference(generator, cert):
    low = DivergentLow(generator, Certificate(*cert))
    high = low.complement()
    for i in range(1, 5001):
        want = _reference_g(generator, i)
        assert low.term(i).hex() == want.hex(), i
        assert high.term(i).hex() == (1.0 - want).hex(), i


@pytest.mark.parametrize(
    "generator",
    [
        "().__class__.__mro__[1].__subclasses__() and 0.25",
        "(0.25).real",
        "[0.25][0]",
        "'0.25'",
        "(lambda: 0.25)()",
        "[0.25 for j in (1,)][0]",
        "(j := 0.25)",
        "min(0.5, 0.25, key=abs)",
        "min(*(0.5, 0.25))",
        "__import__('os') and 0.25",
        "float(0.25)",
        "pi(0.25)",
        "i(0.25)",
        "j + 0.25",
        "True and 0.25",
        "0.25 + 0j",
        "i & 0 or 0.25",
        "0.25 if i in (1, 2) else 0.25",
        "0.25; 1",
        "\x00",
        "-" * 5000 + "0.25",
    ],
)
def test_generator_whitelist_rejects(generator):
    with pytest.raises(TailCertificateError):
        DivergentLow(generator, Certificate("constant", 0.1))


def test_compiled_generator_stays_out_of_equality_and_wire_form():
    a = DivergentLow("0.5/sqrt(i)", Certificate("harmonic", 0.5))
    b = DivergentLow("0.5/sqrt(i)", Certificate("harmonic", 0.5))
    assert a == b and hash(a) == hash(b) and a.to_obj() == b.to_obj()
    assert set(a.to_obj()) == {"kind", "generator", "certificate"}
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and copy.term(9) == a.term(9)


def test_readme_lists_exactly_the_generator_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(line for line in readme.splitlines() if "Generator names:" in line)
    listed = re.findall(r"`(\w+)`", line.partition("Generator names:")[2].partition("(")[0])
    assert listed == sorted(_GEN_FUNCS)
