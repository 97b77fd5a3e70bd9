"""Seeded job lists for the three benchmark workloads.

A *job* is the chain of ``schurhorn`` CLI calls made for one input, each with
the exit code the chain must return.  Inputs are drawn only from the harness
seed, from fixed families, and are never filtered on whether the program
handles them today.  The number of jobs of each size and kind is fixed, so
the cost of a pass varies with the seed only through the drawn values.

Every job carries an independent ``check`` that re-reads the artifacts with
``json`` and ``numpy`` alone (see ``checks.py``); the package's own
``verify`` is timed as part of the job, never trusted.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Job:
    """One input's CLI chain: ``calls`` is a list of ``(argv, expected exit code)``."""

    kind: str
    calls: list[tuple[list[str], int]]
    outputs: list[str]
    check: Callable[[list[str]], str | None] = field(repr=False)


def _vec(path: Path, v) -> str:
    path.write_text(json.dumps({"values": [float(a) for a in v]}))
    return str(path)


def _mixed(rng, y: np.ndarray, terms: int = 3) -> np.ndarray:
    """``B y`` for a random doubly stochastic ``B``, so the result is majorised by ``y``."""
    weights = rng.dirichlet(np.ones(terms))
    return sum(w * y[rng.permutation(y.size)] for w in weights)


def _projection_diagonal(rng, n: int) -> np.ndarray:
    """Entries in [0, 1] with an integer sum."""
    v = rng.random(n)
    s = v.sum()
    m = max(1, round(s))
    if s > m:
        return v * (m / s)
    w = (1.0 - v) * ((n - m) / (n - s))
    return 1.0 - w


def _shrink(mix, tiny: bool):
    if not tiny:
        return mix
    return [(min(count, 1), min(n, 8), *rest) for count, n, *rest in mix]


# (jobs, n) per size group.
# Sizes keep a pass near 2 s, so a run repeats every job about ten times or
# more and each job's median is steady.  A synth+verify job costs
# ~10 ms at n=8, ~35 ms at n=16, ~65 ms at n=24 and ~0.8 s at n=64 (the
# Jacobi eigensolver), so n=64 and n=128 appear in carpenter jobs only.  The
# n=8 synth jobs hold the median; the thirteen n=24 synth jobs lie just below
# the two n=128 carpenter jobs, so p90 falls inside them.
SYNTH_MIX = [(52, 8), (8, 16), (13, 24)]
CARPENTER_MIX = [(19, 16), (6, 64), (2, 128)]


def synth_verify(rng, work: Path, tiny: bool) -> list[Job]:
    jobs = []
    groups = [(c, n, "synth") for c, n in SYNTH_MIX] + [(c, n, "carpenter") for c, n in CARPENTER_MIX]
    for count, n, kind in _shrink(groups, tiny):
        for _ in range(count):
            d = work / f"job{len(jobs):03d}"
            d.mkdir()
            if kind == "synth":
                y = rng.normal(size=n)
                x = _mixed(rng, y)
                xf, yf = _vec(d / "x.json", x), _vec(d / "y.json", y)
                a, u = str(d / "A.json"), str(d / "U.json")
                calls = [
                    (["synth", xf, yf, "--out", a, "--unitary", u], 0),
                    (["verify", a, "--diagonal", xf, "--spectrum", yf], 0),
                ]
                outputs, check = [a, u], checks.synth(a, u, x, y)
            else:
                diag = _projection_diagonal(rng, n)
                df, p = _vec(d / "d.json", diag), str(d / "P.json")
                calls = [(["carpenter", df, "--out", p], 0), (["verify", p, "--diagonal", df], 0)]
                outputs, check = [p], checks.projection(p, diag)
            jobs.append(Job(kind, calls, outputs, check))
    return jobs


# (jobs, n, majorised) per group: a quarter of each size is not majorised
# and exits within a few ms.  The majorised n=128 jobs hold the median and
# the fourteen majorised n=512 jobs (~30 ms each) p90.
MAJORIZE_MIX = [(30, 128, True), (10, 128, False), (31, 256, True), (11, 256, False),
                (14, 512, True), (4, 512, False)]


def majorize_plan(rng, work: Path, tiny: bool) -> list[Job]:
    jobs = []
    for count, n, majorised in _shrink(MAJORIZE_MIX, tiny):
        for _ in range(count):
            d = work / f"job{len(jobs):03d}"
            d.mkdir()
            y = rng.normal(size=n) * rng.uniform(0.5, 4.0)
            x = _mixed(rng, y)
            if not majorised:
                # Push the largest entry past max(y), keeping the total: the
                # top-1 partial sum of x then exceeds that of y.
                top, bottom = int(np.argmax(x)), int(np.argmin(x))
                lift = y.max() - x[top] + rng.uniform(0.01, 0.5)
                x[top] += lift
                x[bottom] -= lift
            expected = 0 if checks.majorised(x, y) else 1
            xf, yf, plan = _vec(d / "x.json", x), _vec(d / "y.json", y), str(d / "plan.json")
            calls = [(["majorize", xf, yf, "--decompose", plan], expected)]
            jobs.append(Job("majorize", calls, [plan], checks.plan(plan, x, y, expected == 0)))
    return jobs


# (r, jobs) for the feasible geometric interleaves.  A build's cost grows
# steeply with r (~8 ms at r=0.5, ~70 ms at r=0.9), so most use r=0.5 and
# hold the workload's median with the high-only tails.
INTERLEAVE_MIX = [(0.5, 18), (0.7, 6), (0.8, 4), (0.9, 4)]
INTERLEAVE_RS = [r for r, count in INTERLEAVE_MIX for _ in range(count)]


def _geometric_interleave(rng, r: float, infeasible: bool):
    c = float(rng.uniform(0.2, 1.0 / r))
    prefix = [0.5] if infeasible else []
    tail = {"kind": "interleave",
            "parts": [{"kind": "geometric-low", "c": c, "r": r},
                      {"kind": "geometric-high", "c": c, "r": r}]}

    def tail_term(t):
        return c * r ** ((t + 1) // 2) if t % 2 else 1.0 - c * r ** (t // 2)

    return prefix, tail, tail_term, []


def _high_only(rng, k: int):
    # A 1 - c r^i tail whose complement mass c r / (1 - r) is matched by a
    # low prefix, so the sums differ by an integer and only the high side
    # carries infinite mass: the build takes the complemented path.
    r = (0.5, 0.6, 0.7, 0.8)[k % 4]
    c = float(rng.uniform(0.05, 0.5 / r))
    mass = c * r / (1.0 - r)
    count = math.ceil(mass / 0.45)
    prefix = [mass / count] * count
    tail = {"kind": "geometric-high", "c": c, "r": r}
    return prefix, tail, (lambda t: 1.0 - c * r**t), []


# (generator family, depth, jobs) for the Case-A tails.  Only the r=0.9
# interleaves and the a/sqrt(i) builds at depth 4 (~70 ms) are slower than
# the twelve a/sqrt(i) builds at depth 3 (~48 ms each, whatever the seed), so
# p90 lies among those; a stays near 1/2 because the built dimension grows
# like 1/a^2.  Depth 5 (~0.2 s per a/sqrt(i) build) is left to the cheaper
# generators, so a pass stays near 2 s.
CASE_A_MIX = [("sqrt", 3, 12), ("sqrt", 4, 2), ("constant", 3, 2),
              ("constant", 4, 1), ("constant", 5, 2), ("harmonic-sum", 3, 2),
              ("harmonic-sum", 4, 1), ("harmonic-sum", 5, 2)]
CASE_A_KINDS = [(family, depth) for family, depth, count in CASE_A_MIX for _ in range(count)]


def _case_a(rng, k: int):
    family, depth = CASE_A_KINDS[k]
    if family == "sqrt":
        a = float(rng.uniform(0.49, 0.5))
        gen, cert, g = f"{a!r}/sqrt(i)", ("harmonic", a), (lambda t: a / math.sqrt(t))
    elif family == "constant":
        a = float(rng.uniform(0.25, 0.5))
        gen, cert, g = f"{a!r}", ("constant", a), (lambda t: a)
    else:
        a, b = float(rng.uniform(0.2, 0.3)), float(rng.uniform(0.1, 0.2))
        gen, cert, g = f"{a!r}+{b!r}/i", ("constant", a), (lambda t: a + b / t)
    tail = {"kind": "divergent-low", "generator": gen,
            "certificate": {"kind": cert[0], "p": cert[1], "start": 1}}
    return [], tail, (lambda t: min(0.5, max(0.0, g(t)))), ["--depth", str(depth)]


# (jobs, family): 8 geometric interleaves, two per r, get a 0.5 prefix.
OBSTRUCTION_MIX = [(len(INTERLEAVE_RS), "interleave"), (8, "interleave-infeasible"),
                   (36, "high-only"),
                   (len(CASE_A_KINDS), "case-a")]


def obstruction_build(rng, work: Path, tiny: bool) -> list[Job]:
    jobs = []
    mix = [(min(c, 1) if tiny else c, f) for c, f in OBSTRUCTION_MIX]
    for count, family in mix:
        for k in range(count):
            d = work / f"job{len(jobs):03d}"
            d.mkdir()
            if family == "interleave":
                prefix, tail, tail_term, extra = _geometric_interleave(rng, INTERLEAVE_RS[k], False)
            elif family == "interleave-infeasible":
                prefix, tail, tail_term, extra = _geometric_interleave(
                    rng, (0.5, 0.7, 0.8, 0.9)[k % 4], True)
            elif family == "high-only":
                prefix, tail, tail_term, extra = _high_only(rng, k)
            else:
                prefix, tail, tail_term, extra = _case_a(rng, k)
            spec, out = d / "spec.json", str(d / "T.json")
            spec.write_text(json.dumps({"prefix": prefix, "tail": tail}))
            if family == "interleave-infeasible":
                calls = [(["obstruction", str(spec), "--build", out, *extra], 1)]
                check = checks.nothing_written(out)
            else:
                calls = [(["obstruction", str(spec), "--build", out, *extra], 0),
                         (["verify", out, "--spec", str(spec)], 0)]
                check = checks.truncation(out, _term(prefix, tail_term))
            jobs.append(Job(family, calls, [out], check))
    return jobs


def _term(prefix, tail_term):
    def term(i):
        return prefix[i - 1] if i <= len(prefix) else tail_term(i - len(prefix))
    return term


BUILDERS = {
    "synth-verify": synth_verify,
    "majorize-plan": majorize_plan,
    "obstruction-build": obstruction_build,
}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> list[Job]:
    """Write the inputs of workload ``name`` under ``work`` and return its jobs,
    a cheap group first (its first job is the warm-up)."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return BUILDERS[name](rng, work, tiny)
