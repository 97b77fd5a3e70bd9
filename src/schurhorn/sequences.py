"""Finitely described [0, 1]-valued sequences with exactly summable tails.

A :class:`SequenceSpec` is a finite prefix followed by a tail rule.  Tail
rules either have closed-form side sums (zero, one, geometric, interleavings)
or are declared divergent with a checkable certificate, so that the threshold
sums driving the projection constructions are genuine decisions rather than
floating-point guesswork.

Each tail rule is a class that carries its own behaviour, tagged with its
wire name ``kind``: ``term(i)`` is tail position ``i`` (1-based),
``complement()`` the rule of ``1 - term``,
``side_sums(alpha, budget)`` the :class:`SideSums` at a threshold
(evaluating at most ``budget`` terms, else :class:`BudgetExhaustedError`)
and, for a summable rule, ``residue()`` the exact ``(p, q)`` with ``p / q``
its terms' sum, a term ``v`` above any threshold counted as ``-(1 - v)``:
``a - b`` mod 1.  The split at a threshold is the one question a rule
answers: :class:`SideSums` carries each side's sum and its number of
positions; ``SideSums.of`` splits finitely many values and ``+`` joins two
splits.  The wire form of a spec lives in :mod:`schurhorn.io` alone.

Indices are 1-based throughout: ``term(spec, 1)`` is the first entry.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "TailCertificateError",
    "BudgetExhaustedError",
    "Certificate",
    "SideSums",
    "ZeroTail",
    "OneTail",
    "GeometricLow",
    "GeometricHigh",
    "Interleave",
    "DivergentLow",
    "DivergentHigh",
    "TailRule",
    "SequenceSpec",
    "term",
    "complement",
]

_SAMPLE_INDICES = tuple(range(1, 33)) + tuple(2**k for k in range(6, 16))
_BOUNDARY_FUZZ = 1e-12


class TailCertificateError(ValueError):
    """A divergence certificate is missing, malformed, or contradicted."""


class BudgetExhaustedError(RuntimeError):
    """A computation needs more sequence terms than its budget allows."""


_GEN_FUNCS = {
    "sqrt": math.sqrt,
    "log": math.log,
    "log2": math.log2,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "floor": lambda x: float(math.floor(x)),
    "ceil": lambda x: float(math.ceil(x)),
    "min": min,
    "max": max,
    "abs": abs,
    "pi": math.pi,
    "e": math.e,
}


# Node types a generator may contain: numbers, names, arithmetic, comparisons,
# ``and``/``or``/``not``, ``x if c else y`` and calls.  Constants and names are
# further restricted in :func:`_compile_generator`.
_GEN_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.IfExp,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.UnaryOp, ast.UAdd, ast.USub, ast.Not, ast.BoolOp, ast.And, ast.Or,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)

# Exceptions a whitelisted generator can raise when evaluated.
_GEN_ERRORS = (ArithmeticError, TypeError, ValueError)


class _FloatOnly(ast.NodeTransformer):
    """Make a checked generator compute only floats: int literals become floats, comparisons
    and ``not`` give 1.0 or 0.0, so ``**`` overflows instead of building unbounded ints."""

    def visit(self, node):
        node = self.generic_visit(node)
        if isinstance(node, ast.Constant):
            return ast.Constant(float(node.value))
        if isinstance(node, ast.Compare) or isinstance(getattr(node, "op", None), ast.Not):
            return ast.IfExp(node, ast.Constant(1.0), ast.Constant(0.0))
        return node


def _compile_generator(expr: str):
    """The generator ``expr`` as a function ``i -> value``.

    The expression is parsed and checked against the whitelist before it is
    compiled (once, with empty builtins), so untrusted spec JSON cannot reach
    attributes, subscripts, strings or any other Python machinery.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise TailCertificateError(f"generator {expr!r} does not parse: {exc}") from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
        elif isinstance(node, ast.Name):
            ok = node.id == "i" or node.id in _GEN_FUNCS
        elif isinstance(node, ast.Call):
            ok = isinstance(node.func, ast.Name) and callable(_GEN_FUNCS.get(node.func.id))
        else:
            ok = isinstance(node, _GEN_NODES)
        if not ok:
            what = f"name {node.id!r}" if isinstance(node, ast.Name) else type(node).__name__
            raise TailCertificateError(f"generator {expr!r}: {what} is not allowed")
    args = ast.arguments(
        posonlyargs=[], args=[ast.arg("i")], kwonlyargs=[], kw_defaults=[], defaults=[]
    )
    try:
        body = _FloatOnly().visit(tree.body)
        fn = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))
        code = compile(fn, "<tail generator>", "eval")
    except OverflowError as exc:
        raise TailCertificateError(f"generator {expr!r}: a constant leaves float range") from exc
    except (RecursionError, MemoryError) as exc:
        raise TailCertificateError(f"generator {expr!r} is nested too deeply") from exc
    return eval(code, {"__builtins__": {}, **_GEN_FUNCS})  # noqa: S307 - whitelisted


@dataclass(frozen=True)
class Certificate:
    """Divergence witness for a generator ``g``.

    ``constant``: ``g(i) >= p`` for all ``i >= start``.
    ``harmonic``: ``g(i) >= p / i`` for all ``i >= start``.
    Either bound forces ``sum g(i) = inf``.
    """

    kind: str
    p: float
    start: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "harmonic"):
            raise TailCertificateError(f"unknown certificate kind {self.kind!r}")
        if not self.p > 0:
            raise TailCertificateError("certificate constant p must be positive")
        if self.start < 1:
            raise TailCertificateError("certificate start index must be >= 1")

    def lower_bound(self, i: int) -> float:
        if i < self.start:
            return 0.0
        return self.p if self.kind == "constant" else self.p / i


@dataclass(frozen=True)
class SideSums:
    """The contributions of a set of positions split at a threshold.

    ``low`` sums the terms that are at most the threshold; ``high`` sums
    ``1 - term`` over the remaining ones.  Values are exact reals, ``inf``
    when the side is certified divergent, or ``None`` when divergence is
    certified in total but the certificate cannot attribute it to one side
    at this threshold.  ``low_count`` and ``high_count`` are the numbers of
    positions on each side: an int, ``inf``, or ``None`` when the rule
    cannot attribute its positions at this threshold.
    """

    low: float | None
    high: float | None
    low_mass_infinite: bool
    high_mass_infinite: bool
    low_count: float | None
    high_count: float | None

    @property
    def total_divergent(self) -> bool:
        """Whether the tail diverges: a side sum is ``inf`` or unattributed."""
        return any(s is None or s == math.inf for s in (self.low, self.high))

    @classmethod
    def of(cls, values, alpha: float) -> SideSums:
        """The split of finitely many ``values`` at ``alpha``, each side summed in order from 0."""
        low = high = 0.0
        low_count = high_count = 0
        for v in values:
            if v <= alpha:
                low += v
                low_count += 1
            else:
                high += 1.0 - v
                high_count += 1
        return cls(low, high, False, False, low_count, high_count)

    def __add__(self, other: SideSums) -> SideSums:
        """The split of two disjoint position sets together: for a sum ``inf``
        wins, then ``None``; for a count ``None`` wins, then ``inf``."""

        def count(a, b):
            return None if a is None or b is None else a + b

        def total(a, b):
            return math.inf if math.inf in (a, b) else count(a, b)

        return SideSums(
            total(self.low, other.low),
            total(self.high, other.high),
            self.low_mass_infinite or other.low_mass_infinite,
            self.high_mass_infinite or other.high_mass_infinite,
            count(self.low_count, other.low_count),
            count(self.high_count, other.high_count),
        )


def _geometric_split(c: float, r: float, bound: float, inclusive: bool):
    """Split ``c * r**j`` (``j >= 1``) at the first index ``i`` where it drops
    below ``bound`` (or to it, unless ``inclusive``).

    Returns ``i``, the sum of ``1 - c * r**j`` over ``j < i`` and the sum of
    ``c * r**j`` over ``j >= i``, both in closed form.  The index starts from
    the logarithmic estimate and is corrected with the same float comparison
    a term-by-term scan makes, so it agrees with that scan.
    """
    if c == 0.0:
        return 1, 0.0, 0.0

    def above(j: int) -> bool:
        v = c * r**j
        return v >= bound if inclusive else v > bound

    i = max(1, math.ceil((math.log(bound) - math.log(c)) / math.log(r)))
    while i > 1 and not above(i - 1):
        i -= 1
    while above(i):
        i += 1
    head = (i - 1) - c * r * (1.0 - r ** (i - 1)) / (1.0 - r)
    return i, head, c * r**i / (1.0 - r)


@dataclass(frozen=True)
class ZeroTail:
    """All tail terms are exactly 0."""

    kind = "zero"

    def term(self, i: int) -> float:
        return 0.0

    def complement(self) -> "OneTail":
        return OneTail()

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        return SideSums(0.0, 0.0, False, False, math.inf, 0)

    def residue(self) -> tuple[int, int]:
        return 0, 1


@dataclass(frozen=True)
class OneTail:
    """All tail terms are exactly 1."""

    kind = "one"

    def term(self, i: int) -> float:
        return 1.0

    def complement(self) -> ZeroTail:
        return ZeroTail()

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        return SideSums(0.0, 0.0, False, False, 0, math.inf)

    def residue(self) -> tuple[int, int]:
        return 0, 1


@dataclass(frozen=True)
class _Geometric:
    """Shared fields, validation and residue of the two geometric rules."""

    c: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("geometric ratio must lie strictly inside (0, 1)")
        if not 0.0 <= self.c:
            raise ValueError("geometric scale must be non-negative")
        if not self.c * self.r <= 1.0 + _BOUNDARY_FUZZ:
            raise ValueError("first geometric term leaves [0, 1]")

    def residue(self) -> tuple[int, int]:
        """``c r / (1 - r)`` exactly, negated for the high rule: with ``c = nc/dc``
        and ``r = nr/dr`` (floats are dyadic) it is ``nc nr / (dc (dr - nr))``."""
        nc, dc = self.c.as_integer_ratio()
        nr, dr = self.r.as_integer_ratio()
        return self._sign * nc * nr, dc * (dr - nr)


class GeometricLow(_Geometric):
    """Tail term i is ``c * r**i`` (decreasing to 0)."""

    kind = "geometric-low"
    _sign = 1

    def term(self, i: int) -> float:
        return self.c * self.r**i

    def complement(self) -> "GeometricHigh":
        return GeometricHigh(self.c, self.r)

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        i, high, low = _geometric_split(self.c, self.r, alpha, inclusive=False)
        return SideSums(low, high, self.c > 0.0, False, math.inf, i - 1)


class GeometricHigh(_Geometric):
    """Tail term i is ``1 - c * r**i`` (increasing to 1)."""

    kind = "geometric-high"
    _sign = -1

    def term(self, i: int) -> float:
        return 1.0 - self.c * self.r**i

    def complement(self) -> GeometricLow:
        return GeometricLow(self.c, self.r)

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        i, low, high = _geometric_split(self.c, self.r, 1.0 - alpha, inclusive=True)
        return SideSums(low, high, False, self.c > 0.0, i - 1, math.inf)


@dataclass(frozen=True)
class Interleave:
    """Alternates terms of two tail rules: first(1), second(1), first(2), ..."""

    first: "TailRule"
    second: "TailRule"

    kind = "interleave"

    def term(self, i: int) -> float:
        if i % 2 == 1:
            return self.first.term((i + 1) // 2)
        return self.second.term(i // 2)

    def complement(self) -> "Interleave":
        return Interleave(self.first.complement(), self.second.complement())

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        return self.first.side_sums(alpha, budget) + self.second.side_sums(alpha, budget)

    def residue(self) -> tuple[int, int]:
        (p1, q1), (p2, q2) = self.first.residue(), self.second.residue()
        return p1 * q2 + p2 * q1, q1 * q2


@dataclass(frozen=True)
class _Divergent:
    """Shared fields and validation of the two divergent rules."""

    generator: str
    certificate: Certificate

    def __post_init__(self):
        # The compiled generator is kept outside the dataclass fields, so
        # equality, hashing and pickling see only the source text.
        object.__setattr__(self, "_fn", _compile_generator(self.generator))
        for i in _SAMPLE_INDICES:
            try:
                v = float(self._fn(float(i)))
            except _GEN_ERRORS as exc:
                raise self._failed(i, exc) from exc
            if not -_BOUNDARY_FUZZ <= v <= 0.5 + _BOUNDARY_FUZZ:
                raise TailCertificateError(
                    f"{self.kind} generator must stay in [0, 1/2]; got {v!r} at i={i}"
                )
            if not v >= self.certificate.lower_bound(i) - _BOUNDARY_FUZZ:
                raise TailCertificateError(
                    f"sampled generator value {v!r} at i={i} violates the certificate"
                )

    def __reduce__(self):
        return type(self), (self.generator, self.certificate)

    def _failed(self, i: int, exc: Exception) -> TailCertificateError:
        return TailCertificateError(f"generator {self.generator!r} failed at i={i}: {exc}")

    def _g(self, i: int) -> float:
        """The generator value at float ``i`` clamped to [0, 1/2]; NaN and -0.0 give +0.0."""
        try:
            v = self._fn(float(i))
            if v > 0.0:
                return v if v < 0.5 else 0.5
        except _GEN_ERRORS as exc:
            raise self._failed(i, exc) from exc
        return 0.0

    def _head(self, alpha: float, budget: int) -> SideSums:
        """The split of the terms below the certificate's start, at most ``budget`` of them."""
        start = self.certificate.start
        if start - 1 > budget:
            raise BudgetExhaustedError(f"certificate start {start} needs more than {budget} terms")
        return SideSums.of(map(self.term, range(1, start)), alpha)


class DivergentLow(_Divergent):
    """Tail term i is ``g(i)`` with ``g`` in [0, 1/2] and certified divergent sum."""

    kind = "divergent-low"

    def term(self, i: int) -> float:
        return self._g(i)

    def complement(self) -> "DivergentHigh":
        return DivergentHigh(self.generator, self.certificate)

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        cert = self.certificate
        if alpha >= 0.5:
            # Every term sits in [0, 1/2], hence on the low side.
            return SideSums(math.inf, 0.0, True, False, math.inf, 0)
        if cert.kind == "constant" and cert.p > alpha:
            return self._head(alpha, budget) + SideSums(0.0, math.inf, False, True, None, None)
        return SideSums(None, None, True, True, None, None)


class DivergentHigh(_Divergent):
    """Tail term i is ``1 - g(i)`` with ``g`` in [0, 1/2] and certified divergent sum."""

    kind = "divergent-high"

    def term(self, i: int) -> float:
        return 1.0 - self._g(i)

    def complement(self) -> DivergentLow:
        return DivergentLow(self.generator, self.certificate)

    def side_sums(self, alpha: float, budget: int = 100_000) -> SideSums:
        cert = self.certificate
        if alpha < 0.5:
            # Every term sits in [1/2, 1], hence strictly above alpha.
            return SideSums(0.0, math.inf, False, True, 0, math.inf)
        if cert.kind == "constant" and cert.p > 1.0 - alpha:
            return self._head(alpha, budget) + SideSums(math.inf, 0.0, True, False, None, None)
        return SideSums(None, None, True, True, None, None)

TailRule = Union[
    ZeroTail, OneTail, GeometricLow, GeometricHigh, Interleave, DivergentLow, DivergentHigh
]


@dataclass(frozen=True)
class SequenceSpec:
    """Finite prefix followed by a tail rule; all terms in [0, 1]."""

    prefix: tuple[float, ...]
    tail: TailRule

    def __post_init__(self):
        clean = []
        for v in self.prefix:
            v = float(v)
            if not -_BOUNDARY_FUZZ <= v <= 1.0 + _BOUNDARY_FUZZ:
                raise ValueError(f"prefix entry {v!r} lies outside [0, 1]")
            clean.append(min(1.0, max(0.0, v)))
        object.__setattr__(self, "prefix", tuple(clean))


def term(spec: SequenceSpec, i: int) -> float:
    """Value of sequence position ``i`` (1-based)."""
    if i < 1:
        raise ValueError("sequence positions are 1-based")
    if i <= len(spec.prefix):
        return spec.prefix[i - 1]
    return spec.tail.term(i - len(spec.prefix))


def complement(spec: SequenceSpec) -> SequenceSpec:
    """Termwise complement: position i holds ``1 - term(spec, i)``."""
    return SequenceSpec(tuple(1.0 - v for v in spec.prefix), spec.tail.complement())

