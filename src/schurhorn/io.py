"""JSON file formats for matrices, vectors, mixing plans, and sequences.

All decoding errors raise :class:`FormatError` so callers (notably the CLI)
can distinguish malformed input from numerical failure; that includes numbers
outside the float range, and JSON nested too deeply to parse.  Each file is
compact JSON text as ``json.dumps`` writes it (default separators, one line,
plus a newline).  The matrix, truncated-projection and plan writers build
their text directly and format each distinct float once.  Vectors and
sequences are only read: no command writes them.  This module is the one
owner of each wire format; the in-memory types carry no encoders.
Formats:

* matrix: ``{"n": int, "data": [[re, im], ...]}`` with ``n**2`` row-major
  entries;
* vector: ``{"values": [float, ...]}``;
* mixing plan: ``{"transforms": [{"j", "k", "t"}, ...], "source_order": [...],
  "placement": [...]}`` with 1-based positions;
* sequence: ``{"prefix": [...], "tail": {"kind": ..., ...}}``;
* truncated projection: a matrix object extended with ``depth``, ``covered``,
  ``residual_bound`` and ``permutation`` (1-based indices, ``null`` for the
  slack position).
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import get_args

import numpy as np

from .carpenter import TruncatedProjection
from .majorization import TTransformPlan
from .sequences import (
    Certificate,
    GeometricHigh,
    GeometricLow,
    Interleave,
    OneTail,
    SequenceSpec,
    TailRule,
    ZeroTail,
)

__all__ = [
    "FormatError",
    "load_matrix",
    "save_matrix",
    "load_vector",
    "load_plan",
    "save_plan",
    "load_sequence_spec",
    "load_truncated_projection",
    "save_truncated_projection",
]


class FormatError(ValueError):
    """A file or object does not follow one of the documented formats."""


def _read_json(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path} nests JSON too deeply") from exc


def _write_text(path, text: str) -> None:
    Path(path).write_text(text + "\n")


def _float_texts(values: np.ndarray) -> np.ndarray:
    """``json.dumps`` text of each float of the 1-d float64 array ``values``, as an object array.

    Each distinct bit pattern (so ``-0.0`` and NaN payloads stay apart) is
    formatted once, by one ``json.dumps`` of the distinct values, which also
    gives JSON's ``NaN``/``Infinity`` spellings; the texts are then gathered
    back into the order of ``values``.
    """
    if not values.size:
        return np.empty(0, dtype=object)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse]


def _matrix_json(m, fields: dict) -> str:
    """``json.dumps`` text of ``{"n": n, "data": [[re, im], ...]}`` (row-major)
    for the square matrix ``m``, then ``fields``; each distinct float is
    formatted once."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FormatError(f"expected a square matrix, got shape {m.shape}")
    texts = _float_texts(m.reshape(-1).view(np.float64))  # re, im interleaved
    pieces = np.empty(2 * texts.size, dtype=object)
    pieces[0::2] = texts
    pieces[1::4] = ", "
    pieces[3::4] = "], ["
    data = "[" + "".join(pieces[:-1].tolist()) + "]" if texts.size else ""
    rest = ", " + json.dumps(fields)[1:] if fields else "}"
    return f'{{"n": {m.shape[0]}, "data": [{data}]{rest}'


def _require(obj, key, kind, context):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{context}: missing key {key!r}")
    value = obj[key]
    if kind is float:
        if not _is_number(value):
            raise FormatError(f"{context}: key {key!r} must be a number")
        try:
            return float(value)
        except OverflowError as exc:
            raise FormatError(f"{context}: key {key!r} is out of float range") from exc
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"{context}: key {key!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise FormatError(f"{context}: key {key!r} must be {kind.__name__}")
    return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _all_numbers(values) -> bool:
    """Whether every value is an int or float (bools excluded), by one scan of their types."""
    return all(
        issubclass(k, (int, float)) and not issubclass(k, bool) for k in set(map(type, values))
    )


def _one_based(values, label: str, kind: str = "a 1-based index", nullable: bool = False):
    """``values`` as a tuple after checking each is a 1-based integer (or null if ``nullable``)."""
    for pos, idx in enumerate(values):
        if nullable and idx is None:
            continue
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 1:
            raise FormatError(f"{label}[{pos}] must be {'null or ' if nullable else ''}{kind}")
    return tuple(values)


def _finite_floats(values, count: int, context: str) -> np.ndarray:
    """float64 array of ``count`` type-checked numbers; out-of-range or non-finite raises."""
    try:
        out = np.fromiter(values, np.float64, count)
    except OverflowError as exc:
        raise FormatError(f"{context}: an entry is out of float range") from exc
    if not np.all(np.isfinite(out)):
        raise FormatError(f"{context}: entries must be finite")
    return out


def _matrix_from_obj(obj) -> np.ndarray:
    n = _require(obj, "n", int, "matrix")
    data = _require(obj, "data", list, "matrix")
    if n < 0 or len(data) != n * n:
        raise FormatError(f"matrix: expected {n * n} entries, got {len(data)}")
    if not (
        all(issubclass(k, (list, tuple)) for k in set(map(type, data)))
        and set(map(len, data)) <= {2}
        and _all_numbers(chain.from_iterable(data))
    ):
        pos = next(
            pos
            for pos, pair in enumerate(data)
            if not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(map(_is_number, pair))
        )
        raise FormatError(f"matrix: entry {pos} must be a [re, im] pair")
    flat = _finite_floats(chain.from_iterable(data), 2 * len(data), "matrix")
    return flat.view(np.complex128).reshape(n, n)


def load_matrix(path) -> np.ndarray:
    return _matrix_from_obj(_read_json(path))


def load_vector(path) -> np.ndarray:
    values = _require(_read_json(path), "values", list, "vector")
    if not _all_numbers(values):
        pos = next(pos for pos, x in enumerate(values) if not _is_number(x))
        raise FormatError(f"vector: entry {pos} must be a number")
    return _finite_floats(values, len(values), "vector")


def load_plan(path) -> TTransformPlan:
    obj = _read_json(path)
    raw = _require(obj, "transforms", list, "plan")
    js, ks, ts = [], [], []
    for pos, entry in enumerate(raw):
        j = _require(entry, "j", int, f"plan transform {pos}")
        k = _require(entry, "k", int, f"plan transform {pos}")
        t = _require(entry, "t", float, f"plan transform {pos}")
        if j < 1 or k < 1 or j == k or not 0.0 <= t <= 1.0:
            raise FormatError(f"plan transform {pos}: ({j}, {k}, {t}) needs two distinct "
                              "1-based positions and a mixing weight in [0, 1]")
        js.append(j - 1)
        ks.append(k - 1)
        ts.append(t)
    source, placement = (
        _one_based(_require(obj, name, list, "plan"), f"plan {name}", "a 1-based integer")
        for name in ("source_order", "placement")
    )
    # Every position indexes the frame, ``y`` in source order; the two orders permute it.
    n = len(source)
    if not sorted(source) == sorted(placement) == list(range(1, n + 1)):
        raise FormatError(f"plan: source_order and placement must be permutations of 1..{n}")
    if max(chain(js, ks), default=-1) >= n:
        raise FormatError(f"plan: a position exceeds the frame length {n}")
    return TTransformPlan(tuple(js), tuple(ks), tuple(ts), tuple(p - 1 for p in source),
                          tuple(p - 1 for p in placement))


_TAIL_KINDS = {cls.kind: cls for cls in get_args(TailRule)}


def _tail_from_obj(obj) -> TailRule:
    kind = _require(obj, "kind", str, "tail")
    cls = _TAIL_KINDS.get(kind)
    if cls is None:
        raise FormatError(f"tail: unknown kind {kind!r}")
    try:
        if cls in (ZeroTail, OneTail):
            return cls()
        if cls in (GeometricLow, GeometricHigh):
            return cls(_require(obj, "c", float, "tail"), _require(obj, "r", float, "tail"))
        if cls is Interleave:
            parts = _require(obj, "parts", list, "tail")
            if len(parts) != 2:
                raise FormatError("tail: interleave needs exactly two parts")
            return Interleave(_tail_from_obj(parts[0]), _tail_from_obj(parts[1]))
        generator = _require(obj, "generator", str, "tail")
        cert_obj = _require(obj, "certificate", dict, "tail")
        cert = Certificate(
            _require(cert_obj, "kind", str, "certificate"),
            _require(cert_obj, "p", float, "certificate"),
            _require(cert_obj, "start", int, "certificate"),
        )
        return cls(generator, cert)
    except ValueError as exc:
        raise FormatError(f"tail: {exc}") from exc


def load_sequence_spec(path) -> SequenceSpec:
    obj = _read_json(path)
    prefix = _require(obj, "prefix", list, "sequence")
    for pos, x in enumerate(prefix):
        if not _is_number(x):
            raise FormatError(f"sequence: prefix entry {pos} must be a number")
    tail = _tail_from_obj(_require(obj, "tail", dict, "sequence"))
    try:
        return SequenceSpec(tuple(prefix), tail)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"sequence: {exc}") from exc


def load_truncated_projection(path) -> TruncatedProjection:
    obj = _read_json(path)
    matrix = _matrix_from_obj(obj)
    depth = _require(obj, "depth", int, "truncated projection")
    covered = _require(obj, "covered", list, "truncated projection")
    bound = _require(obj, "residual_bound", float, "truncated projection")
    permutation = _require(obj, "permutation", list, "truncated projection")
    if len(permutation) != matrix.shape[0]:
        raise FormatError("truncated projection: permutation length must match n")
    diagonal_map = _one_based(permutation, "truncated projection: permutation", nullable=True)
    covered = _one_based(covered, "truncated projection: covered")
    if depth < 1 or (bound != math.inf and bound < 0):
        raise FormatError("truncated projection: depth must be >= 1 and bound non-negative")
    return TruncatedProjection(
        matrix=matrix,
        depth=depth,
        diagonal_map=diagonal_map,
        covered=covered,
        residual_bound=bound,
    )


def save_matrix(path, m) -> None:
    _write_text(path, _matrix_json(m, {}))


def save_plan(path, plan: TTransformPlan) -> None:
    ts = _float_texts(np.array(plan.t, dtype=np.float64))
    transforms = ", ".join(
        f'{{"j": {j + 1}, "k": {k + 1}, "t": {t}}}'
        for j, k, t in zip(plan.j, plan.k, ts.tolist())
    )
    orders = {
        "source_order": [p + 1 for p in plan.source_order],
        "placement": [p + 1 for p in plan.placement],
    }
    _write_text(path, f'{{"transforms": [{transforms}], {json.dumps(orders)[1:]}')


def save_truncated_projection(path, t: TruncatedProjection) -> None:
    fields = {
        "depth": t.depth,
        "covered": list(t.covered),
        "residual_bound": t.residual_bound,
        "permutation": list(t.diagonal_map),
    }
    _write_text(path, _matrix_json(t.matrix, fields))
