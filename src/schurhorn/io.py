"""JSON file formats for matrices, vectors, mixing plans, and sequences.

Every reader goes through ``_load`` and every writer through ``_write``.  All
decoding errors raise :class:`FormatError` so callers (notably the CLI) can
distinguish malformed input from numerical failure; that includes numbers
outside the float range, and JSON nested too deeply to parse.  A writer puts
one line of compact strict JSON plus a newline, with each float in its
shortest round-trip form (orjson encodes it); it refuses a non-finite entry
or an integer beyond 64 bits with :class:`FormatError` and writes no file.
An unbounded ``residual_bound`` is written as ``null``.

orjson parses every file.  Any text that nests deeply or holds an escape,
any text orjson refuses, and any value that fails a reader's check are
parsed by the standard ``json`` module instead.  So every valid JSON
spelling loads, including files from earlier versions (``", "``
separators, a ``residual_bound`` of ``Infinity``), and every rejected file
raises the ``json`` path's error.  Vectors and sequences are only read: no
command writes them.  This module is the one owner of each wire format; the
in-memory types carry no encoders.  Formats:

* matrix: ``{"n": int, "data": [[re, im], ...]}`` with ``n**2`` row-major
  entries.  It loads as a ``float64`` array when every ``im`` is ``+0.0``
  bit for bit, else as ``complex128`` (so a ``-0.0`` survives the round
  trip); a real matrix is written with ``im`` = ``0.0`` throughout;
* vector: ``{"values": [float, ...]}``;
* mixing plan: ``{"transforms": [{"j", "k", "t"}, ...], "source_order": [...],
  "placement": [...]}`` with 1-based positions;
* sequence: ``{"prefix": [...], "tail": {"kind": ..., ...}}``;
* truncated projection: a matrix object extended with ``depth``, ``covered``,
  ``residual_bound`` and ``permutation`` (1-based indices up to ``2**53``,
  ``null`` for the slack position).
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
        and _all_numbers(flat := list(chain.from_iterable(data)))
    ):
        pos = next(
            pos
            for pos, pair in enumerate(data)
            if not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(map(_is_number, pair))
        )
        raise FormatError(f"matrix: entry {pos} must be a [re, im] pair")
    pairs = _finite_floats(flat, len(flat), "matrix").reshape(-1, 2)
    if pairs[:, 1].view(np.int64).any():  # some imaginary part is not +0.0, bit for bit
        return pairs.view(np.complex128).reshape(n, n)
    return pairs[:, 0].reshape(n, n).copy()  # contiguous, and frees the pairs


# Bytes that ``_nests_shallowly`` deletes: all but quotes, backslashes and brackets.
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"\\[]{}')))


def _nests_shallowly(raw: bytes) -> bool:
    """Whether ``raw`` has no backslash, no string with a bracket in it, and
    brackets nested at most 6 deep; every file this module writes passes.

    orjson recurses once per nesting level with no limit: about 10**5 levels
    (a 200 kB file) overflow an 8 MiB C stack and kill the process, where
    ``json`` raises RecursionError.  Written files nest 3 deep.  With no
    backslash, quotes pair up in order, so a string holds no bracket exactly
    when every quote is next to its partner once all else is deleted.  Each
    round of pair removal then peels one or two levels.
    """
    s = raw.translate(None, _NOT_STRUCTURE).replace(b'""', b"")
    if b'"' in s or b"\\" in s:
        return False
    for _ in range(3):
        s = s.replace(b"[]", b"").replace(b"{}", b"")
    return not s


def _load(path, from_obj):
    """``from_obj`` of the JSON value in the file at ``path``, parsed by orjson.

    ``json`` decides whenever the text fails ``_nests_shallowly``, orjson
    refuses it, or ``from_obj`` raises :class:`FormatError`.  orjson reads
    ``NaN``, ``Infinity`` and overflowing numbers as errors and integers
    beyond 64 bits as floats, which no integer check accepts.
    """
    import orjson  # only readers and writers pay its import

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if _nests_shallowly(raw := text.encode()):
        try:
            return from_obj(orjson.loads(raw))
        except (orjson.JSONDecodeError, FormatError):
            pass
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path} nests JSON too deeply") from exc
    return from_obj(obj)


def _write(path, obj) -> None:
    """Write ``obj`` as one line of JSON plus a newline; orjson encodes numpy arrays."""
    import orjson  # only readers and writers pay its import

    try:
        raw = orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError as exc:  # an integer beyond 64 bits
        raise FormatError(f"cannot write {path}: {exc}; nothing was written") from exc
    Path(path).write_bytes(raw)


def _matrix_obj(m, **fields) -> dict:
    """The matrix file's value for the square matrix ``m`` (a float64 view), then ``fields``."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FormatError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise FormatError("matrix entries must be finite; nothing was written")
    return {"n": m.shape[0], "data": m.reshape(-1).view(np.float64).reshape(-1, 2), **fields}


def load_matrix(path) -> np.ndarray:
    return _load(path, _matrix_from_obj)


def load_vector(path) -> np.ndarray:
    return _load(path, _vector_from_obj)


def _vector_from_obj(obj) -> np.ndarray:
    values = _require(obj, "values", list, "vector")
    if not _all_numbers(values):
        pos = next(pos for pos, x in enumerate(values) if not _is_number(x))
        raise FormatError(f"vector: entry {pos} must be a number")
    return _finite_floats(values, len(values), "vector")


def load_plan(path) -> TTransformPlan:
    return _load(path, _plan_from_obj)


def _plan_from_obj(obj) -> TTransformPlan:
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
    return _load(path, _spec_from_obj)


def _spec_from_obj(obj) -> SequenceSpec:
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
    return _load(path, _truncation_from_obj)


def _truncation_from_obj(obj) -> TruncatedProjection:
    matrix = _matrix_from_obj(obj)
    depth = _require(obj, "depth", int, "truncated projection")
    covered = _require(obj, "covered", list, "truncated projection")
    if obj.get("residual_bound", 0.0) is None:  # no bound claimed
        bound = math.inf
    else:
        bound = _require(obj, "residual_bound", float, "truncated projection")
    permutation = _require(obj, "permutation", list, "truncated projection")
    if len(permutation) != matrix.shape[0]:
        raise FormatError("truncated projection: permutation length must match n")
    diagonal_map = _one_based(permutation, "truncated projection: permutation", nullable=True)
    covered = _one_based(covered, "truncated projection: covered")
    if max(chain(covered, filter(None, diagonal_map)), default=0) > 2**53:  # float(i) is exact
        raise FormatError("truncated projection: an index exceeds 2**53")
    if depth < 1 or not bound >= 0:  # NaN fails too
        raise FormatError("truncated projection: depth must be >= 1 and bound non-negative")
    return TruncatedProjection(
        matrix=matrix,
        depth=depth,
        diagonal_map=diagonal_map,
        covered=covered,
        residual_bound=bound,
    )


def save_matrix(path, m) -> None:
    _write(path, _matrix_obj(m))


def save_plan(path, plan: TTransformPlan) -> None:
    ts = np.array(plan.t, dtype=np.float64)
    if not np.isfinite(ts).all():
        raise FormatError("plan weights must be finite; nothing was written")
    _write(path, {
        "transforms": [
            {"j": j + 1, "k": k + 1, "t": t} for j, k, t in zip(plan.j, plan.k, ts.tolist())
        ],
        "source_order": [p + 1 for p in plan.source_order],
        "placement": [p + 1 for p in plan.placement],
    })


def save_truncated_projection(path, t: TruncatedProjection) -> None:
    if not t.residual_bound >= 0:
        raise FormatError("residual bound must be non-negative; nothing was written")
    _write(path, _matrix_obj(
        t.matrix,
        depth=t.depth,
        covered=t.covered,
        residual_bound=None if t.residual_bound == math.inf else t.residual_bound,
        permutation=t.diagonal_map,
    ))
