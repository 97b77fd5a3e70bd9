"""Span tracing of the ``schurhorn`` layers, installed from outside ``src/``.

:class:`Tracer` wraps every public function (no leading underscore) defined
in each layer module and swaps the wrapper in under every name the function
is bound to anywhere in the package, so ``schurhorn.carpenter.term`` is
traced as ``sequences.term`` just like ``schurhorn.sequences.term``.  Calls
made through private helpers are part of the caller's span.

A span records its id, its parent's id, the job id, the function, start and
end, and its self time: its duration minus the durations of its direct child
spans.  Because spans nest properly in one thread, the self times of all
spans add up to the duration of the root spans, with nothing counted twice.
Spans stay in memory until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "majorization", "schur", "linalg", "sequences", "carpenter")

# Per-layer metric -> functions whose self time it sums.
SELF_TIME_GROUPS = {
    "linalg.eig_s": ["linalg.hermitian_eigenvalues"],
    "linalg.check_s": ["linalg.hermitian_residual", "linalg.unitary_residual",
                       "linalg.projection_residual", "linalg.projection_entry_excess",
                       "linalg.is_hermitian", "linalg.is_unitary", "linalg.is_projection"],
    # The rotation helpers are included so the metric keeps its meaning when
    # a faster engine inlines them into the chain functions.
    "schur.chain_s": ["schur.synthesize_hermitian", "schur.conjugate_to_diagonal",
                      "schur.carpenter_finite", "schur.apply_t_transform_unitarily",
                      "schur.kadison_rotation", "schur.embed_rotation"],
    "majorization.decompose_s": ["majorization.decompose_t_transforms"],
    "majorization.decide_s": ["majorization.majorizes", "majorization.majorizes_by_absolute_sums",
                              "majorization.verify_concentration"],
    "majorization.replay_s": ["majorization.replay_t_transform_plan",
                              "majorization.apply_t_transform",
                              "majorization.apply_doubly_stochastic"],
    "sequences.term_s": ["sequences.term", "sequences.tail_term"],
    "sequences.side_sums_s": ["sequences.tail_side_sums", "sequences.side_index_count",
                              "sequences.side_indices", "sequences.tail_total",
                              "sequences.sequence_total"],
    "carpenter.feasibility_s": ["carpenter.feasibility", "carpenter.kadison_sums"],
    "carpenter.build_a_s": ["carpenter.build_case_a", "carpenter.monotone_divergent_subsequence",
                            "carpenter.block_projection_from_partition",
                            "carpenter.chebyshev_coefficients"],
    "carpenter.build_b_s": ["carpenter.build_case_b", "carpenter.projection_with_trace",
                            "carpenter.projection_with_cotrace"],
    "carpenter.verify_s": ["carpenter.verify_truncation", "carpenter.projection_increment_norms"],
}


# Work counters kept by _count.
COUNTERS = ("linalg.eig_calls", "schur.rotations", "majorization.transforms",
            "sequences.terms", "carpenter.dim_total", "io.bytes_written", "io.bytes_read")
_UNITS = {"io.bytes_written": "B", "io.bytes_read": "B", "schur.us_per_rotation": "us",
          "io.save_mb_per_s": "MB/s", "trace.overhead_frac": "frac"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric; times are in seconds."""
    if metric in _UNITS:
        return _UNITS[metric]
    return "count" if metric in COUNTERS or metric.endswith(".errors") else "s"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count(counts: Counter, key: str, args, result, parent) -> None:
    """Work counters taken at the layer boundary, after the span has closed."""
    layer, name = key.split(".", 1)
    if key == "majorization.decompose_t_transforms":
        counts["majorization.transforms"] += len(result.transforms)
        if parent is not None and parent[1] == "schur":
            counts["schur.rotations"] += len(result.transforms)
    elif key == "linalg.hermitian_eigenvalues":
        counts["linalg.eig_calls"] += 1
    elif key == "sequences.term" or (
        key == "sequences.tail_term"
        and (parent is None or parent[3] not in ("sequences.term", "sequences.tail_term"))
    ):
        counts["sequences.terms"] += 1
    elif key in ("carpenter.build_case_a", "carpenter.build_case_b") and (
        parent is None or parent[1] != "carpenter"
    ):
        built = result if key.endswith("_a") else result[-1]
        counts["carpenter.dim_total"] += built.matrix.shape[0]
    elif layer == "io" and name.startswith("save_"):
        counts["io.bytes_written"] += _file_size(args[0])
    elif layer == "io" and name.startswith("load_"):
        counts["io.bytes_read"] += _file_size(args[0])


class Tracer:
    """Records nested spans of the package's public functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"schurhorn.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "schurhorn" and not modname.startswith("schurhorn."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _span(self, key, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id += 1
        frame = [sid, layer, 0.0, key]
        stack.append(frame)
        escaped = False
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs), parent
        except StopIteration:
            raise
        except BaseException:
            # An exception counts against a layer once, where it leaves it.
            escaped = parent is None or parent[1] != layer
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            if parent is not None:
                parent[2] += duration
            self.spans.append((sid, parent[0] if parent else None, self.job, key,
                               t0, t1, duration - frame[2], escaped))

    def _wrap(self, key, fn):
        layer = key.split(".", 1)[0]
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # Each resumption of the generator is a span of its own, so the
            # terms it evaluates while iterating nest under it.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item, _ = self._span(key, layer, next, (gen,), {})
                    except StopIteration:
                        return
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            result, parent = self._span(key, layer, fn, args, kwargs)
            _count(counts, key, args, result, parent)
            return result

        return call

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, grouped times, counts and escaped errors."""
        self_by_fn: dict[str, float] = defaultdict(float)
        errors: Counter = Counter()
        job_s = 0.0
        for _sid, parent, _job, key, t0, t1, self_s, escaped in self.spans:
            self_by_fn[key] += self_s
            if escaped:
                errors[key.split(".", 1)[0]] += 1
            if parent is None:
                job_s += t1 - t0
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_by_fn.items() if k.startswith(layer + "."))
            out[f"{layer}.errors"] = errors[layer]
        for metric, fns in SELF_TIME_GROUPS.items():
            out[metric] = sum(self_by_fn[f] for f in fns)
        io_fns = {k: v for k, v in self_by_fn.items() if k.startswith("io.")}
        out["io.save_s"] = sum(v for k, v in io_fns.items()
                               if k.startswith("io.save_") or k.endswith("_to_obj"))
        out["io.load_s"] = sum(v for k, v in io_fns.items()
                               if k.startswith("io.load_") or k.endswith("_from_obj"))
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["schur.us_per_rotation"] = (
            1e6 * out["schur.chain_s"] / out["schur.rotations"] if out["schur.rotations"] else 0.0
        )
        out["io.save_mb_per_s"] = (
            out["io.bytes_written"] / 1e6 / out["io.save_s"] if out["io.save_s"] else 0.0
        )
        out["trace.job_s"] = job_s
        return out

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines (gzip-compressed)."""
        fields = ["id", "parent", "job", "fn", "t0", "t1", "self_s", "escaped"]
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({**header, "span_fields": fields}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
