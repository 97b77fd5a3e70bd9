"""Independent checks of the artifacts a job wrote.

Each factory returns ``check(stdout_lines) -> reason or None``.  The checks
read the JSON files with ``json`` and ``numpy`` only and recompute every
claim from the job's own inputs: they never call into ``schurhorn``, whose
``verify`` is timed as part of the job but not trusted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOL = 1e-8


def _matrix(path) -> tuple[np.ndarray, dict]:
    obj = json.loads(Path(path).read_text())
    n = obj["n"]
    data = np.asarray(obj["data"], dtype=float).reshape(n * n, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(n, n), obj


def _max(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def majorised(x, y, tol: float = 1e-9) -> bool:
    """``x`` majorised by ``y``: equal totals and dominated sorted prefix sums."""
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    return abs(cx[-1] - cy[-1]) <= tol and bool(np.all(cx <= cy + tol))


def _reported(lines, key):
    for line in lines:
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    return None


def synth(a_path, u_path, x, y):
    """Diagonal, spectrum (``eigvalsh``), Hermitian and unitary residuals, and
    that ``U`` diagonalises ``A``."""
    scale = max(1.0, _max(y))

    def check(lines):
        a, _ = _matrix(a_path)
        u, _ = _matrix(u_path)
        n = len(x)
        if a.shape != (n, n) or u.shape != (n, n):
            return f"shape {a.shape}/{u.shape}, expected n={n}"
        if _max(a - a.conj().T) > TOL * scale:
            return "matrix is not Hermitian"
        if _max(u @ u.conj().T - np.eye(n)) > TOL:
            return "unitary residual too large"
        if _max(np.diag(a).real - x) > TOL * scale:
            return "diagonal does not match"
        if _max(np.linalg.eigvalsh(a) - np.sort(y)) > TOL * scale:
            return "spectrum does not match"
        d = u.conj().T @ a @ u
        if _max(d - np.diag(np.diag(d))) > TOL * scale:
            return "unitary does not diagonalise the matrix"
        return None

    return check


def _projection_reason(p) -> str | None:
    if _max(p - p.conj().T) > TOL:
        return "projection is not Hermitian"
    if _max(p @ p - p) > TOL:
        return "projection is not idempotent"
    return None


def projection(p_path, diag):
    """``P = P*``, ``P^2 = P`` and the prescribed diagonal."""

    def check(lines):
        p, _ = _matrix(p_path)
        if p.shape != (len(diag), len(diag)):
            return f"shape {p.shape}, expected n={len(diag)}"
        return _projection_reason(p) or (
            "diagonal does not match" if _max(np.diag(p).real - diag) > TOL else None
        )

    return check


def truncation(t_path, term):
    """Projection axioms plus the covered diagonal, with terms from the harness's
    own evaluation of the generated sequence."""

    def check(lines):
        p, obj = _matrix(t_path)
        reason = _projection_reason(p)
        if reason:
            return reason
        covered = set(obj["covered"])
        perm = obj["permutation"]
        if len(perm) != p.shape[0] or not covered <= {i for i in perm if i is not None}:
            return "permutation does not cover the covered indices"
        for pos, idx in enumerate(perm):
            if idx in covered and abs(p[pos, pos].real - term(idx)) > TOL:
                return f"diagonal entry for index {idx} does not match the sequence"
        return None

    return check


def nothing_written(path):
    """An infeasible spec must be refused without writing a truncation."""

    def check(lines):
        if Path(path).exists():
            return "a truncation was written for an infeasible spec"
        return None if _reported(lines, "case") == "Infeasible" else "case is not Infeasible"

    return check


def plan(plan_path, x, y, expect_majorised):
    """Verdict, plan replay from ``y`` to ``x`` and at most ``n - 1`` transforms."""
    scale = max(1.0, _max(y))

    def check(lines):
        verdict = _reported(lines, "majorizes")
        if verdict != ("true" if expect_majorised else "false"):
            return f"verdict majorizes={verdict}"
        if not expect_majorised:
            return None
        obj = json.loads(Path(plan_path).read_text())
        n = len(x)
        transforms = obj["transforms"]
        if len(transforms) > n - 1:
            return f"{len(transforms)} transforms for n={n}"
        w = np.asarray(y, dtype=float)[[p - 1 for p in obj["source_order"]]]
        for tr in transforms:
            j, k, t = tr["j"] - 1, tr["k"] - 1, tr["t"]
            if j == k or not 0.0 <= t <= 1.0:
                return f"invalid transform {tr}"
            w[j], w[k] = t * w[j] + (1 - t) * w[k], (1 - t) * w[j] + t * w[k]
        placed = w[[p - 1 for p in obj["placement"]]]
        if _max(placed - x) > TOL * scale:
            return "plan replay does not reach x"
        return None

    return check
