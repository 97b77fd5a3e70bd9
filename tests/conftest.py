"""Shared random generators, independent brute-force oracles and an input writer."""

import json
from itertools import combinations

import numpy as np


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(n, n), scale=scale) + 1j * rng.normal(size=(n, n), scale=scale)
    return (z + z.conj().T) / 2.0


def random_doubly_stochastic(rng: np.random.Generator, n: int, terms: int = 4) -> np.ndarray:
    """Convex combination of random permutation matrices."""
    weights = rng.dirichlet(np.ones(terms))
    b = np.zeros((n, n))
    for w in weights:
        b[np.arange(n), rng.permutation(n)] += w
    return b


def random_majorized_pair(rng: np.random.Generator, n: int, scale: float = 1.0):
    """(x, y) with x majorised by y, built independently of the package."""
    y = rng.normal(size=n) * scale
    x = random_doubly_stochastic(rng, n) @ y
    return x, y


def random_projection_diagonal(rng: np.random.Generator, n: int, m: int | None = None):
    """Vector in [0, 1]^n with (near-exactly) integer sum m."""
    if m is None:
        m = int(rng.integers(1, n)) if n > 1 else 1
    v = rng.uniform(0.0, 1.0, n)
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if np.clip(v + mid, 0.0, 1.0).sum() < m:
            lo = mid
        else:
            hi = mid
    out = np.clip(v + (lo + hi) / 2.0, 0.0, 1.0)
    interior = (out > 1e-6) & (out < 1.0 - 1e-6)
    if interior.any():
        out[interior] += (m - out.sum()) / interior.sum()
    return np.clip(out, 0.0, 1.0)


def majorizes_oracle(x, y, tol: float = 1e-9) -> bool:
    """Brute force: the best k-subset sum of x never beats the top-k sum of y."""
    xs = [float(v) for v in x]
    ys = sorted((float(v) for v in y), reverse=True)
    if abs(sum(xs) - sum(ys)) > tol:
        return False
    for k in range(1, len(xs)):
        best_x = max(sum(c) for c in combinations(xs, k))
        if best_x > sum(ys[:k]) + tol:
            return False
    return True


def write_json(path, obj) -> str:
    """Write ``obj`` to ``path`` as JSON text, the way CLI inputs are given; return the path.

    A vector is ``{"values": [...]}``; a sequence spec is ``{"prefix": [...], "tail": {...}}``
    as the README's File formats section gives it.
    """
    path.write_text(json.dumps(obj))
    return str(path)
