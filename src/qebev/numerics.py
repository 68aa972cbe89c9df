"""Deterministic numeric kernels shared by every stage of the pipeline.

All randomness in the package flows through generators built here, so a
single root seed reproduces a whole run bit for bit.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np
# What np.einsum calls, with the same operands, when ``optimize`` is off (its
# default): calling it directly skips the Python wrapper and its dispatcher.
from numpy._core.multiarray import c_einsum

__all__ = [
    "softmax",
    "top_k_indices",
    "pairwise_sq_dist",
    "make_rng",
    "derive_seed",
    "draw_seed",
    "central_differences",
]

_U64 = np.uint64


def softmax(scores: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis of a 1-D or 2-D score array with
    a non-empty last axis; a row of a 2-D array gets the bits of a 1-D call
    on that row."""
    s = np.asarray(scores, dtype=np.float64)
    if not 1 <= s.ndim <= 2 or s.shape[-1] == 0:
        raise ValueError("softmax expects a 1-D or 2-D array with a non-empty last axis")
    # The reductions that ndarray.all() and .max() end in, called directly.
    if not np.logical_and.reduce(np.isfinite(s), axis=None):
        raise ValueError("softmax scores must be finite")
    z = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
    return z / np.add.reduce(z, axis=-1, keepdims=True)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis of a 1-D or 2-D
    array, in descending score order.

    Ties resolve to the lower index first, so the selection is
    deterministic regardless of platform.
    """
    s = np.asarray(scores, dtype=np.float64)
    if not 1 <= s.ndim <= 2:
        raise ValueError("top_k_indices expects a 1-D or 2-D array")
    if not 1 <= k <= s.shape[-1]:
        raise ValueError(f"k must be in [1, {s.shape[-1]}], got {k}")
    # Stable sort on the negated scores keeps equal scores in index order.
    return (-s).argsort(axis=-1, kind="stable")[..., :k]


def pairwise_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, k) for (n, d) x (k, d) inputs.

    Computed from explicit differences rather than the expanded dot-product
    form, so an entry is exactly 0.0 when a point equals a center.  The
    points are repeated once per center and the centers subtracted in place:
    the same subtractions into the same (n, k, d) layout as a broadcast
    difference, so the same bits, without the broadcast's slower loop.
    """
    p = np.asarray(points, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    if p.ndim < 2 or c.ndim < 2:
        p, c = np.atleast_2d(p, c)
    if p.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {p.shape[1]} vs {c.shape[1]}")
    diff = p[:, None, :].repeat(c.shape[0], axis=1)
    diff -= c
    return c_einsum("nkd,nkd->nk", diff, diff)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed; same seed, same stream."""
    return np.random.default_rng(_U64(seed & 0xFFFFFFFFFFFFFFFF))


def derive_seed(root: int, purpose: str) -> int:
    """Stable 64-bit sub-seed for (root, purpose), independent of platform.

    Hashing keeps sub-streams for different purposes (scene synthesis,
    detection, benchmarks) decorrelated even for adjacent root seeds.
    """
    digest = hashlib.sha256(f"{root}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def draw_seed(rng: np.random.Generator) -> int:
    """One 64-bit seed drawn from an existing generator."""
    return int(rng.integers(0, 2**64, dtype=_U64))


def central_differences(f: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function ``f`` at ``x``.

    Each entry of ``x`` (a C-contiguous float array) is set in place, in C
    order, to its value plus ``h`` and minus ``h``, with ``f(x)`` evaluated
    at both, and then restored, so ``x`` ends as it started.
    """
    flat = x.reshape(-1, copy=False)
    g = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * h)
    return g.reshape(x.shape)


def _first_draw(seed: int) -> int:
    """``draw_seed(make_rng(seed))`` from one bit generator and no
    Generator: a draw over the whole uint64 range is the bit generator's
    next raw output."""
    return int(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF).random_raw())
