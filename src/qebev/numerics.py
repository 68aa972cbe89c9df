"""Deterministic numeric kernels shared by every stage of the pipeline.

All randomness in the package flows through generators built here, so a
single root seed reproduces a whole run bit for bit.
"""

from __future__ import annotations

import hashlib

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
]

_U64 = np.uint64


def softmax(scores: np.ndarray) -> np.ndarray:
    """Stable softmax of a non-empty 1-D score array."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("softmax expects a non-empty 1-D array")
    # The reductions that ndarray.all() and .max() end in, called directly.
    if not np.logical_and.reduce(np.isfinite(s)):
        raise ValueError("softmax scores must be finite")
    z = np.exp(s - np.maximum.reduce(s))
    return z / np.add.reduce(z)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, in descending score order.

    Ties resolve to the lower index first, so the selection is
    deterministic regardless of platform.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("top_k_indices expects a 1-D array")
    if not 1 <= k <= s.size:
        raise ValueError(f"k must be in [1, {s.size}], got {k}")
    # Stable sort on the negated scores keeps equal scores in index order.
    return (-s).argsort(kind="stable")[:k]


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


def _first_draw(seed: int) -> int:
    """``draw_seed(make_rng(seed))`` from one bit generator and no
    Generator: a draw over the whole uint64 range is the bit generator's
    next raw output."""
    return int(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF).random_raw())
