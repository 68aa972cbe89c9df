"""Frozen reference k-means: the two-pass version that counts distinct rows
with ``np.unique`` and draws k-means++ candidates with ``rng.choice``.

``qebev.dqem.kmeans`` must match it bit for bit, including how far it
advances the generator.  Do not edit this file to follow changes in
``dqem``; it is the reference those changes are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from qebev.dqem import ClusterSet
from qebev.numerics import make_rng, pairwise_sq_dist


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with greedy local trials (better single-run optima)."""
    n = x.shape[0]
    n_trials = 2 + int(math.log(k)) if k > 1 else 1
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = pairwise_sq_dist(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centers.
            return centers[:j]
        probs = d2 / total
        cand = rng.choice(n, size=min(n_trials, n), p=probs)
        # Keep the candidate that lowers the potential the most.
        cand_d2 = pairwise_sq_dist(x, x[cand])
        pot = np.minimum(d2[:, None], cand_d2).sum(axis=0)
        best = cand[int(np.argmin(pot))]
        centers[j] = x[best]
        d2 = np.minimum(d2, cand_d2[:, int(np.argmin(pot))])
    return centers


def kmeans(
    features: np.ndarray,
    k: int,
    iters: int = 20,
    rng: np.random.Generator | None = None,
    n_init: int = 1,
) -> ClusterSet:
    """Lloyd's algorithm over feature vectors with k-means++ seeding.

    Runs at most ``iters`` update rounds, stopping early once assignments
    stabilize.  A cluster emptied during an update is re-seeded at the point
    farthest from its previous center, which keeps the within-cluster
    objective non-increasing.  When the input has fewer than k distinct
    vectors, only that many clusters come back.  ``n_init`` reruns the whole
    procedure with fresh seedings and keeps the lowest-inertia result; the
    default single run is what the per-neighborhood pipeline budgets for.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("kmeans expects a non-empty (n, d) array")
    if k < 1:
        raise ValueError("k must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if n_init < 1:
        raise ValueError("n_init must be at least 1")
    if rng is None:
        rng = make_rng(0)
    n_distinct = np.unique(x, axis=0).shape[0]
    k_eff = min(k, n_distinct)
    best: ClusterSet | None = None
    for _ in range(n_init):
        run = _kmeans_once(x, k, k_eff, iters, rng)
        if best is None or run.inertia < best.inertia:
            best = run
    return best


def _kmeans_once(
    x: np.ndarray, k: int, k_eff: int, iters: int, rng: np.random.Generator
) -> ClusterSet:
    n = x.shape[0]
    centers = _kmeans_pp_init(x, k_eff, rng)
    k_eff = centers.shape[0]

    trace: list[float] = []
    prev_assign: np.ndarray | None = None
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        d2 = pairwise_sq_dist(x, centers)
        assign = d2.argmin(axis=1)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        counts = np.bincount(assign, minlength=k_eff)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, x)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.flatnonzero(~nonempty):
            far = int(np.argmax(pairwise_sq_dist(x, centers[j : j + 1])[:, 0]))
            new_centers[j] = x[far]
        centers = new_centers
        # Objective after this update: distances to the refreshed centers.
        inertia = float(pairwise_sq_dist(x, centers)[np.arange(n), assign].sum())
        trace.append(inertia)
        prev_assign = assign

    # Compact away clusters left empty by the final assignment.
    counts = np.bincount(assign, minlength=k_eff)
    keep = np.flatnonzero(counts > 0)
    relabel = np.full(k_eff, -1, dtype=np.int64)
    relabel[keep] = np.arange(keep.size)
    assign = relabel[assign]
    centers = centers[keep]
    sizes = counts[keep]
    if not trace:
        trace.append(float(pairwise_sq_dist(x, centers)[np.arange(n), assign].sum()))
    return ClusterSet(
        assignments=assign,
        centers=centers,
        sizes=sizes,
        inertia=trace[-1],
        inertia_trace=tuple(trace),
        requested_k=k,
    )
