"""Dynamic query evolution: cluster a query's neighborhood, attend, refine.

Each BEV query (a "pillar") repeatedly gathers the feature points within a
radius of its current center, k-means-clusters them in feature space, scores
the cluster centers against the query with a scaled dot product, and
rebuilds itself from a softmax-weighted blend of the top-scoring centers.
Decoding the refined query yields updated box geometry, which moves the
pillar for the next round.  This module holds those steps; the loop that
runs them for every query of a frame is ``ltfm.evolve_queries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bevscene import (
    POSITION_SCALE,
    Frame,
    _check_bounds,
    _json_array,
    _json_box,
    _json_int,
    _json_number,
    _json_numbers,
    _named,
    _read_records,
    _write_records,
    encoding_matrix,
)
from .numerics import _check_int, c_einsum, central_differences, pairwise_sq_dist
from .numerics import softmax, top_k_indices

__all__ = [
    "DqemParams",
    "ClusterSet",
    "AttentionResult",
    "EvolutionTrace",
    "FitResult",
    "Detection",
    "DetectionFrame",
    "init_pillars",
    "gather_neighborhood",
    "kmeans",
    "aggregate_over_centers",
    "blend_and_rescale",
    "diversity_loss",
    "diversity_loss_grad",
    "fit_projections",
    "dedup_detections",
    "write_detections",
    "read_detections",
]


@dataclass
class DqemParams:
    """Evolution hyperparameters; defaults are the tuned operating point."""

    k: int = 6
    top_k: int = 4
    beta: float = 0.6
    radius: float = 8.0
    iterations: int = 3
    kmeans_iters: int = 20
    tau_bg: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k", "top_k", "iterations", "kmeans_iters"):
            _check_int(name, getattr(self, name))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 1 <= self.top_k <= self.k:
            raise ValueError("top_k must satisfy 1 <= top_k <= k")
        if not self.beta >= 0.0:
            raise ValueError("beta must be non-negative")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be at least 1")
        if not self.tau_bg >= 0.0:
            raise ValueError("tau_bg must be non-negative")
        if not math.isfinite(self.tau_bg):
            raise ValueError(f"tau_bg must be finite, got {self.tau_bg}")


@dataclass
class ClusterSet:
    """k-means output over one neighborhood's feature vectors.

    Only non-empty clusters are kept: ``centers`` is (k_eff, d) and every
    ``assignments`` entry indexes into it.  ``inertia_trace`` holds the
    objective value after every Lloyd update; its last entry is the final
    inertia.
    """

    assignments: np.ndarray
    centers: np.ndarray
    sizes: np.ndarray
    inertia_trace: tuple[float, ...]

    @property
    def k_eff(self) -> int:
        return self.centers.shape[0]


@dataclass
class AttentionResult:
    """The top-k selected clusters, their weights and the aggregation."""

    selected: np.ndarray
    weights: np.ndarray
    aggregated: np.ndarray


@dataclass
class EvolutionTrace:
    """One evolved query: where it ended up and how it got there.

    ``attrs`` is the last (9,) box row decoded (the start row if none was);
    ``feat`` is the unit query direction (zero for a query flagged before
    its first decode) and ``scale`` restores the raw feature magnitude for
    decoding.
    ``flag`` records degenerate conditions ("" means healthy).
    ``score`` is the largest attention weight of the final round (0.0 when
    no round ran), and ``decoded`` has one entry per refinement stage,
    starting with the plain neighborhood mean (stage 0); None marks a
    background-level decode.
    """

    attrs: np.ndarray
    feat: np.ndarray
    scale: float = 0.0
    flag: str = ""
    score: float = 0.0
    decoded: list[np.ndarray | None] = field(default_factory=list)


@dataclass
class FitResult:
    """Calibrated query/key projections and the descent that found them."""

    w_q: np.ndarray
    w_k: np.ndarray
    objective_log: list[float]
    attention_entropy: float


# Typical passenger-car prior for every pillar; refined by the first decode.
_PILLAR_PRIOR = (0.0, 0.0, 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0)


def init_pillars(grid_nx: int, grid_ny: int, bounds: float) -> np.ndarray:
    """Read-only (grid_nx * grid_ny, 9) start boxes at the centers of a
    regular grid over the square [-B, B]^2, where ``bounds`` is the
    half-extent B; row-major, x fastest."""
    _check_int("grid_nx", grid_nx)
    _check_int("grid_ny", grid_ny)
    if grid_nx < 1 or grid_ny < 1:
        raise ValueError("grid dimensions must be at least 1")
    _check_bounds(bounds)
    # Placed over [-m, m], for bounds = m * 2**e, and scaled by 2**e: over
    # [-bounds, bounds], (i + 0.5) * 2 * bounds overflows near the float
    # maximum, and the power-of-two scale leaves a normal result's bits.
    m, e = math.frexp(bounds)
    xs, ys = (np.ldexp(-m + (np.arange(n) + 0.5) * (2.0 * m) / n, e) for n in (grid_nx, grid_ny))
    grid = np.tile(_PILLAR_PRIOR, (grid_ny * grid_nx, 1))
    grid[:, 0] = np.tile(xs, grid_ny)
    grid[:, 1] = np.repeat(ys, grid_nx)
    grid.flags.writeable = False
    return grid


# Radii whose square is a normal float.  For them a point that passes the
# squared-distance test lies within radius * (1 + a few ulp) of the center,
# well inside the slack on the strip's reach.
_GRID_RADII = (1e-150, 1e150)
_REACH_SLACK = 1.0 + 1e-6


def gather_neighborhood(frame: Frame, center_xy: np.ndarray, radius: float) -> np.ndarray:
    """Ascending indices of the frame points within ``radius`` of a BEV
    position (inclusive).

    Only the points whose x lies within the radius (and a slack) of the
    center's are tested: two binary searches find them in the frame's
    finite points sorted by x, an order built on first use and shared by
    every radius.  The test and the order are those of a scan over every
    point.  A radius outside ``_GRID_RADII`` (or NaN), whose square under-
    or overflows, tests every point.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = np.asarray(center_xy, dtype=np.float64).reshape(2)
    cx, cy = c.tolist()
    xy = frame.xy
    if len(xy) == 0:
        return np.zeros(0, dtype=np.int32)
    if not _GRID_RADII[0] < radius < _GRID_RADII[1]:
        cand = np.arange(len(xy), dtype=np.int32)
    elif not (math.isfinite(cx) and math.isfinite(cy)):
        # Every delta is non-finite, so the test accepts nothing.
        return np.zeros(0, dtype=np.int32)
    else:
        if frame.x_order is None or frame.x_order[0] is not xy:
            finite = np.flatnonzero(np.isfinite(xy).all(axis=1)).astype(np.int32)
            by_x = finite[np.argsort(xy[finite, 0], kind="stable")]
            frame.x_order = (xy, by_x, xy[by_x, 0])
        _, by_x, xs = frame.x_order
        reach = radius * _REACH_SLACK
        lo = xs.searchsorted(cx - reach, side="left")
        hi = xs.searchsorted(cx + reach, side="right")
        # np.sort's copy, sorted in place.
        cand = by_x[lo:hi].copy()
        cand.sort()
    # take() gathers rows several times faster than fancy indexing.
    delta = xy.take(cand, axis=0) - c
    return cand[c_einsum("nd,nd->n", delta, delta) <= radius * radius]


def _kmeans_pp_draws(k: int, n: int) -> int:
    """Candidates drawn per k-means++ step: 2 + ln k greedy local trials."""
    return min(2 + int(math.log(k)), n) if k > 1 else 1


def _kmeans_pp_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding with greedy local trials (better single-run optima).

    Returns the centers and their (n, found) squared-distance columns, the
    distances Lloyd's first pass needs.  Stops early, returning fewer
    than ``k`` centers, once every point coincides with a chosen center.
    The trial count then follows the number of centers actually found: if
    it differs from the one for ``k``, the generator is rewound and the
    seeding redone with that count, so the generator always ends where
    seeding for the found count leaves it.
    """
    n = x.shape[0]
    start = rng.bit_generator.state
    while True:
        centers, d2 = _kmeans_pp_pass(x, k, rng)
        found = centers.shape[0]
        if _kmeans_pp_draws(found, n) == _kmeans_pp_draws(k, n):
            return centers, d2
        rng.bit_generator.state = start
        k = found


def _kmeans_pp_pass(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[0]
    n_draws = _kmeans_pp_draws(k, n)
    picked = [int(rng.integers(n))]
    # Row j: the squared distances to center j, as pairwise_sq_dist(x,
    # centers) computes its column j.
    cols = np.empty((k, n))
    cols[0] = pairwise_sq_dist(x, x.take(picked, axis=0))[:, 0]
    d2 = cols[0].copy()
    pot = np.empty((n, n_draws))
    for j in range(1, k):
        total = np.add.reduce(d2)
        if total <= 0.0:
            # All remaining points coincide with chosen centers.
            break
        if not math.isfinite(total):
            raise ValueError("k-means++ potential is not finite (non-finite or overflowing features)")
        # rng.choice(n, n_draws, p=d2 / total), as numpy computes it.
        cdf = np.divide(d2, total)
        cdf.cumsum(out=cdf)
        cdf /= cdf[-1]
        cand = cdf.searchsorted(rng.random(n_draws), side="right")
        # Keep the candidate that lowers the potential the most.
        raw = pairwise_sq_dist(x, x.take(cand, axis=0))
        np.minimum(d2[:, None], raw, out=pot)
        best = int(np.add.reduce(pot, axis=0).argmin())
        picked.append(int(cand[best]))
        cols[j] = raw[:, best]
        np.minimum(d2, cols[j], out=d2)
    return x.take(picked, axis=0), cols[: len(picked)].T


def kmeans(
    features: np.ndarray,
    k: int,
    iters: int,
    rng: np.random.Generator,
    init: np.ndarray | None = None,
) -> ClusterSet:
    """Lloyd's algorithm over feature vectors with k-means++ seeding.

    Runs at most ``iters`` update rounds, stopping early once assignments
    stabilize.  A cluster emptied during an update is re-seeded at the point
    farthest from its previous center, which keeps the within-cluster
    objective non-increasing.  When the input has fewer than k distinct
    vectors, only that many clusters come back.  One run draws its seeding
    from ``rng``; restarts are successive calls on the same generator.

    Given ``init`` centers, Lloyd starts from them instead: nothing is
    drawn from ``rng``, and ``k`` is only echoed.  Started from the centers
    of a run on the same rows that stopped before its cap, Lloyd rebuilds
    those centers in one update and stops, so every field but
    ``inertia_trace`` (now one entry) equals that run's bit for bit.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("kmeans expects a non-empty (n, d) array")
    if k < 1:
        raise ValueError("k must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    n, d = x.shape
    # Distances to the current centers: the seeding's for the first pass;
    # after that, the pass that scores an update also gives the next round
    # its assignment distances.
    if init is None:
        centers, d2 = _kmeans_pp_init(x, k, rng)
    else:
        centers = np.asarray(init, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValueError("init must be a non-empty (k, d) array")
        d2 = pairwise_sq_dist(x, centers)
    k_eff = centers.shape[0]
    flat_x = x.ravel()
    # bins[c, j]: the bin of column j of cluster c in the per-cluster sums;
    # row_starts[i]: the flat position in d2 of row i, column 0.
    bins = np.arange(k_eff * d).reshape(k_eff, d)
    row_starts = np.arange(0, n * k_eff, k_eff)

    trace: list[float] = []
    prev_assign = b""
    for _ in range(iters):
        assign = d2.argmin(axis=1)
        # Equal int64 bytes are equal assignments.
        assign_bytes = assign.tobytes()
        if assign_bytes == prev_assign:
            break
        counts = np.bincount(assign, minlength=k_eff)
        # Per-cluster feature sums: one bincount over (cluster, column) bins
        # adds each cluster's rows in point order from +0.0, as np.add.at does.
        sums = np.bincount(
            bins.take(assign, axis=0).ravel(), weights=flat_x, minlength=k_eff * d
        ).reshape(k_eff, d)
        # Every cluster non-empty; np.count_nonzero(counts) == k_eff.
        if np.logical_and.reduce(counts):
            centers = sums / counts[:, None]
        else:
            nonempty = counts > 0
            centers = centers.copy()
            centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            for j in np.flatnonzero(~nonempty):
                centers[j] = x[int(np.argmax(d2[:, j]))]
        d2 = pairwise_sq_dist(x, centers)
        trace.append(float(np.add.reduce(d2.take(row_starts + assign))))
        prev_assign = assign_bytes

    # Compact away clusters left empty by the final assignment, whose
    # counts are the last ones taken (a break repeats that assignment).
    if not np.logical_and.reduce(counts):
        keep = np.flatnonzero(counts)
        relabel = np.full(k_eff, -1, dtype=np.int64)
        relabel[keep] = np.arange(keep.size)
        assign, centers, counts = relabel[assign], centers[keep], counts[keep]
    return ClusterSet(
        assignments=assign,
        centers=centers,
        sizes=counts,
        inertia_trace=tuple(trace),
    )


def attention_scores(q: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Dot-product score of a (d,) query against each row of (k, d) centers.

    The scores are divided by sqrt(d), which keeps softmax weights usable as
    feature width grows.
    """
    qv = np.asarray(q, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    # Column-major centers make the BLAS sum each dot product in the order of
    # (I @ c.T).T @ (I @ q), the identity-projected product the golden outputs
    # pin.  A row-major c @ q rounds differently and changes detections.
    return np.ascontiguousarray(c.T).T @ qv / math.sqrt(qv.shape[0])


def diversity_loss(scores: np.ndarray) -> float | np.ndarray:
    """Entropy of the softmax over all cluster scores, in [0, ln k]: a
    float for a 1-D array, one entropy per row for a 2-D one.

    Maximal when scores are uniform; regularizing toward larger values
    keeps attention from collapsing onto a single cluster.
    """
    p = softmax(scores)
    logp = np.log(np.where(p > 0.0, p, 1.0))
    entropy = -(p * logp).sum(axis=-1)
    return float(entropy) if p.ndim == 1 else entropy


def diversity_loss_grad(scores: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`diversity_loss` w.r.t. the scores.

    With p = softmax(s) and m = sum_k p_k s_k the gradient is
    -p_j (s_j - m); entries sum to zero.
    """
    s = np.asarray(scores, dtype=np.float64)
    p = softmax(s)
    m = float(p @ s)
    return -p * (s - m)


def aggregate_over_centers(q: np.ndarray, centers: np.ndarray, top_k: int) -> AttentionResult:
    """Score arbitrary centers and blend the top-k into a refined query.

    The weights are a softmax over the selected scores only, so they sum to
    1.  Zero centers leave the query untouched, with nothing selected.
    """
    qv = np.asarray(q, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64).reshape(-1, qv.shape[0])
    if c.shape[0] == 0:
        return AttentionResult(
            selected=np.zeros(0, dtype=np.int64),
            weights=np.zeros(0),
            aggregated=qv.copy(),
        )
    scores = attention_scores(qv, c)
    selected = top_k_indices(scores, min(top_k, c.shape[0]))
    weights = softmax(scores.take(selected))
    aggregated = weights @ c.take(selected, axis=0)
    return AttentionResult(selected=selected, weights=weights, aggregated=aggregated)


def blend_and_rescale(
    q: np.ndarray,
    scale: float,
    result: AttentionResult,
    centers: np.ndarray,
    beta: float,
    sizes: np.ndarray,
) -> tuple[np.ndarray, float, str]:
    """One query update: blend the aggregate into the query, re-normalize.

    The unit direction carries the query forward; the decode magnitude is
    re-anchored to the selected cluster centers' norms, weighted by cluster
    population ``sizes``.  Center norms track the raw feature scale, unlike
    the softmax-diluted blend norm.  A blend whose norm overflows is refused.
    """
    qp = result.aggregated
    with np.errstate(over="ignore", invalid="ignore"):
        u = qp + beta * q
        # Vector 2-norms computed as np.linalg.norm computes them.
        nu = math.sqrt(u.dot(u))
    if not math.isfinite(nu):
        raise ValueError("blend norm is not finite (overflowing features or beta)")
    if nu == 0.0:
        return q, scale, "degenerate-zero-blend"
    q_new = u / nu
    selected = result.selected
    if selected.size:
        c = centers.take(selected, axis=0)
        norms = np.sqrt(np.add.reduce(c * c, axis=1))
        w = np.asarray(sizes, dtype=np.float64).take(selected)
        tot = float(np.add.reduce(w))
        anchor = float(w @ norms / tot) if tot > 0.0 else 0.0
        if anchor > 0.0:
            return q_new, anchor, ""
    npq = math.sqrt(qp.dot(qp))
    return q_new, (npq if npq > 0.0 else scale), ""


# ---------------------------------------------------------------------------
# Projection calibration
# ---------------------------------------------------------------------------


@dataclass
class _Snapshots:
    """Frozen per-query quantities the calibration objective reuses.

    Clustering and neighborhood gathering do not depend on the projections,
    so they are done once; only scoring, aggregation and decoding are
    re-evaluated per candidate (w_q, w_k).
    """

    q0: np.ndarray        # (s, d) unit initial queries
    centers: np.ndarray   # (s, k, d) cluster centers
    sizes: np.ndarray     # (s, k) cluster populations
    decode_t: np.ndarray  # (s, 9, d) transposed encoding matrices
    gt_xy: np.ndarray     # (s, 2)


def _build_snapshots(
    frames: list[Frame],
    params: DqemParams,
    rng: np.random.Generator,
) -> _Snapshots:
    q0_l, cen_l, size_l, dec_l, gt_l = [], [], [], [], []
    for frame in frames:
        e_t = encoding_matrix(frame.encoder_seed, frame.d).T
        for box in frame.boxes:
            offset = rng.uniform(-2.0, 2.0, size=2)
            sel = gather_neighborhood(frame, box[:2] + offset, params.radius)
            if len(sel) == 0:
                continue
            feat = frame.feat.take(sel, axis=0)
            mean = feat.mean(axis=0)
            n0 = float(np.linalg.norm(mean))
            if n0 == 0.0:
                continue
            clusters = kmeans(feat, params.k, params.kmeans_iters, rng)
            if clusters.k_eff != params.k:
                # Uniform cluster count keeps the objective vectorizable.
                continue
            q0_l.append(mean / n0)
            cen_l.append(clusters.centers)
            size_l.append(clusters.sizes)
            dec_l.append(e_t)
            gt_l.append(box[:2])
    if not q0_l:
        raise ValueError("calibration suite produced no usable neighborhoods")
    return _Snapshots(
        q0=np.stack(q0_l),
        centers=np.stack(cen_l),
        sizes=np.stack(size_l),
        decode_t=np.stack(dec_l),
        gt_xy=np.stack(gt_l),
    )


def _snapshot_metrics(
    snap: _Snapshots, params: DqemParams, w_q: np.ndarray, w_k: np.ndarray
) -> tuple[float, float]:
    """(mean decoded-center error, mean attention entropy) over snapshots."""
    d = snap.centers.shape[2]
    qw = snap.q0 @ w_q.T                                   # (s, d)
    cw = snap.centers @ w_k.T                              # (s, k, d)
    scores = np.einsum("skd,sd->sk", cw, qw) / math.sqrt(d)
    # Entropy over all k scores per snapshot.
    entropy = float(diversity_loss(scores).mean())

    order = top_k_indices(scores, params.top_k)            # (s, top_k)
    w = softmax(np.take_along_axis(scores, order, axis=1))
    sel_centers = np.take_along_axis(
        snap.centers, order[:, :, None], axis=1
    )                                                      # (s, top_k, d)
    qp = np.einsum("st,std->sd", w, sel_centers)
    u = qp + params.beta * snap.q0
    nu = np.linalg.norm(u, axis=1, keepdims=True)
    nu = np.where(nu > 0.0, nu, 1.0)
    q1 = u / nu
    sel_sizes = np.take_along_axis(snap.sizes, order, axis=1).astype(np.float64)
    sel_norms = np.linalg.norm(sel_centers, axis=2)
    anchor = ((sel_sizes * sel_norms).sum(axis=1) / sel_sizes.sum(axis=1))[:, None]
    channels = np.einsum("snd,sd->sn", snap.decode_t, q1 * anchor)
    xy = channels[:, :2] * POSITION_SCALE
    err = float(np.linalg.norm(xy - snap.gt_xy, axis=1).mean())
    return err, entropy


def fit_projections(
    frames: list[Frame],
    params: DqemParams,
    rng: np.random.Generator,
    steps: int = 25,
    lr: float = 0.05,
    diversity_weight: float = 0.1,
) -> FitResult:
    """Calibrate (w_q, w_k) by finite-difference descent on a frozen suite.

    The objective is the mean decoded-center error plus ``diversity_weight``
    times the attention-entropy deficit (ln k minus mean entropy), so a
    positive weight pushes toward balanced attention.  Gradients come from
    central differences over every matrix entry; steps that fail to improve
    the objective are retried with a halved rate, so the accepted-objective
    log is non-increasing and the last accepted step is returned.  steps=0
    returns the initialization.
    """
    _check_int("steps", steps)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not (lr > 0.0 and math.isfinite(lr)):
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not diversity_weight >= 0.0:
        raise ValueError("diversity_weight must be non-negative")
    snap = _build_snapshots(frames, params, rng)
    d = snap.q0.shape[1]
    ln_k = math.log(params.k)

    # w[0] is w_q and w[1] is w_k, each drawn as (d, d).
    w = np.stack([np.eye(d) + 0.01 * rng.standard_normal((d, d)) for _ in range(2)])

    def objective(wqk: np.ndarray) -> float:
        err, ent = _snapshot_metrics(snap, params, wqk[0], wqk[1])
        val = err + diversity_weight * (ln_k - ent)
        if not math.isfinite(val):
            raise RuntimeError(
                f"non-finite calibration objective (err={err!r}, entropy={ent!r})"
            )
        return val

    obj = objective(w)
    log = [obj]
    for _ in range(steps):
        grad = central_differences(objective, w, 1e-5)
        step_lr = lr
        for _try in range(12):
            w_new = w - step_lr * grad
            obj_new = objective(w_new)
            if obj_new <= obj:
                w, obj = w_new, obj_new
                break
            step_lr /= 2.0
        else:
            break
        log.append(obj)

    return FitResult(
        w_q=w[0],
        w_k=w[1],
        objective_log=log,
        attention_entropy=_snapshot_metrics(snap, params, w[0], w[1])[1],
    )


# ---------------------------------------------------------------------------
# Detection records
# ---------------------------------------------------------------------------


@dataclass
class Detection:
    """One detected box; ``velocity`` is the fused estimate when temporal
    fusion produced one, otherwise None (consumers fall back to the box's
    velocity channels).  Its frame is the list that holds it."""

    box: np.ndarray
    score: float
    query_id: int
    velocity: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float64).reshape(9)
        if self.velocity is not None:
            self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(2)


@dataclass
class DetectionFrame:
    timestamp: float
    detections: list[Detection]
    fused: bool | None = None


def _check_dedup_radius(radius: float) -> None:
    """dedup_detections' rule, which the CLI checks before a run."""
    if not radius >= 0.0:
        raise ValueError("dedup radius must be non-negative")


def dedup_detections(dets: list[Detection], radius: float) -> list[Detection]:
    """Greedy score-ordered suppression of detections within ``radius`` (BEV).

    Radius 0 disables suppression.  Ordering ties break on query id, so the
    result is deterministic.
    """
    _check_dedup_radius(radius)
    if radius == 0.0 or len(dets) <= 1:
        return list(dets)
    order = sorted(dets, key=lambda d: (-d.score, d.query_id))
    kept: list[Detection] = []
    kept_xy = np.empty((len(order), 2))
    for det in order:
        c = det.box[:2]
        gaps = c - kept_xy[: len(kept)]
        if (np.hypot(gaps[:, 0], gaps[:, 1]) > radius).all():
            kept_xy[len(kept)] = c
            kept.append(det)
    kept.sort(key=lambda d: d.query_id)
    return kept


def write_detections(path: str, frames: list[DetectionFrame], params_echo: dict) -> None:
    """Detection JSONL: one frame per line with the run parameters echoed."""
    echo = {"iterations": int(params_echo.get("iterations", 0)), "params": params_echo}
    _write_records((
        {
            "timestamp": frame.timestamp,
            "detections": [
                {
                    "box": det.box.tolist(),
                    "score": det.score,
                    "query_id": det.query_id,
                    **({"velocity": det.velocity.tolist()} if det.velocity is not None else {}),
                }
                for det in frame.detections
            ],
            **echo,
            **({"fused": frame.fused} if frame.fused is not None else {}),
        }
        for frame in frames
    ), path)


def _detection(d: dict) -> Detection:
    score = _json_number(d["score"], "score")
    if not math.isfinite(score):
        raise ValueError("score is not finite")
    velocity = _json_numbers(d["velocity"], 2, "velocity") if "velocity" in d else None
    query_id = _json_int(d["query_id"], "query_id")
    return Detection(_json_box(d["box"]), score, query_id, velocity)


def _detection_frame(rec: dict, timestamp: float, frames: list[DetectionFrame]) -> DetectionFrame:
    if type(rec.get("fused", False)) is not bool:
        raise ValueError(f"fused must be true or false, got {rec['fused']!r}")
    dets = _json_array(rec["detections"], "detections")
    return DetectionFrame(timestamp, [
        _named("detection", i, _detection, d) for i, d in enumerate(dets)
    ], rec.get("fused"))


def read_detections(path: str) -> list[DetectionFrame]:
    """Parse a detection JSONL file, timestamps strictly rising."""
    return _read_records(path, "detection", _detection_frame)
