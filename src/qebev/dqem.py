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
from .numerics import pairwise_sq_dist, softmax, top_k_indices

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
    "attention_scores",
    "aggregate_over_centers",
    "blend_and_rescale",
    "diversity_loss",
    "diversity_loss_grad",
    "fit_projections",
    "extract_detections",
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
    if grid_nx < 1 or grid_ny < 1:
        raise ValueError("grid dimensions must be at least 1")
    if not bounds > 0 or not math.isfinite(bounds):
        raise ValueError(f"bounds must be positive and finite, got {bounds}")
    lo, hi = -float(bounds), float(bounds)
    grid = np.tile(_PILLAR_PRIOR, (grid_ny * grid_nx, 1))
    grid[:, 0] = np.tile(lo + (np.arange(grid_nx) + 0.5) * (hi - lo) / grid_nx, grid_ny)
    grid[:, 1] = np.repeat(lo + (np.arange(grid_ny) + 0.5) * (hi - lo) / grid_ny, grid_nx)
    grid.flags.writeable = False
    return grid


# Radii whose square is a normal float.  For them a point that passes the
# squared-distance test lies within radius * (1 + a few ulp) of the center,
# well inside the slack on a window's reach.
_GRID_RADII = (1e-150, 1e150)
_REACH_SLACK = 1.0 + 1e-6
_MAX_CELL = 2**31 - 1
# Offsets from a 3x3 block's lower-left cell to each of its cells.
_BLOCK_DX = np.repeat(np.arange(3), 3)
_BLOCK_DY = np.tile(np.arange(3), 3)


class _CellIndex:
    """Frame points bucketed on a uniform grid of cell size ``radius``.

    The cell-list method for fixed-radius near neighbours (Bentley, Stanat &
    Williams 1977).  Each cell anchors the 3x3 block of cells above and to
    the right of it, and the index keeps every block's points in point
    order, one run per block in order of the block key ``ix * ny + iy``:
    nine 4-byte entries a point, plus a key and a run start per block.
    A cell coordinate is a monotone function of position (floor, then
    clipped to the grid), so the cells between those of ``center - reach``
    and ``center + reach`` hold every point the squared-distance test can
    accept.  That window is at most 3 cells wide unless the center lies
    within the reach slack of a cell edge; wider windows take the blocks
    that tile them.  Non-finite points never pass the test and are left
    out.  A radius outside ``_GRID_RADII`` (or NaN), whose square under- or
    overflows, gets one block holding every point.
    """

    def __init__(self, xy: np.ndarray, radius: float) -> None:
        self.xy = xy
        self.radius = float(radius)
        self.reach = self.radius * _REACH_SLACK
        self.grid = _GRID_RADII[0] < radius < _GRID_RADII[1]
        if not self.grid:
            self.points = np.arange(xy.shape[0], dtype=np.int32)
            return
        idx = np.flatnonzero(np.isfinite(xy).all(axis=1))
        self.origin = xy[idx].min(axis=0).tolist() if idx.size else [0.0, 0.0]
        with np.errstate(over="ignore"):  # an overflow lands in the last cell
            cells = np.floor((xy[idx] - self.origin) / self.radius)
        cells = np.clip(cells, 0, _MAX_CELL).astype(np.int64)
        self.nx, self.ny = (cells.max(axis=0) + 1).tolist() if idx.size else (1, 1)
        # Row p, column b: the block anchored (_BLOCK_DX[b], _BLOCK_DY[b])
        # cells down-left of point p's cell, kept if that cell is on the
        # grid.  Rows run in point order, and the stable sort keeps it.
        inside = (cells[:, :1] >= _BLOCK_DX) & (cells[:, 1:] >= _BLOCK_DY)
        own = cells[:, 0] * self.ny + cells[:, 1]
        keys = (own[:, None] - (_BLOCK_DX * self.ny + _BLOCK_DY))[inside]
        by_block = np.argsort(keys, kind="stable")
        self.points = np.repeat(idx.astype(np.int32), inside.sum(axis=1))[by_block]
        keys = keys[by_block]
        # Block i's points are points[run_starts[i]:run_starts[i + 1]].
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self.block_keys = keys[starts]
        self.run_starts = np.append(starts, keys.size)

    def _cell(self, v: float, axis: int, n: int) -> int:
        t = (v - self.origin[axis]) / self.radius
        return 0 if t < 0.0 else n - 1 if t >= n - 1 else int(t)

    def candidates(self, cx: float, cy: float) -> np.ndarray:
        """Ascending indices of the points in the cells around a center."""
        if not self.grid:
            return self.points
        if not (math.isfinite(cx) and math.isfinite(cy)):
            # Every delta is non-finite, so the test accepts nothing.
            return self.points[:0]
        ax, bx = self._cell(cx - self.reach, 0, self.nx), self._cell(cx + self.reach, 0, self.nx)
        ay, by = self._cell(cy - self.reach, 1, self.ny), self._cell(cy + self.reach, 1, self.ny)
        bounds = []
        for ix in range(ax, bx + 1, 3):
            for iy in range(ay, by + 1, 3):
                key = ix * self.ny + iy
                bounds += (key, key + 1)
        ends = self.run_starts.take(self.block_keys.searchsorted(bounds)).tolist()
        if len(ends) == 2:
            return self.points[ends[0]:ends[1]]
        cand = np.concatenate([self.points[s:e] for s, e in zip(ends[::2], ends[1::2])])
        cand.sort()
        return cand


def gather_neighborhood(frame: Frame, center_xy: np.ndarray, radius: float) -> np.ndarray:
    """Ascending indices of the frame points within ``radius`` of a BEV
    position (inclusive).

    Only the points in the cells around the center are tested, through the
    frame's cell index for this radius (built on first use); the test and the
    order are those of a scan over every point.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = np.asarray(center_xy, dtype=np.float64).reshape(2)
    points = frame.points
    if len(points) == 0:
        return np.zeros(0, dtype=np.int32)
    index = frame.cell_index.get(radius)
    if index is None or index.xy is not points.xy:
        index = frame.cell_index[radius] = _CellIndex(points.xy, radius)
    cand = index.candidates(*c.tolist())
    # take() gathers rows several times faster than fancy indexing.
    delta = points.xy.take(cand, axis=0) - c
    return cand[np.einsum("nd,nd->n", delta, delta) <= radius * radius]


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
        if np.count_nonzero(counts) == k_eff:
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
    if np.count_nonzero(counts) < k_eff:
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
    """Dot-product score of a query against each cluster center.

    The scores are divided by sqrt(d), which keeps softmax weights usable as
    feature width grows.
    """
    qv = np.asarray(q, dtype=np.float64)
    c = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    # Column-major centers make the BLAS sum each dot product in the order of
    # (I @ c.T).T @ (I @ q), the identity-projected product the golden outputs
    # pin.  A row-major c @ q rounds differently and changes detections.
    return np.ascontiguousarray(c.T).T @ qv / math.sqrt(qv.shape[0])


def diversity_loss(scores: np.ndarray) -> float:
    """Entropy of the softmax over all cluster scores, in [0, ln k].

    Maximal when scores are uniform; regularizing toward larger values
    keeps attention from collapsing onto a single cluster.
    """
    p = softmax(scores)
    logp = np.log(np.where(p > 0.0, p, 1.0))
    return float(-(p * logp).sum())


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
    k: int
    top_k: int
    beta: float


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
            feat = frame.points.feat.take(sel, axis=0)
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
        k=params.k,
        top_k=params.top_k,
        beta=params.beta,
    )


def _snapshot_metrics(snap: _Snapshots, w_q: np.ndarray, w_k: np.ndarray) -> tuple[float, float]:
    """(mean decoded-center error, mean attention entropy) over snapshots."""
    s, k, d = snap.centers.shape
    qw = snap.q0 @ w_q.T                                   # (s, d)
    cw = snap.centers @ w_k.T                              # (s, k, d)
    scores = np.einsum("skd,sd->sk", cw, qw) / math.sqrt(d)

    # Entropy over all k scores per snapshot.
    z = scores - scores.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    logp = np.log(np.where(p > 0.0, p, 1.0))
    entropy = float(-(p * logp).sum(axis=1).mean())

    order = np.argsort(-scores, axis=1, kind="stable")[:, : snap.top_k]
    sel_scores = np.take_along_axis(scores, order, axis=1)
    zz = sel_scores - sel_scores.max(axis=1, keepdims=True)
    ezz = np.exp(zz)
    w = ezz / ezz.sum(axis=1, keepdims=True)
    sel_centers = np.take_along_axis(
        snap.centers, order[:, :, None], axis=1
    )                                                      # (s, top_k, d)
    qp = np.einsum("st,std->sd", w, sel_centers)
    u = qp + snap.beta * snap.q0
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
    log is non-increasing.  steps=0 returns the initialization.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    if not diversity_weight >= 0.0:
        raise ValueError("diversity_weight must be non-negative")
    snap = _build_snapshots(frames, params, rng)
    d = snap.q0.shape[1]
    ln_k = math.log(snap.k)

    w_q = np.eye(d) + 0.01 * rng.standard_normal((d, d))
    w_k = np.eye(d) + 0.01 * rng.standard_normal((d, d))

    def objective(wq: np.ndarray, wk: np.ndarray) -> float:
        err, ent = _snapshot_metrics(snap, wq, wk)
        val = err + diversity_weight * (ln_k - ent)
        if not math.isfinite(val):
            raise RuntimeError(
                f"non-finite calibration objective (err={err!r}, entropy={ent!r})"
            )
        return val

    obj = objective(w_q, w_k)
    log = [obj]
    best = (obj, w_q.copy(), w_k.copy())
    h = 1e-5

    for _ in range(steps):
        grads = []
        for w in (w_q, w_k):
            g = np.zeros_like(w)
            for i in range(d):
                for j in range(d):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    hi = objective(w_q, w_k)
                    w[i, j] = orig - h
                    lo = objective(w_q, w_k)
                    w[i, j] = orig
                    g[i, j] = (hi - lo) / (2.0 * h)
            grads.append(g)
        step_lr = lr
        accepted = False
        for _try in range(12):
            wq_new = w_q - step_lr * grads[0]
            wk_new = w_k - step_lr * grads[1]
            obj_new = objective(wq_new, wk_new)
            if obj_new <= obj:
                w_q, w_k, obj = wq_new, wk_new, obj_new
                accepted = True
                break
            step_lr /= 2.0
        if not accepted:
            break
        log.append(obj)
        if obj < best[0]:
            best = (obj, w_q.copy(), w_k.copy())

    _, bq, bk = best
    return FitResult(
        w_q=bq,
        w_k=bk,
        objective_log=log,
        attention_entropy=_snapshot_metrics(snap, bq, bk)[1],
    )


# ---------------------------------------------------------------------------
# Detection records
# ---------------------------------------------------------------------------


@dataclass
class Detection:
    """One detected box; ``velocity`` is the fused estimate when temporal
    fusion produced one, otherwise None (consumers fall back to the box's
    velocity channels)."""

    frame: int
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


def extract_detections(traces: list[EvolutionTrace], frame_index: int = 0) -> list[Detection]:
    """Detections from evolved queries: healthy queries become boxes.

    The confidence is the query's ``score``, the attention concentration of
    its final round; queries flagged empty, degenerate, or background are
    dropped.
    """
    return [
        Detection(frame=frame_index, box=trace.attrs, score=trace.score, query_id=qi)
        for qi, trace in enumerate(traces)
        if not trace.flag
    ]


def dedup_detections(dets: list[Detection], radius: float) -> list[Detection]:
    """Greedy score-ordered suppression of detections within ``radius`` (BEV).

    Radius 0 disables suppression.  Ordering ties break on query id, so the
    result is deterministic.
    """
    if not radius >= 0.0:
        raise ValueError("dedup radius must be non-negative")
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


def _detection(d: dict, frame: int) -> Detection:
    score = _json_number(d["score"], "score")
    if not math.isfinite(score):
        raise ValueError("score is not finite")
    velocity = _json_numbers(d["velocity"], 2, "velocity") if "velocity" in d else None
    query_id = _json_int(d["query_id"], "query_id")
    return Detection(frame, _json_box(d["box"]), score, query_id, velocity)


def _detection_frame(rec: dict, timestamp: float, frames: list[DetectionFrame]) -> DetectionFrame:
    if type(rec.get("fused", False)) is not bool:
        raise ValueError(f"fused must be true or false, got {rec['fused']!r}")
    dets = _json_array(rec["detections"], "detections")
    return DetectionFrame(timestamp, [
        _named("detection", i, _detection, d, len(frames)) for i, d in enumerate(dets)
    ], rec.get("fused"))


def read_detections(path: str) -> list[DetectionFrame]:
    """Parse a detection JSONL file, timestamps strictly rising."""
    return _read_records(path, "detection", _detection_frame)
