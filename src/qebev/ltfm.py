"""Lightweight temporal fusion across a frame sequence.

Queries evolved on one frame inform the next fused frame three ways: the
previous query direction is blended into the fresh one, the previous
frame's cluster centers are pooled with the current ones for attention (no
re-clustering), and decoded positions are differenced for a motion-based
velocity estimate that is averaged with the decoded velocity channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bevscene import BoxAttributes, SceneSequence, decode_feature
from .dqem import (
    AttentionResult,
    ClusterSet,
    Detection,
    DqemParams,
    EvolutionTrace,
    Pillar,
    ProjectionPair,
    QuerySet,
    _NON_FINITE_MEAN,
    aggregate_over_centers,
    aggregate_top_k,
    blend_and_rescale,
    extract_detections,
    gather_neighborhood,
    init_pillars,
    initial_aggregate,
    kmeans,
)
from .numerics import derive_seed, draw_seed, make_rng

__all__ = [
    "TemporalParams",
    "TemporalState",
    "FrameResult",
    "SequenceResult",
    "temporal_init",
    "temporal_aggregate",
    "temporal_update",
    "run_sequence",
]


@dataclass
class TemporalParams:
    """Fusion knobs: blend weight, stride between fused frames, window size."""

    alpha: float = 0.4
    beta: float = 0.6
    stride: int = 2
    t_window: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.beta < 0.0:
            raise ValueError("beta must be non-negative")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.t_window < 1:
            raise ValueError("t_window must be at least 1")


@dataclass
class TemporalState:
    """What one frame hands to the next: evolved queries and their final
    cluster sets (None for queries that never clustered)."""

    queries: QuerySet
    clusters: list[ClusterSet | None]
    frame_index: int


@dataclass
class FrameResult:
    index: int
    timestamp: float
    fused: bool
    queries: QuerySet
    traces: list[EvolutionTrace]
    detections: list[Detection] = field(default_factory=list)


@dataclass
class SequenceResult:
    frames: list[FrameResult]
    interval: float

    def all_detections(self) -> list[Detection]:
        return [d for fr in self.frames for d in fr.detections]


def temporal_init(q_cur: np.ndarray, q_prev: np.ndarray, alpha: float = 0.4) -> np.ndarray:
    """Blend the current query with the previous frame's: a*cur + (1-a)*prev."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    qc = np.asarray(q_cur, dtype=np.float64)
    qp = np.asarray(q_prev, dtype=np.float64)
    if qc.shape != qp.shape:
        raise ValueError("query shapes must agree")
    return alpha * qc + (1.0 - alpha) * qp


def temporal_aggregate(
    q: np.ndarray,
    clusters_cur: ClusterSet | None,
    clusters_prev: ClusterSet | None,
    proj: ProjectionPair,
    top_k: int,
    scale_scores: bool = True,
    softmax_domain: str = "selected",
) -> AttentionResult:
    """Top-k attention over the pooled current and previous cluster centers.

    Re-uses already computed centers instead of re-clustering; with no
    previous clusters this is exactly the single-frame aggregation.
    """
    parts = []
    for cs in (clusters_cur, clusters_prev):
        if cs is not None and cs.k_eff > 0:
            parts.append(cs.centers)
    d = np.asarray(q).shape[0]
    pooled = np.concatenate(parts) if parts else np.zeros((0, d))
    return aggregate_over_centers(
        q, pooled, proj, top_k, scale_scores=scale_scores, softmax_domain=softmax_domain
    )


def temporal_update(q: np.ndarray, q_prime: np.ndarray, beta: float = 0.6) -> np.ndarray:
    """Blend the aggregate into the query and re-normalize to unit length.

    Mirrors the per-round update of single-frame evolution; a zero-norm
    blend returns the query unchanged.
    """
    u = np.asarray(q_prime, dtype=np.float64) + beta * np.asarray(q, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        return np.array(q, dtype=np.float64, copy=True)
    return u / nu


def _pooled_centers(
    clusters_cur: ClusterSet, clusters_prev: ClusterSet | None
) -> tuple[np.ndarray, np.ndarray]:
    if clusters_prev is not None and clusters_prev.k_eff > 0:
        return (
            np.concatenate([clusters_cur.centers, clusters_prev.centers]),
            np.concatenate([clusters_cur.sizes, clusters_prev.sizes]),
        )
    return clusters_cur.centers, clusters_cur.sizes


def _evolve_single(
    pillar: Pillar,
    frame,
    params: DqemParams,
    proj: ProjectionPair,
    qrng: np.random.Generator,
    tparams: TemporalParams | None,
    q_prev: np.ndarray | None,
    clusters_prev: ClusterSet | None,
) -> tuple[Pillar, EvolutionTrace, ClusterSet | None]:
    """One query against one frame, optionally fusing the previous state.

    Matches single-frame evolution exactly when no previous state is given.
    On a fused frame the first round aggregates over the pooled current and
    previous centers; later rounds are plain.  The k-means call count is the
    same either way.
    """
    trace = EvolutionTrace()
    attrs = pillar.attrs
    pts = gather_neighborhood(frame, attrs.center(), params.radius)
    if len(pts) == 0:
        trace.flag = "empty"
        return replace(pillar, flag="empty"), trace, None

    with np.errstate(over="ignore", invalid="ignore"):
        mean = initial_aggregate(pts.feat)
        norm0 = float(np.linalg.norm(mean))
    if not math.isfinite(norm0):
        raise ValueError(_NON_FINITE_MEAN)
    if norm0 == 0.0:
        trace.flag = "degenerate-zero-mean"
        return replace(pillar, flag=trace.flag), trace, None
    q = mean / norm0
    scale = norm0
    fuse = tparams is not None and q_prev is not None
    if fuse:
        blended = temporal_init(q, q_prev, tparams.alpha)
        nb = float(np.linalg.norm(blended))
        if nb > 0.0:
            q = blended / nb
    dec = decode_feature(q * scale, frame.encoder_seed, params.tau_bg)
    trace.decoded.append(dec)
    if dec is not None:
        attrs = dec

    clusters: ClusterSet | None = None
    # Same per-query clustering seed every round, as in single-frame
    # evolution, so rounds refine against consistent partitions.
    kseed = draw_seed(qrng)
    for it in range(params.iterations):
        if params.regather and it > 0:
            pts = gather_neighborhood(frame, attrs.center(), params.radius)
            if len(pts) == 0:
                trace.flag = "empty-regather"
                break
        clusters = kmeans(pts.feat, params.k, params.kmeans_iters, make_rng(kseed))
        if fuse and it == 0:
            result = temporal_aggregate(
                q, clusters, clusters_prev, proj, params.top_k,
                scale_scores=params.scale_scores,
                softmax_domain=params.softmax_domain,
            )
            anchor, anchor_sizes = _pooled_centers(clusters, clusters_prev)
        else:
            result = aggregate_top_k(
                q, clusters, proj, params.top_k,
                scale_scores=params.scale_scores,
                softmax_domain=params.softmax_domain,
            )
            anchor, anchor_sizes = clusters.centers, clusters.sizes
        trace.attention.append(result)
        q, scale, flag = blend_and_rescale(
            q, scale, result, anchor, params.beta, sizes=anchor_sizes
        )
        if flag:
            trace.flag = flag
        dec = decode_feature(q * scale, frame.encoder_seed, params.tau_bg)
        trace.decoded.append(dec)
        if dec is not None:
            attrs = dec
    if not trace.flag and trace.decoded and trace.decoded[-1] is None:
        trace.flag = "background"
    return Pillar(attrs=attrs, feat=q, feat_scale=scale, flag=trace.flag), trace, clusters


def run_sequence(
    seq: SceneSequence,
    params: DqemParams,
    tparams: TemporalParams | None,
    proj: ProjectionPair,
    rng: np.random.Generator,
    grid_nx: int = 10,
    grid_ny: int = 10,
    bounds: float | tuple[float, float, float, float] = 50.0,
    template: BoxAttributes | None = None,
) -> SequenceResult:
    """Detect over every frame of a sequence, fusing per the stride.

    Frame 0 always runs plain evolution.  With ``tparams`` set, frames at
    multiples of the stride blend in the previous frame's queries and
    clusters, and their detections carry a velocity estimate that averages
    the decoded velocity channels with the decoded position delta over the
    stride.  With ``tparams`` None every frame is independent.

    Each frame's randomness derives from one base seed and the frame index,
    so with- and without-fusion runs see identical per-frame streams.
    """
    base_seed = draw_seed(rng)
    results: list[FrameResult] = []
    state: TemporalState | None = None

    for t, frame in enumerate(seq.frames):
        frame_rng = make_rng(derive_seed(base_seed, f"frame:{t}"))
        pillars = init_pillars(grid_nx, grid_ny, bounds, template)
        fused = tparams is not None and state is not None and t % tparams.stride == 0
        per_query_seed = draw_seed(frame_rng)
        out_pillars: list[Pillar] = []
        traces: list[EvolutionTrace] = []
        frame_clusters: list[ClusterSet | None] = []
        for qi, pillar in enumerate(pillars.pillars):
            qrng = make_rng(per_query_seed ^ qi)
            if fused:
                prev_pillar = state.queries.pillars[qi]
                q_prev = prev_pillar.feat if prev_pillar.feat.size and not prev_pillar.flag else None
                c_prev = state.clusters[qi]
            else:
                q_prev, c_prev = None, None
            new_pillar, trace, clusters = _evolve_single(
                pillar, frame, params, proj, qrng,
                tparams if fused else None, q_prev, c_prev,
            )
            out_pillars.append(new_pillar)
            traces.append(trace)
            frame_clusters.append(clusters)
        queries = QuerySet(out_pillars)

        detections = extract_detections(queries, traces, frame_index=t)
        if tparams is not None:
            prev_dets = (
                results[t - tparams.stride].detections
                if fused and t - tparams.stride >= 0
                else []
            )
            detections = [
                replace(
                    det,
                    velocity=_velocity_estimate(
                        det, prev_dets, tparams.stride, seq.interval
                    ),
                )
                for det in detections
            ]
        results.append(
            FrameResult(
                index=t,
                timestamp=frame.timestamp,
                fused=fused,
                queries=queries,
                traces=traces,
                detections=detections,
            )
        )
        state = TemporalState(queries=queries, clusters=frame_clusters, frame_index=t)
    return SequenceResult(frames=results, interval=seq.interval)


# Largest accepted gap between a backward-predicted position and the
# nearest earlier detection; beyond it the track is considered broken.
BACKTRACK_GATE = 3.0


def _velocity_estimate(
    det: Detection,
    prev_dets: list[Detection],
    stride: int,
    interval: float,
    gate: float = BACKTRACK_GATE,
) -> np.ndarray:
    """Average the decoded velocity channels with a track position delta.

    The detection is projected back by its channel velocity over the
    stride; the nearest earlier detection within the gate is taken as the
    same physical track.  Grid queries alone cannot serve as tracks since
    an object crossing cells changes which query sees it.  With no earlier
    detection inside the gate the decoded channels stand alone.
    """
    v_chan = det.box[7:9]
    if not prev_dets:
        return np.array(v_chan)
    dt = stride * interval
    cur = det.box[:2]
    predicted_back = cur - v_chan * dt
    prev_xy = np.array([p.box[:2] for p in prev_dets])
    gaps = np.linalg.norm(prev_xy - predicted_back, axis=1)
    j = int(np.argmin(gaps))
    if gaps[j] > gate:
        return np.array(v_chan)
    v_mot = (cur - prev_xy[j]) / dt
    return 0.5 * (v_mot + v_chan)
