"""The per-frame query-evolution loop, and temporal fusion across frames.

Every query of a frame runs the same kernel: gather, k-means, top-k
attention, blend, decode, re-gather.  Fusion only warm-starts it: on a fused
frame the previous query direction is blended into the fresh one, the
previous frame's cluster centers are pooled with the current ones for the
first round's attention (no re-clustering), and decoded positions are
differenced for a motion-based velocity estimate that is averaged with the
decoded velocity channels.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .bevscene import BoxAttributes, Frame, SceneSequence, decode_feature
from .dqem import (
    AttentionResult,
    ClusterSet,
    Detection,
    DetectionFrame,
    DqemParams,
    EvolutionTrace,
    Pillar,
    ProjectionPair,
    QuerySet,
    aggregate_over_centers,
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
    "SequenceResult",
    "temporal_init",
    "temporal_aggregate",
    "evolve_queries",
    "iter_sequence",
    "run_sequence",
]

# A query whose starting mean overflows would decode to NaN; refuse it as
# k-means refuses an overflowing potential.
_NON_FINITE_MEAN = "neighborhood mean is not finite (non-finite or overflowing features)"


@dataclass
class TemporalParams:
    """Fusion knobs: blend weight and stride between fused frames."""

    alpha: float = 0.4
    stride: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")


@dataclass
class TemporalState:
    """What one frame hands to the next: evolved queries and their final
    cluster sets (None for queries that never clustered)."""

    queries: QuerySet
    clusters: list[ClusterSet | None]


@dataclass
class SequenceResult:
    frames: list[DetectionFrame]


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
    return aggregate_over_centers(q, pooled, proj, top_k)


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
    frame: Frame,
    params: DqemParams,
    proj: ProjectionPair,
    qrng: np.random.Generator,
    tparams: TemporalParams | None,
    q_prev: np.ndarray | None,
    clusters_prev: ClusterSet | None,
) -> tuple[Pillar, EvolutionTrace, ClusterSet | None]:
    """One query against one frame, optionally fusing the previous state.

    With no previous query this is plain single-frame evolution.  On a fused
    frame the first round aggregates over the pooled current and previous
    centers; later rounds are plain.  The k-means call count is the same
    either way.
    """
    trace = EvolutionTrace()
    attrs = pillar.attrs
    pts = gather_neighborhood(frame, attrs.center(), params.radius)
    if len(pts) == 0:
        return replace(pillar, flag="empty"), trace, None

    with np.errstate(over="ignore", invalid="ignore"):
        mean = initial_aggregate(pts.feat)
        norm0 = float(np.linalg.norm(mean))
    if not math.isfinite(norm0):
        raise ValueError(_NON_FINITE_MEAN)
    if norm0 == 0.0:
        return replace(pillar, flag="degenerate-zero-mean"), trace, None
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
    flag = ""
    # One clustering stream per query, rewound every round: successive
    # rounds then see consistent partitions and the update converges
    # instead of chasing re-randomized cluster boundaries.
    krng = make_rng(draw_seed(qrng))
    kstate = krng.bit_generator.state
    for it in range(params.iterations):
        if it > 0:
            pts = gather_neighborhood(frame, attrs.center(), params.radius)
            if len(pts) == 0:
                flag = "empty-regather"
                break
        krng.bit_generator.state = kstate
        clusters = kmeans(pts.feat, params.k, params.kmeans_iters, krng)
        if fuse and it == 0:
            result = temporal_aggregate(q, clusters, clusters_prev, proj, params.top_k)
            anchor, anchor_sizes = _pooled_centers(clusters, clusters_prev)
        else:
            result = aggregate_over_centers(q, clusters.centers, proj, params.top_k)
            anchor, anchor_sizes = clusters.centers, clusters.sizes
        trace.attention.append(result)
        q, scale, blend_flag = blend_and_rescale(
            q, scale, result, anchor, params.beta, sizes=anchor_sizes
        )
        flag = blend_flag or flag
        dec = decode_feature(q * scale, frame.encoder_seed, params.tau_bg)
        trace.decoded.append(dec)
        if dec is not None:
            attrs = dec
    if not flag and trace.decoded[-1] is None:
        flag = "background"
    return Pillar(attrs=attrs, feat=q, feat_scale=scale, flag=flag), trace, clusters


def _evolve_frame(
    queries: QuerySet,
    frame: Frame,
    params: DqemParams,
    proj: ProjectionPair,
    rng: np.random.Generator,
    tparams: TemporalParams | None = None,
    prev: TemporalState | None = None,
) -> tuple[TemporalState, list[EvolutionTrace]]:
    """Run the kernel for every query of one frame, fusing ``prev`` when
    ``tparams`` is given.

    Each query gets its own generator seeded from a single draw XOR the
    query index, so results do not depend on processing order.
    """
    base_seed = draw_seed(rng)
    pillars: list[Pillar] = []
    traces: list[EvolutionTrace] = []
    clusters: list[ClusterSet | None] = []
    for qi, pillar in enumerate(queries.pillars):
        q_prev, c_prev = None, None
        if tparams is not None:
            prev_pillar = prev.queries.pillars[qi]
            q_prev = prev_pillar.feat if prev_pillar.feat.size and not prev_pillar.flag else None
            c_prev = prev.clusters[qi]
        new_pillar, trace, cs = _evolve_single(
            pillar, frame, params, proj, make_rng(base_seed ^ qi), tparams, q_prev, c_prev
        )
        pillars.append(new_pillar)
        traces.append(trace)
        clusters.append(cs)
    return TemporalState(queries=QuerySet(pillars), clusters=clusters), traces


def evolve_queries(
    queries: QuerySet,
    frame: Frame,
    params: DqemParams,
    proj: ProjectionPair,
    rng: np.random.Generator,
) -> tuple[QuerySet, list[EvolutionTrace]]:
    """Refine every query against one frame, with no temporal history.

    Inputs are left untouched.
    """
    state, traces = _evolve_frame(queries, frame, params, proj, rng)
    return state.queries, traces


def iter_sequence(
    seq: SceneSequence,
    params: DqemParams,
    tparams: TemporalParams | None,
    proj: ProjectionPair,
    rng: np.random.Generator,
    grid_nx: int = 10,
    grid_ny: int = 10,
    bounds: float | tuple[float, float, float, float] = 50.0,
    template: BoxAttributes | None = None,
) -> Iterator[tuple[DetectionFrame, QuerySet, list[EvolutionTrace]]]:
    """Detect over every frame of a sequence, fusing per the stride.

    Yields each frame's detections with its evolved queries and their
    traces.  A frame's ``fused`` is None when ``tparams`` is None.
    Between frames only the previous frame's fusion state and the last
    ``stride`` frames' detections are kept, so memory does not grow with
    the sequence.

    Frame 0 always runs plain evolution.  With ``tparams`` set, frames at
    multiples of the stride blend in the previous frame's queries and
    clusters, and their detections carry a velocity estimate that averages
    the decoded velocity channels with the decoded position delta over the
    stride.  With ``tparams`` None every frame is independent.

    Each frame's randomness derives from one base seed and the frame index,
    so with- and without-fusion runs see identical per-frame streams.
    """
    base_seed = draw_seed(rng)
    state: TemporalState | None = None
    # recent[0] is the frame one stride back once a stride has passed.
    recent: deque[list[Detection]] = deque(maxlen=tparams.stride if tparams is not None else 1)

    for t, frame in enumerate(seq.frames):
        frame_rng = make_rng(derive_seed(base_seed, f"frame:{t}"))
        pillars = init_pillars(grid_nx, grid_ny, bounds, template)
        fused = tparams is not None and state is not None and t % tparams.stride == 0
        state, traces = _evolve_frame(
            pillars, frame, params, proj, frame_rng, tparams if fused else None, state
        )

        detections = extract_detections(state.queries, traces, frame_index=t)
        if tparams is not None:
            prev_dets = recent[0] if fused else []
            detections = [
                replace(
                    det,
                    velocity=_velocity_estimate(
                        det, prev_dets, tparams.stride, seq.interval
                    ),
                )
                for det in detections
            ]
            recent.append(detections)
        fused_out = fused if tparams is not None else None
        yield DetectionFrame(frame.timestamp, detections, fused_out), state.queries, traces


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
    """Every frame's detections from :func:`iter_sequence`, without the
    per-query state."""
    return SequenceResult([
        fr for fr, _, _ in iter_sequence(
            seq, params, tparams, proj, rng, grid_nx, grid_ny, bounds, template
        )
    ])


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
