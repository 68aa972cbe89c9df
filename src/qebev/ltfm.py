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
from itertools import repeat
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .bevscene import Frame, decode_feature
from .dqem import (
    AttentionResult,
    ClusterSet,
    Detection,
    DetectionFrame,
    DqemParams,
    EvolutionTrace,
    Pillar,
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

# A healthy query's final direction and last cluster set, for the next frame.
_Carry = tuple[np.ndarray, ClusterSet | None]


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
class SequenceResult:
    frames: list[DetectionFrame]


def temporal_init(q_cur: np.ndarray, q_prev: np.ndarray, alpha: float) -> np.ndarray:
    """Blend the current query with the previous frame's: a*cur + (1-a)*prev."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    qc = np.asarray(q_cur, dtype=np.float64)
    qp = np.asarray(q_prev, dtype=np.float64)
    if qc.shape != qp.shape:
        raise ValueError("query shapes must agree")
    return alpha * qc + (1.0 - alpha) * qp


def _pooled(
    clusters_cur: ClusterSet | None, clusters_prev: ClusterSet | None
) -> ClusterSet | None:
    """The current clusters with the previous frame's centers and sizes
    appended: what a fused first round attends over and blends with."""
    if clusters_cur is None or clusters_prev is None or clusters_prev.k_eff == 0:
        return clusters_cur if clusters_cur is not None else clusters_prev
    return replace(
        clusters_cur,
        centers=np.concatenate([clusters_cur.centers, clusters_prev.centers]),
        sizes=np.concatenate([clusters_cur.sizes, clusters_prev.sizes]),
    )


def temporal_aggregate(
    q: np.ndarray,
    clusters_cur: ClusterSet | None,
    clusters_prev: ClusterSet | None,
    top_k: int,
) -> AttentionResult:
    """Top-k attention over the pooled current and previous cluster centers.

    Re-uses already computed centers instead of re-clustering; with no
    previous clusters this is exactly the single-frame aggregation.
    """
    pooled = _pooled(clusters_cur, clusters_prev)
    return aggregate_over_centers(q, pooled.centers if pooled is not None else np.zeros(0), top_k)


def _evolve_single(
    pillar: Pillar,
    frame: Frame,
    params: DqemParams,
    qrng: np.random.Generator,
    alpha: float,
    carry: _Carry | None,
) -> tuple[Pillar, EvolutionTrace, _Carry | None]:
    """One query against one frame, fusing the previous frame's ``carry``.

    With no carry this is plain single-frame evolution.  With one, the
    previous direction is blended in with weight ``1 - alpha``, and the
    first round aggregates over the pooled current and previous centers;
    later rounds are plain.  The k-means call count is the same either way.
    Returns the pillar, its trace and its carry (None when flagged).
    """
    trace = EvolutionTrace()
    attrs = pillar.attrs
    pts = gather_neighborhood(frame, attrs.center(), params.radius)
    if len(pts) == 0:
        return replace(pillar, flag="empty"), trace, None

    with np.errstate(over="ignore", invalid="ignore"):
        mean = initial_aggregate(pts.feat)
        # Vector 2-norms here and below are computed as np.linalg.norm does.
        norm0 = math.sqrt(mean.dot(mean))
    if not math.isfinite(norm0):
        raise ValueError(_NON_FINITE_MEAN)
    if norm0 == 0.0:
        return replace(pillar, flag="degenerate-zero-mean"), trace, None
    q = mean / norm0
    scale = norm0
    if carry is not None:
        blended = temporal_init(q, carry[0], alpha)
        nb = math.sqrt(blended.dot(blended))
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
        if carry is not None and it == 0:
            # Attention and the blend share one pooled set, so it is built
            # here and temporal_aggregate has nothing left to pool.
            anchor = _pooled(clusters, carry[1])
            result = temporal_aggregate(q, anchor, None, params.top_k)
        else:
            anchor = clusters
            result = aggregate_over_centers(q, anchor.centers, params.top_k)
        trace.attention.append(result)
        q, scale, blend_flag = blend_and_rescale(
            q, scale, result, anchor.centers, params.beta, anchor.sizes
        )
        flag = blend_flag or flag
        dec = decode_feature(q * scale, frame.encoder_seed, params.tau_bg)
        trace.decoded.append(dec)
        if dec is not None:
            attrs = dec
    if not flag and trace.decoded[-1] is None:
        flag = "background"
    evolved = Pillar(attrs=attrs, feat=q, feat_scale=scale, flag=flag)
    return evolved, trace, None if flag else (q, clusters)


def _evolve_frame(
    queries: QuerySet,
    frame: Frame,
    params: DqemParams,
    rng: np.random.Generator,
    alpha: float,
    carries: list[_Carry | None] | None,
) -> tuple[QuerySet, list[EvolutionTrace], list[_Carry | None]]:
    """Run the kernel for every query of one frame, fusing each query's
    carry from ``carries`` when it is given.

    Each query gets its own generator seeded from a single draw XOR the
    query index, so results do not depend on processing order.
    """
    base_seed = draw_seed(rng)
    pillars, traces, carried = zip(*(
        _evolve_single(pillar, frame, params, make_rng(base_seed ^ qi), alpha, carry)
        for qi, (pillar, carry) in enumerate(
            zip(queries.pillars, carries if carries is not None else repeat(None))
        )
    ))
    return QuerySet(list(pillars)), list(traces), list(carried)


def evolve_queries(
    queries: QuerySet,
    frame: Frame,
    params: DqemParams,
    rng: np.random.Generator,
) -> tuple[QuerySet, list[EvolutionTrace]]:
    """Refine every query against one frame, with no temporal history.

    Inputs are left untouched.
    """
    evolved, traces, _ = _evolve_frame(queries, frame, params, rng, 0.0, None)
    return evolved, traces


def iter_sequence(
    frames: list[Frame],
    params: DqemParams,
    tparams: TemporalParams | None,
    rng: np.random.Generator,
    grid_nx: int = 10,
    grid_ny: int = 10,
    bounds: float = 50.0,
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
    time since the frame one stride back.  A fused frame must be later than
    that frame.  With ``tparams`` None every frame is independent.

    Each frame's randomness derives from one base seed and the frame index,
    so with- and without-fusion runs see identical per-frame streams.
    """
    base_seed = draw_seed(rng)
    carries: list[_Carry | None] | None = None
    # recent[0] is the (timestamp, detections) of the frame one stride back
    # once a stride has passed.
    recent: deque[tuple[float, list[Detection]]] = deque(
        maxlen=tparams.stride if tparams is not None else 1
    )

    for t, frame in enumerate(frames):
        fused = tparams is not None and carries is not None and t % tparams.stride == 0
        prev_dets: list[Detection] = []
        dt = 0.0
        if fused:
            back_time, prev_dets = recent[0]
            dt = frame.timestamp - back_time
            if not dt > 0.0:
                raise ValueError(
                    f"frame {t} (timestamp {frame.timestamp}) is not later than frame "
                    f"{t - tparams.stride} (timestamp {back_time}), one stride back"
                )
        frame_rng = make_rng(derive_seed(base_seed, f"frame:{t}"))
        pillars = init_pillars(grid_nx, grid_ny, bounds)
        queries, traces, carries = _evolve_frame(
            pillars, frame, params, frame_rng,
            tparams.alpha if fused else 0.0, carries if fused else None,
        )

        detections = extract_detections(queries, traces, frame_index=t)
        if tparams is not None:
            detections = [
                replace(det, velocity=_velocity_estimate(det, prev_dets, dt))
                for det in detections
            ]
            recent.append((frame.timestamp, detections))
        fused_out = fused if tparams is not None else None
        yield DetectionFrame(frame.timestamp, detections, fused_out), queries, traces


def run_sequence(
    frames: list[Frame],
    params: DqemParams,
    tparams: TemporalParams | None,
    rng: np.random.Generator,
    grid_nx: int = 10,
    grid_ny: int = 10,
    bounds: float = 50.0,
) -> SequenceResult:
    """Every frame's detections from :func:`iter_sequence`, without the
    per-query state."""
    return SequenceResult([
        fr for fr, _, _ in iter_sequence(frames, params, tparams, rng, grid_nx, grid_ny, bounds)
    ])


# Largest accepted gap between a backward-predicted position and the
# nearest earlier detection; beyond it the track is considered broken.
BACKTRACK_GATE = 3.0


def _velocity_estimate(
    det: Detection,
    prev_dets: list[Detection],
    dt: float,
) -> np.ndarray:
    """Average the decoded velocity channels with a track position delta.

    The detection is projected back by its channel velocity over ``dt``,
    the seconds since the earlier detections; the nearest earlier detection
    within the gate is taken as the same physical track.  Grid queries
    alone cannot serve as tracks since an object crossing cells changes
    which query sees it.  With no earlier
    detection inside the gate the decoded channels stand alone.
    """
    v_chan = det.box[7:9]
    if not prev_dets:
        return np.array(v_chan)
    cur = det.box[:2]
    predicted_back = cur - v_chan * dt
    prev_xy = np.array([p.box[:2] for p in prev_dets])
    gaps = np.linalg.norm(prev_xy - predicted_back, axis=1)
    j = int(np.argmin(gaps))
    if gaps[j] > BACKTRACK_GATE:
        return np.array(v_chan)
    v_mot = (cur - prev_xy[j]) / dt
    return 0.5 * (v_mot + v_chan)
