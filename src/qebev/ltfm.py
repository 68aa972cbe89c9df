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
    _check_int,
    aggregate_over_centers,
    blend_and_rescale,
    gather_neighborhood,
    kmeans,
)
from .numerics import _first_draw, derive_seed, draw_seed, make_rng

__all__ = [
    "TemporalParams",
    "SequenceResult",
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
        _check_int("stride", self.stride)
        if self.stride < 1:
            raise ValueError("stride must be at least 1")


@dataclass
class SequenceResult:
    frames: list[DetectionFrame]


def temporal_init(q_cur: np.ndarray, q_prev: np.ndarray, alpha: float) -> np.ndarray:
    """Blend the current query with the previous frame's: a*cur + (1-a)*prev."""
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
    attrs: np.ndarray,
    frame: Frame,
    params: DqemParams,
    seed: int,
    alpha: float,
    carry: _Carry | None,
) -> tuple[EvolutionTrace, _Carry | None]:
    """One query, starting at the (9,) box row ``attrs``, against one frame,
    fusing the previous frame's ``carry``.

    With no carry this is plain single-frame evolution.  With one, the
    previous direction is blended in with weight ``1 - alpha``, and the
    first round aggregates over the pooled current and previous centers;
    later rounds are plain.  The k-means call count is the same either way:
    one per round.  The query's generators come from ``seed`` and are built
    only once it has points with a non-zero mean to cluster.  A round that
    gathers the very points of the round before, whose run stopped before
    the ``kmeans_iters`` cap, restarts Lloyd from that run's centers rather
    than seeding again; the clustering it gets is the same.
    Returns the evolved query and its carry (None when flagged).
    """
    sel = gather_neighborhood(frame, attrs[:2], params.radius)
    if len(sel) == 0:
        return EvolutionTrace(attrs, np.zeros(frame.d), flag="empty"), None

    feat = frame.feat.take(sel, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        # ndarray.mean's sum and division, called directly.
        mean = np.add.reduce(feat, axis=0) / len(feat)
        # Vector 2-norms here and below are computed as np.linalg.norm does.
        norm0 = math.sqrt(mean.dot(mean))
    if not math.isfinite(norm0):
        raise ValueError(_NON_FINITE_MEAN)
    if norm0 == 0.0:
        return EvolutionTrace(attrs, np.zeros(frame.d), flag="degenerate-zero-mean"), None
    q = mean / norm0
    scale = norm0
    if carry is not None:
        blended = temporal_init(q, carry[0], alpha)
        nb = math.sqrt(blended.dot(blended))
        if nb > 0.0:
            q = blended / nb
    dec = decode_feature(q * scale, frame.encoder_seed, params.tau_bg)
    decoded = [dec]
    if dec is not None:
        attrs = dec

    clusters: ClusterSet | None = None
    result: AttentionResult | None = None
    flag = ""
    # One clustering stream per query, rewound every round: successive
    # rounds then see consistent partitions and the update converges
    # instead of chasing re-randomized cluster boundaries.
    krng = make_rng(_first_draw(seed))
    kstate = krng.bit_generator.state
    for it in range(params.iterations):
        init = None
        if it > 0:
            prev_sel = sel
            sel = gather_neighborhood(frame, attrs[:2], params.radius)
            if len(sel) == 0:
                flag = "empty-regather"
                break
            # Equal int32 bytes are equal index arrays.
            if sel.tobytes() != prev_sel.tobytes():
                feat = frame.feat.take(sel, axis=0)
            elif len(clusters.inertia_trace) < params.kmeans_iters:
                # The rewound stream would seed the run that converged last
                # round again; Lloyd from its centers ends where it ended.
                init = clusters.centers
        if init is None:
            krng.bit_generator.state = kstate
        clusters = kmeans(feat, params.k, params.kmeans_iters, krng, init=init)
        if carry is not None and it == 0:
            # Attention and the blend share one pooled set, so it is built
            # here and temporal_aggregate has nothing left to pool.
            anchor = _pooled(clusters, carry[1])
            result = temporal_aggregate(q, anchor, None, params.top_k)
        else:
            anchor = clusters
            result = aggregate_over_centers(q, anchor.centers, params.top_k)
        q, scale, blend_flag = blend_and_rescale(
            q, scale, result, anchor.centers, params.beta, anchor.sizes
        )
        flag = blend_flag or flag
        dec = decode_feature(q * scale, frame.encoder_seed, params.tau_bg)
        decoded.append(dec)
        if dec is not None:
            attrs = dec
    if not flag and decoded[-1] is None:
        flag = "background"
    # The final round's attention concentration: the detection confidence.
    score = float(np.maximum.reduce(result.weights)) if result is not None else 0.0
    trace = EvolutionTrace(attrs, q, scale, flag, score, decoded)
    return trace, None if flag else (q, clusters)


def _evolve_frame(
    starts: np.ndarray,
    frame: Frame,
    params: DqemParams,
    rng: np.random.Generator,
    alpha: float,
    carries: list[_Carry | None] | None,
) -> tuple[list[EvolutionTrace], list[_Carry | None]]:
    """Run the kernel for every (9,) start row of one frame, fusing each
    query's carry from ``carries`` when it is given.

    Each query gets its own seed, a single draw XOR the query index, so
    results do not depend on processing order; a query builds generators
    from it only when it clusters.
    """
    base_seed = draw_seed(rng)
    evolved = [
        _evolve_single(attrs, frame, params, base_seed ^ qi, alpha, carry)
        for qi, (attrs, carry) in enumerate(
            zip(starts, carries if carries is not None else repeat(None))
        )
    ]
    return [trace for trace, _ in evolved], [carry for _, carry in evolved]


def evolve_queries(
    starts: np.ndarray,
    frame: Frame,
    params: DqemParams,
    rng: np.random.Generator,
) -> list[EvolutionTrace]:
    """Evolve one query from each start box against one frame, with no
    temporal history."""
    return _evolve_frame(starts, frame, params, rng, 0.0, None)[0]


def iter_sequence(
    frames: list[Frame],
    params: DqemParams,
    tparams: TemporalParams | None,
    rng: np.random.Generator,
    starts: np.ndarray,
) -> Iterator[tuple[DetectionFrame, list[EvolutionTrace]]]:
    """Detect over every frame of a sequence, fusing per the stride.

    Every frame starts one query from each (9,) row of ``starts``; yields each
    frame's detections with its evolved queries.  A frame's ``fused`` is
    None when ``tparams`` is None.
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
    A frame the kernel refuses fails as ``frame t (timestamp ts): reason``.
    """
    base_seed = draw_seed(rng)
    carries: list[_Carry | None] | None = None
    # recent[0] is the timestamp and (m, 2) detection positions of the frame
    # one stride back once a stride has passed.
    recent: deque[tuple[float, np.ndarray]] = deque(
        maxlen=tparams.stride if tparams is not None else 1
    )

    for t, frame in enumerate(frames):
        fused = tparams is not None and carries is not None and t % tparams.stride == 0
        prev_xy = np.empty((0, 2))
        dt = 0.0
        if fused:
            back_time, prev_xy = recent[0]
            dt = frame.timestamp - back_time
            if not dt > 0.0:
                raise ValueError(
                    f"frame {t} (timestamp {frame.timestamp}) is not later than frame "
                    f"{t - tparams.stride} (timestamp {back_time}), one stride back"
                )
        frame_rng = make_rng(derive_seed(base_seed, f"frame:{t}"))
        try:
            traces, carries = _evolve_frame(
                starts, frame, params, frame_rng,
                tparams.alpha if fused else 0.0, carries if fused else None,
            )
        except ValueError as exc:
            raise ValueError(f"frame {t} (timestamp {frame.timestamp}): {exc}") from exc

        # Healthy queries become detections, scored by their final round's
        # attention concentration; flagged ones are dropped.
        healthy = [(qi, trace) for qi, trace in enumerate(traces) if not trace.flag]
        boxes = np.array([trace.attrs for _, trace in healthy]).reshape(-1, 9)
        velocities = repeat(None)
        if tparams is not None:
            velocities = _velocity_estimate(boxes, prev_xy, dt)
            recent.append((frame.timestamp, boxes[:, :2]))
        detections = [
            Detection(box, trace.score, qi, velocity)
            for (qi, trace), box, velocity in zip(healthy, boxes, velocities)
        ]
        fused_out = fused if tparams is not None else None
        yield DetectionFrame(frame.timestamp, detections, fused_out), traces


def run_sequence(
    frames: list[Frame],
    params: DqemParams,
    tparams: TemporalParams | None,
    rng: np.random.Generator,
    starts: np.ndarray,
) -> SequenceResult:
    """Every frame's detections from :func:`iter_sequence`, without the
    evolved queries."""
    return SequenceResult([fr for fr, _ in iter_sequence(frames, params, tparams, rng, starts)])


# Largest accepted gap between a backward-predicted position and the
# nearest earlier detection; beyond it the track is considered broken.
BACKTRACK_GATE = 3.0


def _velocity_estimate(
    boxes: np.ndarray,
    prev_xy: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Average each box's decoded velocity channels with a track position
    delta: the (m, 2) velocities of the (m, 9) rows of ``boxes``.

    Each box is projected back by its channel velocity over ``dt``, the
    seconds since the earlier detections, whose positions are the rows of
    ``prev_xy`` (n, 2); the nearest earlier detection within the gate is
    taken as the same physical track.  Grid queries
    alone cannot serve as tracks since an object crossing cells changes
    which query sees it.  With no earlier
    detection inside the gate, or a ``dt`` so long or so short that the
    projection or the average overflows, the decoded channels stand alone.
    """
    v_chan = boxes[:, 7:9]
    if not len(prev_xy):
        return v_chan.copy()
    cur = boxes[:, :2]
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.linalg.norm(prev_xy - (cur - v_chan * dt)[:, None], axis=2)
        j = np.argmin(gaps, axis=1)
        fused = 0.5 * ((cur - prev_xy[j]) / dt + v_chan)
    keep = (gaps[np.arange(len(j)), j] <= BACKTRACK_GATE) & np.isfinite(fused).all(axis=1)
    return np.where(keep[:, None], fused, v_chan)
