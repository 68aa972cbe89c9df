"""Frozen reference per-query kernel: ``qebev.ltfm._evolve_single`` written
plainly from the other frozen references, with the frame loop
(``_evolve_frame``) and the sequence loop (``iter_sequence``) around it.

It gathers with a scan over every point (``test_dqem_oracles``), clusters
with the frozen k-means of ``_kmeans_reference``, and blends and decodes
with the numpy forms of ``test_round_oracles``.  Every round seeds its
k-means again from the query's rewound stream; it never restarts Lloyd
from the last round's centers, as the kernel does when a round gathers the
very points of the round before.  The attention scores are the
identity-projected product ``(I @ C.T).T @ (I @ q)`` that the golden
outputs pin, kept here rather than taken from ``dqem.attention_scores`` so
that a change there shows.

The kernel must match this bit for bit in every ``EvolutionTrace`` field
and in its carry, except the carried clusters' ``inertia_trace`` (a restart
keeps one entry).  The sequence loop must match it in every trace and in
every detection's box, score, query id and velocity, and in each frame's
``fused``; its velocities come from the frozen per-detection estimate of
``_velocity_reference``.  Do not edit this file to follow changes in ``ltfm``; it
is the reference those changes are checked against.
"""

import math

import numpy as np

from _kmeans_reference import kmeans
from _velocity_reference import velocity_estimate
from qebev.dqem import AttentionResult, Detection, DetectionFrame, EvolutionTrace
from qebev.numerics import derive_seed, draw_seed, make_rng
from test_dqem_oracles import scan_gather_indices
from test_round_oracles import (
    ref_blend_and_rescale,
    ref_decode_feature,
    ref_softmax,
    ref_top_k_indices,
)

NON_FINITE_MEAN = "neighborhood mean is not finite (non-finite or overflowing features)"


def aggregate(q, centers, top_k):
    """Top-k softmax attention of ``q`` over the rows of ``centers``."""
    eye = np.eye(q.shape[0])
    scores = (eye @ centers.T).T @ (eye @ q) / math.sqrt(q.shape[0])
    selected = ref_top_k_indices(scores, min(top_k, centers.shape[0]))
    weights = ref_softmax(scores[selected])
    return AttentionResult(selected, weights, weights @ centers[selected])


def evolve_single(attrs, frame, params, seed, alpha, carry):
    """One query from the (9,) row ``attrs`` against ``frame``, fusing the
    previous frame's ``carry`` (its direction and clusters) when given.
    Returns the trace and the query's own carry (None when flagged)."""
    sel = scan_gather_indices(frame.xy, attrs[:2], params.radius)
    if len(sel) == 0:
        return EvolutionTrace(attrs, np.zeros(frame.d), flag="empty"), None
    feat = frame.feat[sel]
    mean = feat.mean(axis=0)
    norm0 = float(np.linalg.norm(mean))
    if not math.isfinite(norm0):
        raise ValueError(NON_FINITE_MEAN)
    if norm0 == 0.0:
        return EvolutionTrace(attrs, np.zeros(frame.d), flag="degenerate-zero-mean"), None
    q = mean / norm0
    scale = norm0
    if carry is not None:
        blended = alpha * q + (1.0 - alpha) * carry[0]
        nb = float(np.linalg.norm(blended))
        if nb > 0.0:
            q = blended / nb
    decoded = [ref_decode_feature(q * scale, frame.encoder_seed, params.tau_bg)]
    if decoded[-1] is not None:
        attrs = decoded[-1]

    clusters = result = None
    flag = ""
    krng = make_rng(draw_seed(make_rng(seed)))
    start = krng.bit_generator.state
    for it in range(params.iterations):
        if it > 0:
            sel = scan_gather_indices(frame.xy, attrs[:2], params.radius)
            if len(sel) == 0:
                flag = "empty-regather"
                break
            feat = frame.feat[sel]
        krng.bit_generator.state = start
        clusters = kmeans(feat, params.k, params.kmeans_iters, krng)
        centers, sizes = clusters.centers, clusters.sizes
        if carry is not None and it == 0 and carry[1] is not None:
            # The first fused round attends over the current centers, then
            # the previous frame's.
            centers = np.concatenate([centers, carry[1].centers])
            sizes = np.concatenate([sizes, carry[1].sizes])
        result = aggregate(q, centers, params.top_k)
        q, scale, blend_flag = ref_blend_and_rescale(
            q, scale, result, centers, params.beta, sizes)
        flag = blend_flag or flag
        decoded.append(ref_decode_feature(q * scale, frame.encoder_seed, params.tau_bg))
        if decoded[-1] is not None:
            attrs = decoded[-1]
    if not flag and decoded[-1] is None:
        flag = "background"
    score = float(result.weights.max()) if result is not None else 0.0
    trace = EvolutionTrace(attrs, q, scale, flag, score, decoded)
    return trace, None if flag else (q, clusters)


def evolve_frame(starts, frame, params, rng, alpha, carries):
    """Every (9,) start row of ``frame``, query ``qi`` fusing ``carries[qi]``
    when ``carries`` is given.  One seed is drawn from ``rng`` for the
    frame; query ``qi`` takes that seed XOR ``qi``, and only a query that
    clusters builds generators from it.  Returns the traces and carries."""
    base_seed = draw_seed(rng)
    traces, out = [], []
    for qi, attrs in enumerate(starts):
        carry = None if carries is None else carries[qi]
        trace, next_carry = evolve_single(attrs, frame, params, base_seed ^ qi, alpha, carry)
        traces.append(trace)
        out.append(next_carry)
    return traces, out


def iter_sequence(frames, params, tparams, rng, starts):
    """Yield each frame's ``DetectionFrame`` and traces.  Frame ``t`` draws
    from its own stream, ``derive_seed(base, "frame:t")``.  With
    ``tparams``, every frame ``t > 0`` at a multiple of the stride is
    fused: its queries blend in the previous frame's carries, and each
    detection's velocity is estimated against the detections of frame
    ``t - stride``, over the time since it.  Every other frame's
    velocities are its decoded channels.  Without ``tparams`` no frame is
    fused, and no detection has a velocity or a ``fused``."""
    base_seed = draw_seed(rng)
    carries = None
    history = []  # (timestamp, (m, 2) detection positions) of each frame so far
    for t, frame in enumerate(frames):
        fused = tparams is not None and t > 0 and t % tparams.stride == 0
        frame_rng = make_rng(derive_seed(base_seed, f"frame:{t}"))
        traces, carries = evolve_frame(
            starts, frame, params, frame_rng,
            tparams.alpha if fused else 0.0, carries if fused else None)
        detections = [Detection(trace.attrs, trace.score, qi)
                      for qi, trace in enumerate(traces) if not trace.flag]
        if tparams is not None:
            back_time, back_xy = history[t - tparams.stride] if fused else (0.0, np.empty((0, 2)))
            for det in detections:
                det.velocity = velocity_estimate(det, back_xy, frame.timestamp - back_time)
            history.append((frame.timestamp,
                            np.array([det.box[:2] for det in detections]).reshape(-1, 2)))
        yield DetectionFrame(frame.timestamp, detections,
                             fused if tparams is not None else None), traces
