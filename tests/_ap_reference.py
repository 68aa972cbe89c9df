"""Frozen reference average precision: the flat-list version, one pooled
list of detections, each paired with the index of its frame.

``qebev.evalkit.average_precision`` takes one detection list per frame and
must match this bit for bit.  Do not edit this file to follow changes in
``evalkit``; it is the reference those changes are checked against.
"""

from __future__ import annotations

import numpy as np

from qebev.dqem import Detection


def average_precision(
    detections: list[tuple[int, Detection]],
    gt_frames: list[np.ndarray],
    threshold: float,
) -> float | None:
    """AP at one center-distance threshold, 101-point interpolated.

    Detections across all frames are ranked by score and matched greedily
    to the nearest free ground truth of their own frame; a detection whose
    distances overflow matches none and counts as a false positive.
    Returns None when there is no ground truth at all.
    """
    n_gt = sum(g.shape[0] for g in gt_frames)
    if n_gt == 0:
        return None
    if not detections:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1].score, i))
    taken: list[np.ndarray] = [np.zeros(g.shape[0], dtype=bool) for g in gt_frames]
    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, di in enumerate(order):
        frame, det = detections[di]
        g = gt_frames[frame]
        free = np.flatnonzero(~taken[frame])
        matched = False
        if free.size:
            with np.errstate(over="ignore"):
                dists = np.linalg.norm(g[free, :2] - det.box[:2], axis=1)
            best = int(np.argmin(dists))
            if dists[best] <= threshold:
                taken[frame][free[best]] = True
                matched = True
        tp[rank] = 1.0 if matched else 0.0
        fp[rank] = 0.0 if matched else 1.0
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(fp)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    levels = np.linspace(0.0, 1.0, 101)
    interp = np.interp(levels, recall, precision, right=0.0)
    return float(interp.mean())
