"""Detection scoring with nuScenes-style conventions.

Matching is on BEV center distance.  True-positive errors cover
translation, size, orientation, velocity, and a pinned attribute term; the
composite score folds them together with mean average precision over four
distance thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bevscene import Frame
from .dqem import Detection, DetectionFrame

__all__ = [
    "EvalReport",
    "AP_THRESHOLDS",
    "TP_THRESHOLD",
    "hungarian_assign",
    "match_detections",
    "tp_errors",
    "average_precision",
    "nds",
    "evaluate_detections",
    "write_report",
]

AP_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_THRESHOLD = 2.0
TP_KEYS = ("mATE", "mASE", "mAOE", "mAVE", "mAAE")


def hungarian_assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of a (possibly rectangular) cost matrix.

    Returns row/column index pairs as an (m, 2) array sorted by row, with
    m = min(rows, cols).  An empty matrix yields an empty pairing.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if c.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    # The solver needs at least as many columns as rows; a tall matrix is
    # solved transposed and its pairs swapped back.
    transpose = c.shape[0] > c.shape[1]
    col4row = _shortest_augmenting_path((c.T if transpose else c).tolist())
    if transpose:
        pairs = sorted((r, i) for i, r in enumerate(col4row))
    else:
        pairs = list(enumerate(col4row))
    return np.array(pairs, dtype=np.int64)


def _shortest_augmenting_path(cost: list[list[float]]) -> list[int]:
    """Column assigned to each row of a cost matrix with rows <= columns.

    Crouse's shortest augmenting path method (IEEE TAES 2016) as scipy's
    ``linear_sum_assignment`` runs it: the same column scan order, tie
    rule and float operations in the same order, so it returns the same
    pairs, ties included.  Entries must be finite.
    """
    nr, nc = len(cost), len(cost[0])
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Dijkstra from cur_row over reduced costs until a free column.
        short = [math.inf] * nc
        rows_seen = []  # besides cur_row
        cols_seen = []
        # Filled in reverse so a constant matrix yields the identity.
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        while True:
            ci, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                # On equal path cost prefer a column that ends the path.
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    lowest = short[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                sink = j
                break
            i = row4col[j]
            rows_seen.append(i)

        # Dual update.
        u[cur_row] += min_val
        for i in rows_seen:
            u[i] += min_val - short[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - short[j]

        # Augment along the path back to cur_row.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def match_detections(
    pred_boxes: np.ndarray, gt_boxes: np.ndarray, threshold: float
) -> np.ndarray:
    """Optimal one-to-one matching on BEV center distance: (p, 2) pred/gt
    index pairs.

    Pairs farther apart than ``threshold`` are discarded after assignment.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    p = np.asarray(pred_boxes, dtype=np.float64).reshape(-1, 9)
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 9)
    diff = p[:, None, :2] - g[None, :, :2]
    dist = np.sqrt(np.einsum("pgd,pgd->pg", diff, diff))
    pairs = hungarian_assign(dist)
    keep = dist[pairs[:, 0], pairs[:, 1]] <= threshold
    return pairs[keep]


def tp_errors(
    pairs: np.ndarray,
    pred_boxes: np.ndarray,
    gt_boxes: np.ndarray,
    pred_velocity: np.ndarray,
) -> dict[str, float]:
    """Mean errors, keyed by ``TP_KEYS``, over the matched pred/gt index
    ``pairs`` (at least one), scoring each prediction's ``pred_velocity``
    (its fused estimate or box channels).

    The size term is a center-aligned proxy: one minus the product of
    per-axis min/max dimension ratios.  The attribute term has no analogue
    in this synthetic setting and is pinned to 0.
    """
    p = np.asarray(pred_boxes, dtype=np.float64).reshape(-1, 9)
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 9)
    pi, gi = pairs[:, 0], pairs[:, 1]
    pm, gm = p[pi], g[gi]

    ate = float(np.linalg.norm(pm[:, :2] - gm[:, :2], axis=1).mean())

    dims_p, dims_g = pm[:, 3:6], gm[:, 3:6]
    ratio = np.minimum(dims_p, dims_g) / np.maximum(dims_p, dims_g)
    ase = float((1.0 - ratio.prod(axis=1)).mean())

    dtheta = np.abs(pm[:, 6] - gm[:, 6]) % (2.0 * math.pi)
    dtheta = np.where(dtheta > math.pi, 2.0 * math.pi - dtheta, dtheta)
    aoe = float(dtheta.mean())

    vel = np.asarray(pred_velocity, dtype=np.float64).reshape(-1, 2)[pi]
    ave = float(np.linalg.norm(vel - gm[:, 7:9], axis=1).mean())

    return dict(zip(TP_KEYS, (ate, ase, aoe, ave, 0.0)))


def average_precision(
    detections: list[Detection],
    gt_frames: list[np.ndarray],
    threshold: float,
) -> float | None:
    """AP at one center-distance threshold, 101-point interpolated.

    Detections across all frames are ranked by score and matched greedily
    to the nearest free ground truth of their own frame.  Returns None when
    there is no ground truth at all.
    """
    n_gt = sum(g.shape[0] for g in gt_frames)
    if n_gt == 0:
        return None
    if not detections:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken: list[np.ndarray] = [np.zeros(g.shape[0], dtype=bool) for g in gt_frames]
    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, di in enumerate(order):
        det = detections[di]
        g = gt_frames[det.frame]
        free = np.flatnonzero(~taken[det.frame])
        matched = False
        if free.size:
            dists = np.linalg.norm(g[free, :2] - det.box[:2], axis=1)
            best = int(np.argmin(dists))
            if dists[best] <= threshold:
                taken[det.frame][free[best]] = True
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


def nds(map_: float, tp: dict[str, float]) -> float:
    """Composite detection score: (5*mAP + sum of (1 - min(1, err))) / 10."""
    missing = [k for k in TP_KEYS if k not in tp]
    if missing:
        raise ValueError(f"missing true-positive terms: {missing}")
    total = 5.0 * float(map_)
    for key in TP_KEYS:
        total += 1.0 - min(1.0, float(tp[key]))
    return total / 10.0


@dataclass
class EvalReport:
    map_: float | None
    tp: dict[str, float]
    nds_: float | None
    per_threshold_ap: dict[float, float | None]
    config: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        rec: dict = {"mAP": self.map_}
        rec.update(self.tp)
        rec["NDS"] = self.nds_
        rec["per_threshold_AP"] = {f"{t:g}": ap for t, ap in self.per_threshold_ap.items()}
        rec["config"] = self.config
        return rec


def evaluate_detections(
    det_frames: list[DetectionFrame],
    scene_frames: list[Frame],
    tp_threshold: float = TP_THRESHOLD,
    config: dict | None = None,
) -> EvalReport:
    """Score a detection file against its scene file.

    AP is computed at each of ``AP_THRESHOLDS`` over all frames pooled;
    true-positive errors use optimal one-to-one matching at ``tp_threshold``
    per frame.
    """
    if not tp_threshold > 0.0 or not math.isfinite(tp_threshold):
        raise ValueError(f"tp_threshold must be positive and finite, got {tp_threshold}")
    if len(det_frames) != len(scene_frames):
        raise ValueError(
            f"frame count mismatch: {len(det_frames)} detection lines vs "
            f"{len(scene_frames)} scene frames"
        )
    for df, sf in zip(det_frames, scene_frames):
        if not abs(df.timestamp - sf.timestamp) <= 1e-9:
            raise ValueError(
                f"timestamp mismatch: detections at {df.timestamp} vs scene at {sf.timestamp}"
            )

    gt_frames = [sf.boxes for sf in scene_frames]
    all_dets = [d for df in det_frames for d in df.detections]

    per_threshold: dict[float, float | None] = {}
    for th in AP_THRESHOLDS:
        per_threshold[th] = average_precision(all_dets, gt_frames, th)
    aps = [v for v in per_threshold.values() if v is not None]
    map_ = float(np.mean(aps)) if aps else None

    # Pool matched-pair errors across frames at the fixed TP threshold.
    err_rows: list[np.ndarray] = []
    for df, gt in zip(det_frames, gt_frames):
        if not df.detections:
            continue
        boxes = np.stack([d.box for d in df.detections])
        vels = np.stack(
            [d.velocity if d.velocity is not None else d.box[7:9] for d in df.detections]
        )
        pairs = match_detections(boxes, gt, tp_threshold)
        if pairs.shape[0]:
            row = np.array(list(tp_errors(pairs, boxes, gt, vels).values()))
            err_rows.append(np.concatenate([row * pairs.shape[0], [pairs.shape[0]]]))
    # Every term saturates to 1.0 when nothing matched.
    tp = dict.fromkeys(TP_KEYS, 1.0)
    if err_rows:
        stacked = np.stack(err_rows)
        n = stacked[:, -1].sum()
        tp = dict(zip(TP_KEYS, (stacked[:, :-1].sum(axis=0) / n).tolist()))

    nds_val = nds(map_, tp) if map_ is not None else None
    return EvalReport(
        map_=map_,
        tp=tp,
        nds_=nds_val,
        per_threshold_ap=per_threshold,
        config=dict(config or {}),
    )


def write_report(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
