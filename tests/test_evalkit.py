import itertools
import json
import math

import numpy as np
import pytest

from qebev.bevscene import SceneConfig, generate_sequence
from qebev.dqem import Detection, DetectionFrame
from qebev.evalkit import (
    average_precision,
    evaluate_detections,
    hungarian_assign,
    match_detections,
    nds,
    tp_errors,
    write_report,
)
from qebev.numerics import make_rng


def box(x, y, w=1.0, l=2.0, h=1.0, theta=0.0, vx=0.0, vy=0.0, z=1.0):
    return np.array([x, y, z, w, l, h, theta, vx, vy], dtype=float)


def brute_force_cost(cost):
    # Every injection of the shorter side into the longer one: the shorter
    # side in order against each ordered choice of the longer side.
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    nr, nc = cost.shape
    best = math.inf
    for csel in itertools.permutations(range(nc), nr):
        total = sum(cost[r, c] for r, c in zip(range(nr), csel))
        best = min(best, total)
    return best


# ---------------------------------------------------------------- hungarian


def test_hungarian_matches_brute_force():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        cost = rng.uniform(0, 10, size=(n, n))
        pairs = hungarian_assign(cost)
        got = sum(cost[r, c] for r, c in pairs)
        assert got == pytest.approx(brute_force_cost(cost), abs=1e-9)
        assert len({r for r, _ in pairs}) == n
        assert len({c for _, c in pairs}) == n


def test_hungarian_rectangular():
    rng = make_rng(3)
    for shape in ((2, 5), (5, 2), (1, 4), (4, 1)):
        cost = rng.uniform(0, 10, size=shape)
        pairs = hungarian_assign(cost)
        assert pairs.shape[0] == min(shape)
        got = sum(cost[r, c] for r, c in pairs)
        assert got == pytest.approx(brute_force_cost(cost), abs=1e-9)


def test_hungarian_matches_scipy_pairs_exactly():
    # scipy is only the oracle here: the in-repo solver must return the very
    # pairs linear_sum_assignment returns, ties included.
    from scipy.optimize import linear_sum_assignment

    rng = make_rng(4)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 8), (8, 3), (19, 6), (6, 19)]
    shapes += [tuple(int(v) for v in rng.integers(1, 12, size=2)) for _ in range(300)]
    for t, shape in enumerate(shapes):
        kind = t % 4
        if kind == 0:
            cost = rng.uniform(0, 10, size=shape)
        elif kind == 1:
            cost = np.round(rng.uniform(0, 3, size=shape), 1)
        elif kind == 2:
            cost = rng.integers(0, 3, size=shape).astype(float)
        else:
            cost = np.full(shape, 2.5)
        rows, cols = linear_sum_assignment(cost)
        expected = sorted([r, c] for r, c in zip(rows.tolist(), cols.tolist()))
        assert hungarian_assign(cost).tolist() == expected


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian_assign(np.zeros(3))
    with pytest.raises(ValueError):
        hungarian_assign(np.array([[0.0, math.nan]]))
    with pytest.raises(ValueError):
        hungarian_assign(np.array([[math.inf, 1.0]]))


def test_hungarian_empty():
    assert hungarian_assign(np.zeros((0, 3))).size == 0
    assert hungarian_assign(np.zeros((3, 0))).size == 0


def test_hungarian_known_case():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    pairs = {tuple(p) for p in hungarian_assign(cost)}
    assert pairs == {(0, 1), (1, 0), (2, 2)}


# ---------------------------------------------------------------- matching


def test_match_simple_pairs_and_leftovers():
    pred = np.stack([box(0, 0), box(5, 0)])
    gt = np.stack([box(0.5, 0), box(5.2, 0), box(20, 0)])
    pairs = match_detections(pred, gt, threshold=2.0)
    # the far gt 2 is left over
    assert pairs.tolist() == [[0, 0], [1, 1]]


def test_match_threshold_discards_far_pairs():
    pred = np.stack([box(0, 0)])
    gt = np.stack([box(3.0, 0)])
    assert match_detections(pred, gt, threshold=2.0).shape == (0, 2)


def test_match_is_globally_optimal_on_crossing():
    # two preds between two gts: the assignment minimizing total distance
    # crosses, a nearest-first greedy would not
    pred = np.stack([box(1.0, 0), box(2.0, 0)])
    gt = np.stack([box(2.2, 0), box(0.0, 0)])
    pairs = match_detections(pred, gt, threshold=5.0)
    assert {tuple(p) for p in pairs.tolist()} == {(0, 1), (1, 0)}


def test_match_empty_inputs():
    assert match_detections(np.zeros((0, 9)), np.stack([box(0, 0)]), 2.0).shape == (0, 2)
    assert match_detections(np.stack([box(0, 0)]), np.zeros((0, 9)), 2.0).shape == (0, 2)


# ---------------------------------------------------------------- tp errors


def test_tp_errors_hand_computed():
    pred = np.stack([
        box(1.0, 0.0, w=1.0, l=2.0, h=1.0, theta=0.0, vx=1.0, vy=0.0),
        box(0.0, 2.0, w=2.0, l=2.0, h=2.0, theta=0.5, vx=0.0, vy=0.0),
    ])
    gt = np.stack([
        box(0.0, 0.0, w=1.0, l=2.0, h=1.0, theta=0.0, vx=0.0, vy=0.0),
        box(0.0, 0.0, w=1.0, l=4.0, h=2.0, theta=0.0, vx=0.0, vy=1.0),
    ])
    e = tp_errors(np.array([[0, 0], [1, 1]]), pred, gt, pred[:, 7:9])
    assert e["mATE"] == pytest.approx((1.0 + 2.0) / 2, abs=1e-12)
    # pair 0 dims identical (ratio product 1), pair 1 ratios 1/2, 2/4, 2/2
    assert e["mASE"] == pytest.approx((0.0 + (1 - 0.25)) / 2, abs=1e-12)
    assert e["mAOE"] == pytest.approx((0.0 + 0.5) / 2, abs=1e-12)
    assert e["mAVE"] == pytest.approx((1.0 + 1.0) / 2, abs=1e-12)
    assert e["mAAE"] == 0.0


def test_tp_errors_orientation_wraps():
    pred = np.stack([box(0, 0, theta=math.pi - 0.1)])
    gt = np.stack([box(0, 0, theta=-math.pi + 0.1)])
    e = tp_errors(np.array([[0, 0]]), pred, gt, pred[:, 7:9])
    assert e["mAOE"] == pytest.approx(0.2, abs=1e-12)


def test_tp_errors_velocity_override():
    pred = np.stack([box(0, 0, vx=9.0, vy=9.0)])
    gt = np.stack([box(0, 0, vx=1.0, vy=0.0)])
    fused = np.array([[1.0, 0.0]])
    e = tp_errors(np.array([[0, 0]]), pred, gt, pred_velocity=fused)
    assert e["mAVE"] == pytest.approx(0.0, abs=1e-12)


def test_tp_errors_no_matches_saturate():
    # Every detection lies 1 km from every ground truth, beyond the TP gate.
    det_frames, scene_frames = perfect_run()
    for df in det_frames:
        for det in df.detections:
            det.box[0] += 1000.0
    rep = evaluate_detections(det_frames, scene_frames)
    assert rep.tp == dict.fromkeys(("mATE", "mASE", "mAOE", "mAVE", "mAAE"), 1.0)


# ---------------------------------------------------------------- AP


def test_ap_perfect_detections():
    gt = [np.stack([box(0, 0), box(10, 0)])]
    dets = [Detection(0, box(0, 0), 0.9, 0), Detection(0, box(10, 0), 0.8, 1)]
    assert average_precision(dets, gt, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_ap_all_misses_is_zero():
    gt = [np.stack([box(0, 0)])]
    dets = [Detection(0, box(30, 30), 0.9, 0)]
    assert average_precision(dets, gt, 2.0) == 0.0


def test_ap_no_ground_truth_is_none():
    assert average_precision([Detection(0, box(0, 0), 0.9, 0)],
                             [np.zeros((0, 9))], 2.0) is None


def test_ap_no_detections_is_zero():
    assert average_precision([], [np.stack([box(0, 0)])], 2.0) == 0.0


def test_ap_frozen_interpolation_case():
    # ranked TP, FP, TP over two gts: 50 levels at precision 1, the rest
    # interpolate toward 2/3; the exact 101-point mean is frozen here
    gt = [np.stack([box(0, 0), box(10, 0)])]
    dets = [
        Detection(0, box(0.1, 0), 0.9, 0),
        Detection(0, box(5.0, 0), 0.8, 1),
        Detection(0, box(10.2, 0), 0.7, 2),
    ]
    ap = average_precision(dets, gt, 1.0)
    assert ap == pytest.approx(0.7896039603960394, abs=1e-12)


def test_ap_pools_ranking_across_frames():
    # a confident false positive in frame 1 must depress precision for
    # frame 0's true positives ranked below it
    gt = [np.stack([box(0, 0)]), np.stack([box(0, 0)])]
    dets_clean = [
        Detection(0, box(0, 0), 0.9, 0),
        Detection(1, box(0, 0), 0.8, 0),
    ]
    dets_fp = dets_clean + [Detection(1, box(30, 30), 0.95, 1)]
    ap_clean = average_precision(dets_clean, gt, 2.0)
    ap_fp = average_precision(dets_fp, gt, 2.0)
    assert ap_clean == pytest.approx(1.0, abs=1e-12)
    assert ap_fp < ap_clean


def test_ap_one_gt_cannot_match_twice():
    gt = [np.stack([box(0, 0)])]
    dets = [Detection(0, box(0.1, 0), 0.9, 0), Detection(0, box(0.2, 0), 0.8, 1)]
    ap = average_precision(dets, gt, 2.0)
    # the second detection is a duplicate and counts as a false positive:
    # the final recall level interpolates to precision 0.5, the other 100
    # levels stay at 1.0, so AP = 100.5 / 101
    assert ap == pytest.approx(100.5 / 101, abs=1e-12)


# ---------------------------------------------------------------- NDS


def test_nds_hand_case():
    v = nds(0.5, {"mATE": 0.5, "mASE": 0.25, "mAOE": 1.7, "mAVE": 0.0, "mAAE": 0.0})
    assert v == pytest.approx((2.5 + 0.5 + 0.75 + 0.0 + 1.0 + 1.0) / 10, abs=1e-12)


def test_nds_reproduces_published_rows():
    # three published operating points, each reported to three digits
    rows = [
        (0.454, {"mATE": 0.601, "mASE": 0.272, "mAOE": 0.381,
                 "mAVE": 0.235, "mAAE": 0.168}, 0.561),
        (0.362, {"mATE": 0.756, "mASE": 0.276, "mAOE": 0.399,
                 "mAVE": 0.467, "mAAE": 0.189}, 0.472),
        (0.372, {"mATE": 0.598, "mASE": 0.270, "mAOE": 0.438,
                 "mAVE": 0.367, "mAAE": 0.190}, 0.500),
    ]
    for map_, tp, want in rows:
        assert nds(map_, tp) == pytest.approx(want, abs=5e-4)


def test_nds_saturates_large_errors():
    tp = {"mATE": 3.0, "mASE": 1.0, "mAOE": 2.0, "mAVE": 9.0, "mAAE": 1.5}
    assert nds(0.0, tp) == 0.0
    assert nds(1.0, tp) == 0.5


def test_nds_missing_key_raises():
    with pytest.raises(ValueError, match="mAVE"):
        nds(0.5, {"mATE": 0.5, "mASE": 0.5, "mAOE": 0.5, "mAAE": 0.5})


# ---------------------------------------------------------------- end to end


def perfect_run(seed=1, frames=2):
    cfg = SceneConfig(n_objects=3, background_points=10)
    seq = generate_sequence(cfg, frames, 0.5, make_rng(seed))
    det_frames = []
    for t, fr in enumerate(seq):
        dets = [
            Detection(frame=t, box=b.copy(), score=0.9, query_id=i)
            for i, b in enumerate(fr.boxes)
        ]
        det_frames.append(
            DetectionFrame(timestamp=fr.timestamp, detections=dets, fused=False)
        )
    return det_frames, seq


def test_evaluate_perfect_detections_scores_one():
    det_frames, scene_frames = perfect_run()
    rep = evaluate_detections(det_frames, scene_frames)
    assert rep.nds_ == pytest.approx(1.0, abs=1e-12)
    assert rep.map_ == pytest.approx(1.0, abs=1e-12)
    assert rep.tp["mATE"] == 0.0 and rep.tp["mAVE"] == 0.0
    assert set(rep.per_threshold_ap) == {0.5, 1.0, 2.0, 4.0}


def test_evaluate_frame_count_mismatch_names_counts():
    det_frames, scene_frames = perfect_run()
    with pytest.raises(ValueError, match=r"1.*2|2.*1"):
        evaluate_detections(det_frames[:1], scene_frames)


def test_evaluate_timestamp_mismatch():
    det_frames, scene_frames = perfect_run()
    for timestamp in (9.9, math.nan):  # NaN once passed as matching any frame
        bad = [DetectionFrame(timestamp, det_frames[0].detections, False)] + det_frames[1:]
        with pytest.raises(ValueError, match="timestamp"):
            evaluate_detections(bad, scene_frames)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_evaluate_rejects_a_bad_tp_threshold(threshold):
    det_frames, scene_frames = perfect_run()
    with pytest.raises(ValueError, match=f"tp_threshold must be positive and finite, got {threshold}"):
        evaluate_detections(det_frames, scene_frames, tp_threshold=threshold)


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
def test_matchers_reject_a_threshold_that_is_not_positive(threshold):
    boxes = np.zeros((1, 9))
    with pytest.raises(ValueError, match="threshold must be positive"):
        match_detections(boxes, boxes, threshold)


def test_evaluate_config_echo_and_determinism():
    det_frames, scene_frames = perfect_run()
    cfg = {"seed": 7, "note": "x"}
    a = evaluate_detections(det_frames, scene_frames, config=cfg)
    b = evaluate_detections(det_frames, scene_frames, config=cfg)
    assert a.config == cfg
    assert a.nds_ == b.nds_ and a.per_threshold_ap == b.per_threshold_ap


def test_evaluate_imperfect_below_one():
    det_frames, scene_frames = perfect_run(seed=3)
    # perturb one detection well past the smallest threshold
    det_frames[0].detections[0].box[0] += 0.7
    rep = evaluate_detections(det_frames, scene_frames)
    assert rep.nds_ < 1.0
    assert rep.per_threshold_ap[0.5] < 1.0
    assert rep.per_threshold_ap[4.0] == pytest.approx(1.0, abs=1e-12)


def test_write_report_round_trip(tmp_path):
    det_frames, scene_frames = perfect_run()
    rep = evaluate_detections(det_frames, scene_frames, config={"seed": 1})
    path = tmp_path / "report.json"
    write_report(rep, path)
    data = json.loads(path.read_text())
    assert data["NDS"] == pytest.approx(1.0)
    assert data["mAP"] == pytest.approx(1.0)
    assert data["mATE"] == 0.0
    assert data["per_threshold_AP"]["0.5"] == pytest.approx(1.0)
    assert data["config"] == {"seed": 1}
