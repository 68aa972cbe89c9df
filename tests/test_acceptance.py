"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS line each
criterion prints next to its measured value.  The whole file takes a few
minutes; criteria 5-8 dominate.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qebev.bench import BenchConfig, run_scaling
from qebev.bevscene import SceneConfig, generate_sequence
from qebev.cli import main as cli_main
from qebev.dqem import (
    DqemParams,
    aggregate_over_centers,
    diversity_loss,
    diversity_loss_grad,
    fit_projections,
    init_pillars,
    kmeans,
)
from qebev.evalkit import hungarian_assign, match_detections, nds
from qebev.ltfm import TemporalParams, evolve_queries, run_sequence
from qebev.numerics import derive_seed, make_rng


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -------------------------------------------------------------- criterion 1


def test_criterion_1_composite_score_anchor():
    """The composite detection score reproduces a published operating point."""
    got = nds(0.454, {"mATE": 0.601, "mASE": 0.272, "mAOE": 0.381,
                      "mAVE": 0.235, "mAAE": 0.168})
    ok = abs(got - 0.5613) <= 0.0005
    report(1, ok, f"nds = {got:.6f}, anchor 0.5613 +/- 0.0005")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_diversity_gradient():
    """Analytic entropy gradient matches central differences to 1e-6."""
    h = 1e-6
    worst = 0.0
    for k in (2, 6, 16):
        rng = make_rng(derive_seed(k, "crit2"))
        for _ in range(100):
            s = rng.normal(scale=1.5, size=k)
            g = diversity_loss_grad(s)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd = (diversity_loss(s + e) - diversity_loss(s - e)) / (2 * h)
                denom = max(abs(fd), 1e-3)
                worst = max(worst, abs(g[i] - fd) / denom)
    ok = worst < 1e-6
    report(2, ok, f"max relative gradient error {worst:.3e} (< 1e-6)")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_kmeans_correctness():
    """Lloyd updates never raise inertia; at the conventional ten-restart
    budget the clustering lands within 5% of a 100-restart oracle on fifty
    clustered instances (50 points, d = 4, K = 6)."""
    # (a) monotone inertia on 1000 seeded runs
    violations = 0
    for seed in range(1000):
        rng = make_rng(derive_seed(seed, "crit3a"))
        pts = rng.normal(size=(int(rng.integers(20, 60)), int(rng.integers(2, 6))))
        cs = kmeans(pts, int(rng.integers(2, 8)), 15, make_rng(seed))
        trace = cs.inertia_trace
        if any(b > a + 1e-9 for a, b in zip(trace, trace[1:])):
            violations += 1
    # (b) within 5% of the best of 100 restarts on fifty six-blob instances,
    # the regime the per-neighborhood clustering actually sees
    worst_ratio = 1.0
    for inst in range(50):
        rng = make_rng(derive_seed(inst, "crit3b"))
        blob_centers = rng.normal(scale=3.0, size=(6, 4))
        idx = rng.integers(0, 6, size=50)
        pts = blob_centers[idx] + rng.normal(scale=0.5, size=(50, 4))
        run_rng = make_rng(derive_seed(inst, "crit3b-run"))
        got = min(kmeans(pts, 6, 25, run_rng).inertia_trace[-1] for _ in range(10))
        best = min(
            kmeans(pts, 6, 25, make_rng(derive_seed(inst * 1000 + r, "crit3b-oracle")))
            .inertia_trace[-1]
            for r in range(100)
        )
        worst_ratio = max(worst_ratio, got / best if best > 0 else 1.0)
    ok = violations == 0 and worst_ratio <= 1.05
    report(3, ok, f"monotone violations {violations}/1000, "
                  f"worst inertia ratio {worst_ratio:.4f} (<= 1.05)")


# -------------------------------------------------------------- criterion 4


def test_criterion_4_hungarian_optimality():
    """Assignment cost equals the exhaustive permutation minimum."""
    rng = make_rng(derive_seed(0, "crit4"))
    mismatches = 0
    for _ in range(200):
        cost = rng.uniform(0, 10, size=(6, 6))
        pairs = hungarian_assign(cost)
        got = sum(cost[r, c] for r, c in pairs)
        best = min(
            sum(cost[i, p[i]] for i in range(6))
            for p in itertools.permutations(range(6))
        )
        if not math.isclose(got, best, rel_tol=0.0, abs_tol=1e-12):
            mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"{200 - mismatches}/200 assignments exactly optimal")


# -------------------------------------------------------------- criterion 5


def test_criterion_5_evolution_reduces_error():
    """Iterative refinement beats the initial decode on at least 90 of 100
    seeded scenes; the suite mean improves at every stage."""
    cfg = SceneConfig()
    params = DqemParams()
    wins = 0
    curves = []
    for seed in range(100):
        rng = make_rng(derive_seed(seed, "crit5"))
        fr = generate_sequence(cfg, 1, 0.5, rng)[0]
        starts, gts = [], []
        for box in fr.boxes:
            off = rng.uniform(-2.0, 2.0, size=2)
            starts.append([box[0] + off[0], box[1] + off[1], 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0])
            gts.append(box[:2])
        traces = evolve_queries(np.array(starts), fr, params,
                                make_rng(derive_seed(seed, "crit5-evolve")))
        per_obj = np.array([
            [float(np.hypot(d[0] - gt[0], d[1] - gt[1])) for d in tr.decoded]
            for tr, gt in zip(traces, gts)
        ])
        mean_curve = per_obj.mean(axis=0)
        curves.append(mean_curve)
        if mean_curve[-1] < mean_curve[0]:
            wins += 1
    suite = np.mean(curves, axis=0)
    stages_ok = bool(np.all(suite[1:] <= suite[0]))
    ok = wins >= 90 and stages_ok
    report(5, ok, f"final < initial on {wins}/100 seeds (>= 90); "
                  f"suite mean error by stage {np.round(suite, 4).tolist()}")
    # Behaviour pin beside the gate: a change to any decode moves this count.
    assert wins == 91, f"criterion 5 moved to {wins}/100 from the pinned 91/100"


# -------------------------------------------------------------- criterion 6


def crit6_velocity_error(result, seq, frames_eval):
    errs = []
    for t in frames_eval:
        dets = result.frames[t].detections
        gb = seq[t].boxes
        if not dets or not len(gb):
            continue
        pb = np.array([d.box for d in dets])
        for pi, gi in match_detections(pb, gb, 2.0):
            d = dets[pi]
            v = np.asarray(d.velocity) if d.velocity is not None else pb[pi, 7:9]
            errs.append(float(np.hypot(v[0] - gb[gi, 7], v[1] - gb[gi, 8])))
    return float(np.mean(errs)) if errs else None


def test_criterion_6_temporal_fusion_helps():
    """Fused runs report lower matched-velocity error than plain runs on at
    least 90 of 100 moving-object sequences."""
    params = DqemParams()
    cfg = SceneConfig(bounds=30.0, n_objects=4, points_per_object=20,
                      background_points=30, noise_sigma=0.05, d=16,
                      speed_min=1.0, speed_max=5.0)
    wins = losses = skipped = 0
    for seed in range(100):
        seq = generate_sequence(cfg, 8, 0.5, make_rng(derive_seed(seed, "crit6")))
        run_seed = derive_seed(seed, "crit6-run")
        fused = run_sequence(seq, params, TemporalParams(),
                             make_rng(run_seed), init_pillars(6, 6, 30.0))
        plain = run_sequence(seq, params, None,
                             make_rng(run_seed), init_pillars(6, 6, 30.0))
        ew = crit6_velocity_error(fused, seq, (2, 4, 6))
        eo = crit6_velocity_error(plain, seq, (2, 4, 6))
        if ew is None or eo is None:
            skipped += 1
        elif ew < eo:
            wins += 1
        else:
            losses += 1
    ok = wins >= 90
    report(6, ok, f"fusion lowered velocity error on {wins}/100 sequences "
                  f"(>= 90; {losses} losses, {skipped} skipped)")
    # Behaviour pin beside the gate, as in criterion 5.
    assert wins == 95, f"criterion 6 moved to {wins}/100 from the pinned 95/100"


# -------------------------------------------------------------- criterion 7


def test_criterion_7_diversity_flattens_attention():
    """Training with the entropy term yields strictly higher mean attention
    entropy than training without it, on a fixed 20-frame suite."""
    cfg = SceneConfig()
    suite = generate_sequence(cfg, 20, 0.5, make_rng(derive_seed(7, "crit7-suite")))
    entropy, steps = {}, {}
    for lam in (0.0, 0.1):
        fit = fit_projections(
            suite, DqemParams(), diversity_weight=lam,
            steps=40, lr=2.0, rng=make_rng(derive_seed(7, "crit7-fit")),
        )
        entropy[lam] = fit.attention_entropy
        steps[lam] = len(fit.objective_log) - 1
    gap = entropy[0.1] - entropy[0.0]
    ok = gap > 0.0
    report(7, ok, f"mean attention entropy {entropy[0.1]:.5f} with the term vs "
                  f"{entropy[0.0]:.5f} without (gap {gap:+.5f}), after "
                  f"{steps[0.1]} and {steps[0.0]} accepted steps")
    # Behaviour pin beside the gate, as in criteria 5 and 6: a change to the
    # fit's objective or descent moves these.
    pinned = (f"{entropy[0.1]:.5f}", steps[0.1], f"{entropy[0.0]:.5f}", steps[0.0])
    assert pinned == ("1.78125", 6, "1.77165", 33), f"criterion 7 moved to {pinned}"


# -------------------------------------------------------------- criterion 8


def test_criterion_8_refinement_scales_near_linearly():
    """Log-log slope of the per-query step time over the default sweep sits
    in [0.75, 1.25]."""
    rep = run_scaling(BenchConfig(), make_rng(derive_seed(7, "bench")))
    ok = 0.75 <= rep.slope <= 1.25
    report(8, ok, f"slope {rep.slope:.3f}, 95% CI "
                  f"[{rep.slope_ci[0]:.3f}, {rep.slope_ci[1]:.3f}]")


# -------------------------------------------------------------- criterion 9


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    """Two full pipeline runs from the same seed produce byte-identical
    reports, even in different directories."""
    outs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        code = cli_main(["pipeline", "--seed", "42", "--frames", "6",
                         "--out-dir", str(d)])
        assert code == 0
        outs.append((d / "report.json").read_bytes())
    printed = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("{")]
    ok = outs[0] == outs[1] and len(printed) == 2 and printed[0] == printed[1]
    nds_val = json.loads(outs[0])["NDS"]
    report(9, ok, f"report.json byte-identical across runs (NDS {nds_val:.3f})")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_degenerate_robustness():
    """Empty neighborhoods, single-point clusters, K above the distinct
    count, and zero-object frames finish finite and flagged."""
    notes = []

    # empty neighborhood: query far outside the populated area
    cfg = SceneConfig(n_objects=1, background_points=0)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(1))[0]
    start = np.array([200.0, 200.0, 1.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    [tr] = evolve_queries([start], fr, DqemParams(), make_rng(2))
    finite_empty = bool(np.all(np.isfinite(tr.feat)) and np.isfinite(tr.scale))
    notes.append(f"empty neighborhood flag '{tr.flag}'")
    ok = finite_empty and tr.flag == "empty"

    # single-point cluster: one sample, k clamps to 1
    cs1 = kmeans(np.array([[3.0, 4.0]]), 4, 10, make_rng(3))
    ok &= cs1.centers.shape[0] == 1 and np.all(np.isfinite(cs1.centers))
    notes.append(f"single point: k_eff {cs1.centers.shape[0]} of requested 4")

    # K above the distinct-feature count
    pts = np.array([[1.0, 1.0]] * 6 + [[2.0, 2.0]] * 3)
    cs2 = kmeans(pts, 6, 10, make_rng(4))
    ok &= cs2.centers.shape[0] == 2 and cs2.inertia_trace[-1] == 0.0
    notes.append(f"duplicates: k_eff {cs2.centers.shape[0]} of requested 6")

    # attention with no centers at all: nothing selected, query passes through
    r = aggregate_over_centers(np.ones(4), np.zeros((0, 4)), top_k=2)
    ok &= bool(r.selected.size == 0 and np.all(np.isfinite(r.aggregated)))
    notes.append("empty center set selects nothing")

    # all-zero features: the blend step reports the zero outcome
    from qebev.dqem import blend_and_rescale

    rz = aggregate_over_centers(np.zeros(4), np.zeros((3, 4)), top_k=2)
    qz, sz, flag = blend_and_rescale(np.zeros(4), 1.0, rz, np.zeros((3, 4)),
                                     beta=0.6, sizes=np.ones(3))
    ok &= bool(flag == "degenerate-zero-blend" and np.all(np.isfinite(qz))
               and np.isfinite(sz))
    notes.append(f"zero-feature blend flag '{flag}'")

    # zero-object frame through the full per-frame path
    cfg0 = SceneConfig(n_objects=0, background_points=30)
    seq0 = generate_sequence(cfg0, 3, 0.5, make_rng(5))
    res = run_sequence(seq0, DqemParams(), TemporalParams(), make_rng(6),
                       init_pillars(3, 3, 50.0))
    for frame in res.frames:
        for det in frame.detections:
            ok &= bool(np.all(np.isfinite(det.box)))
    notes.append(f"zero-object frames produced "
                 f"{sum(len(f.detections) for f in res.frames)} background detections")

    report(10, ok, "; ".join(notes))
