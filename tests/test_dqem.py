import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from qebev.bevscene import Frame, SceneConfig, decode_feature, generate_sequence
from qebev.dqem import (
    DetectionFrame,
    DqemParams,
    aggregate_over_centers,
    attention_scores,
    blend_and_rescale,
    dedup_detections,
    diversity_loss,
    diversity_loss_grad,
    fit_projections,
    gather_neighborhood,
    init_pillars,
    kmeans,
    read_detections,
    write_detections,
)
from qebev.ltfm import TemporalParams, evolve_queries, iter_sequence
from qebev.numerics import make_rng, softmax


# ---------------------------------------------------------------- params


@pytest.mark.parametrize("field, value", [
    ("k", 0), ("top_k", 0), ("top_k", 7), ("beta", -0.1), ("beta", math.nan),
    ("beta", math.inf), ("radius", 0.0), ("radius", -1.0), ("radius", math.nan),
    ("iterations", -1), ("kmeans_iters", 0), ("tau_bg", -0.1), ("tau_bg", math.nan),
    ("tau_bg", math.inf), ("k", 2.5), ("top_k", 2.5), ("top_k", True), ("iterations", 1.5),
    ("kmeans_iters", 2.5),
])
def test_dqem_params_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        DqemParams(**{field: value})


def test_dqem_params_accepts_zero_weights_and_rounds():
    DqemParams(beta=0.0, iterations=0, tau_bg=0.0)


# ---------------------------------------------------------------- pillars


PRIOR = [0.0, 0.0, 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0]


def test_init_pillars_single_cell_center():
    [box] = init_pillars(1, 1, 10.0)
    assert box.dtype == np.float64 and box.tobytes() == np.array(PRIOR).tobytes()


def test_init_pillars_is_read_only():
    grid = init_pillars(3, 2, 10.0)
    assert grid.shape == (6, 9) and not grid.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid[4][:2] += 1.0


def test_init_pillars_two_by_two_centers():
    got = [tuple(b[:2].tolist()) for b in init_pillars(2, 2, 10.0)]
    # row-major, x fastest
    assert got == [(-5.0, -5.0), (5.0, -5.0), (-5.0, 5.0), (5.0, 5.0)]


def test_init_pillars_grid_in_bounds():
    boxes = init_pillars(10, 10, 50.0)
    assert len(boxes) == 100
    assert (np.abs(boxes[:, :2]) < 50).all()
    assert (boxes[:, 2:] == PRIOR[2:]).all()
    # all centers distinct
    assert len({tuple(b[:2].tolist()) for b in boxes}) == 100


def test_init_pillars_validation():
    with pytest.raises(ValueError):
        init_pillars(0, 3, 50.0)


@pytest.mark.parametrize("grid, message", [
    ((2.5, 3), "grid_nx must be an integer, got 2.5"),
    ((3, True), "grid_ny must be an integer, got True"),
])
def test_init_pillars_refuses_a_grid_size_that_is_not_an_integer(grid, message):
    # 2.5 columns once failed in numpy: "'float' object cannot be interpreted
    # as an integer".
    with pytest.raises(ValueError) as info:
        init_pillars(*grid, 10.0)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_init_pillars_rejects_a_bad_half_extent(value):
    with pytest.raises(ValueError, match=f"bounds must be positive and finite, got {value}"):
        init_pillars(3, 3, value)


def test_init_pillars_rejects_a_half_extent_whose_span_overflows():
    # The scene's rule: every pillar center was once inf.
    with pytest.raises(ValueError, match=r"^bounds 1e\+308 overflows the scene span 2 \* bounds$"):
        init_pillars(3, 3, 1e308)


@pytest.mark.parametrize("bounds", [50.0, 30.0, 12.0, 7.3, 0.1, 1e-200, 1e154])
def test_init_pillars_centers_are_the_direct_formula(bounds):
    for n in range(1, 25):
        want = -bounds + (np.arange(n) + 0.5) * (2.0 * bounds) / n
        assert init_pillars(n, 2, bounds)[:n, 0].tobytes() == want.tobytes()


@pytest.mark.parametrize("bounds", [5e307, sys.float_info.max / 2.0])
def test_init_pillars_near_the_float_maximum_stay_finite(bounds):
    # (i + 0.5) * 2 * bounds once overflowed: the far centers were inf, with
    # a numpy overflow warning.
    xs = init_pillars(10, 10, bounds)[:10, 0]
    assert np.isfinite(xs).all() and (np.diff(xs) > 0.0).all()
    assert -bounds < xs[0] and xs[-1] < bounds


# ---------------------------------------------------------------- gather


def test_gather_matches_brute_force():
    cfg = SceneConfig(n_objects=3, background_points=40)
    rng = make_rng(11)
    fr = generate_sequence(cfg, 1, 0.5, rng)[0]
    for _ in range(20):
        center = rng.uniform(-50, 50, size=2)
        radius = float(rng.uniform(2, 15))
        got = gather_neighborhood(fr, center, radius)
        dist = np.linalg.norm(fr.xy - center, axis=1)
        want = np.flatnonzero(dist <= radius)
        assert got.tolist() == want.tolist()


def test_gather_boundary_inclusive():
    cfg = SceneConfig(n_objects=1, background_points=0, noise_sigma=0.0)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(2))[0]
    pt = fr.xy[0]
    center = pt + np.array([3.0, 0.0])
    got = gather_neighborhood(fr, center, 3.0)
    assert 0 in got.tolist()


def test_gather_empty():
    cfg = SceneConfig(n_objects=1, background_points=0)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(2))[0]
    got = gather_neighborhood(fr, np.array([500.0, 500.0]), 5.0)
    assert len(got) == 0


def test_gather_refuses_a_radius_that_is_not_positive():
    fr = generate_sequence(SceneConfig(n_objects=1), 1, 0.5, make_rng(2))[0]
    with pytest.raises(ValueError, match="^radius must be positive$"):
        gather_neighborhood(fr, np.zeros(2), 0.0)


# ---------------------------------------------------------------- kmeans


def test_kmeans_k1_is_mean():
    rng = make_rng(3)
    pts = rng.normal(size=(40, 6))
    cs = kmeans(pts, 1, 20, make_rng(0))
    assert np.allclose(cs.centers[0], pts.mean(axis=0), atol=1e-12)
    assert cs.sizes.tolist() == [40]


def test_kmeans_two_clumps_exact():
    pts = np.array([[0.0], [0.0], [10.0], [10.0]])
    cs = kmeans(pts, 2, 20, make_rng(0))
    assert sorted(cs.centers.ravel().tolist()) == [0.0, 10.0]
    assert cs.inertia_trace[-1] == 0.0
    assert sorted(cs.sizes.tolist()) == [2, 2]


def test_kmeans_inertia_never_increases():
    rng = make_rng(8)
    for trial in range(200):
        pts = rng.normal(size=(30, 4))
        cs = kmeans(pts, 5, 15, make_rng(trial))
        trace = cs.inertia_trace
        assert len(trace) >= 1
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12


def test_kmeans_centers_consistent_with_assignments():
    rng = make_rng(12)
    pts = rng.normal(size=(60, 3))
    cs = kmeans(pts, 4, 25, make_rng(1))
    for c in range(cs.centers.shape[0]):
        members = pts[cs.assignments == c]
        assert len(members) == cs.sizes[c]
        assert np.allclose(cs.centers[c], members.mean(axis=0), atol=1e-9)
    # every point belongs to its nearest center
    d2 = ((pts[:, None, :] - cs.centers[None]) ** 2).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), cs.assignments)


def test_kmeans_clamps_to_distinct_points():
    pts = np.array([[1.0, 2.0]] * 5 + [[3.0, 4.0]] * 2)
    cs = kmeans(pts, 6, 20, make_rng(0))
    assert cs.centers.shape[0] == 2
    assert cs.inertia_trace[-1] == 0.0


def test_kmeans_deterministic():
    rng = make_rng(5)
    pts = rng.normal(size=(50, 4))
    a = kmeans(pts, 6, 20, make_rng(99))
    b = kmeans(pts, 6, 20, make_rng(99))
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centers, b.centers)


def test_kmeans_near_best_of_restarts():
    # single seeded run should land close to the best of many restarts
    # on small problems
    rng = make_rng(7)
    for trial in range(10):
        pts = rng.normal(size=(25, 2))
        best = min(
            kmeans(pts, 3, 30, make_rng(1000 + r)).inertia_trace[-1] for r in range(100)
        )
        got = kmeans(pts, 3, 30, make_rng(trial)).inertia_trace[-1]
        assert got <= best * 1.25 + 1e-12


def test_kmeans_drops_clusters_the_final_assignment_leaves_empty():
    # The center at 100 draws no point; with one update it is reseeded but
    # never assigned, so only two clusters come back, relabelled 0 and 1.
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    cs = kmeans(pts, 3, 1, make_rng(0), init=np.array([[0.5], [100.0], [10.5]]))
    assert cs.k_eff == 2
    assert cs.assignments.tolist() == [0, 0, 1, 1]
    assert cs.centers.tolist() == [[0.5], [10.5]]
    assert cs.sizes.tolist() == [2, 2]
    assert set(cs.assignments.tolist()) == set(range(cs.k_eff))
    for c in range(cs.k_eff):
        assert cs.centers[c].tolist() == pts[cs.assignments == c].mean(axis=0).tolist()


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 3)), 2, 20, make_rng(0))
    with pytest.raises(ValueError):
        kmeans(np.zeros((5, 3)), 0, 20, make_rng(0))
    with pytest.raises(ValueError):
        kmeans(np.ones((5, 3)), 2, 0, make_rng(0))


# ---------------------------------------------------------------- attention


def test_attention_scores_identity_projection():
    d = 4
    q = np.array([1.0, 0.0, 0.0, 0.0])
    centers = np.vstack([np.eye(d), np.full((1, d), 0.5)])
    s = attention_scores(q, centers)
    # q . c / sqrt(4)
    assert np.allclose(s, [0.5, 0.0, 0.0, 0.0, 0.25], atol=1e-12)


def test_attention_scores_matches_triple_loop():
    rng = make_rng(21)
    d, K = 8, 5
    for _ in range(25):
        q = rng.normal(size=d)
        centers = rng.normal(size=(K, d))
        got = attention_scores(q, centers)
        want = np.empty(K)
        for c in range(K):
            acc = 0.0
            for i in range(d):
                acc += q[i] * centers[c, i]
            want[c] = acc / math.sqrt(d)
        assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("d", [4, 9, 16])
def test_attention_scores_equal_the_identity_projected_product_bitwise(d):
    # The golden outputs were pinned with (I @ c.T).T @ (I @ q) / sqrt(d);
    # a row-major c @ q sums in another order and misses them by an ulp.
    rng = make_rng(22)
    eye = np.eye(d)
    for _ in range(200):
        q = rng.normal(size=d)
        centers = rng.normal(size=(int(rng.integers(1, 13)), d))
        want = (eye @ centers.T).T @ (eye @ q) / math.sqrt(d)
        assert attention_scores(q, centers).tobytes() == want.tobytes()


# ---------------------------------------------------------------- diversity


def test_diversity_loss_uniform_is_log_k():
    for k in (2, 6, 16):
        s = np.zeros(k)
        assert diversity_loss(s) == pytest.approx(math.log(k), abs=1e-12)


def test_diversity_loss_peaked_is_small():
    s = np.array([100.0, 0.0, 0.0, 0.0])
    assert diversity_loss(s) < 1e-10


def test_diversity_loss_matches_entropy_oracle():
    rng = make_rng(33)
    for _ in range(100):
        s = rng.normal(scale=2.0, size=int(rng.integers(2, 12)))
        p = softmax(s)
        want = float(-(p * np.log(p)).sum())
        assert diversity_loss(s) == pytest.approx(want, abs=1e-10)


def test_diversity_loss_range():
    rng = make_rng(40)
    for _ in range(200):
        k = int(rng.integers(2, 10))
        s = rng.normal(scale=3.0, size=k)
        v = diversity_loss(s)
        assert -1e-12 <= v <= math.log(k) + 1e-12


def test_diversity_grad_sums_to_zero():
    rng = make_rng(50)
    for _ in range(100):
        s = rng.normal(size=int(rng.integers(2, 9)))
        g = diversity_loss_grad(s)
        assert abs(g.sum()) < 1e-10


def test_diversity_grad_zero_at_uniform():
    g = diversity_loss_grad(np.zeros(6))
    assert np.allclose(g, 0.0, atol=1e-12)


def test_diversity_grad_finite_difference():
    rng = make_rng(60)
    h = 1e-6
    for _ in range(50):
        k = int(rng.integers(2, 10))
        s = rng.normal(scale=1.5, size=k)
        g = diversity_loss_grad(s)
        for i in range(k):
            e = np.zeros(k)
            e[i] = h
            fd = (diversity_loss(s + e) - diversity_loss(s - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=5e-6)


# ---------------------------------------------------------------- aggregate


def test_aggregate_all_equal_centers_returns_that_center():
    d = 6
    centers = np.tile(np.linspace(1, 2, d), (5, 1))
    q = np.ones(d)
    r = aggregate_over_centers(q, centers, top_k=3)
    assert np.allclose(r.aggregated, centers[0], atol=1e-12)
    assert r.selected.size == 3


def test_aggregate_dominant_center_wins():
    d = 4
    rng = make_rng(71)
    centers = rng.normal(size=(6, d))
    q = rng.normal(size=d)
    # push one center to overwhelming alignment with q
    centers[3] = q * 50.0
    r = aggregate_over_centers(q, centers, top_k=2)
    assert r.selected[0] == 3
    assert np.allclose(r.aggregated, centers[3], atol=1e-10 * 50)
    assert r.weights[0] > 1.0 - 1e-12


def test_aggregate_composition_oracle():
    # selected indices, softmax weights over selected raw scores, then the
    # weighted sum: rebuild each piece from primitives
    rng = make_rng(72)
    d, K, topk = 8, 7, 4
    for _ in range(30):
        q = rng.normal(size=d)
        centers = rng.normal(size=(K, d))
        r = aggregate_over_centers(q, centers, top_k=topk)
        s = attention_scores(q, centers)
        order = sorted(range(K), key=lambda i: (-s[i], i))[:topk]
        assert r.selected.tolist() == order
        w = softmax(s[order])
        assert np.allclose(r.weights, w, atol=1e-12)
        assert np.allclose(r.aggregated, w @ centers[order], atol=1e-10)


def test_aggregate_clamps_top_k():
    d = 4
    centers = make_rng(74).normal(size=(2, d))
    q = np.ones(d)
    r = aggregate_over_centers(q, centers, top_k=5)
    assert len(r.selected) == 2
    assert np.isclose(r.weights.sum(), 1.0)


# ---------------------------------------------------------------- blend


def test_blend_noiseless_exactness():
    # all selected centers identical and nonzero: the anchor equals the
    # center norm, so the rescaled query reproduces it exactly
    d = 6
    c = np.linspace(0.5, 2.0, d)
    centers = np.tile(c, (4, 1))
    q = c / np.linalg.norm(c)
    r = aggregate_over_centers(q, centers, top_k=3)
    qn, scale, flag = blend_and_rescale(q, 1.0, r, centers, beta=0.6, sizes=np.ones(4))
    assert flag == ""
    assert np.allclose(qn * scale, c, atol=1e-10)
    assert np.isclose(np.linalg.norm(qn), 1.0)


def test_blend_population_weighted_anchor():
    d = 3
    centers = np.array([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 6.0]])
    sizes = np.array([10, 5, 1])
    q = np.array([1.0, 0.0, 0.0])
    r = aggregate_over_centers(q, centers, top_k=2)
    sel = r.selected
    w = sizes[sel].astype(float)
    want = float(w @ np.linalg.norm(centers[sel], axis=1) / w.sum())
    _, scale, flag = blend_and_rescale(q, 1.0, r, centers, beta=0.6, sizes=sizes)
    assert flag == ""
    assert scale == pytest.approx(want, abs=1e-12)


def test_blend_zero_flag():
    d = 4
    centers = np.zeros((3, d))
    q = np.zeros(d)
    r = aggregate_over_centers(q, centers, top_k=2)
    qn, scale, flag = blend_and_rescale(q, 1.0, r, centers, beta=0.6, sizes=np.ones(3))
    assert flag == "degenerate-zero-blend"
    assert np.all(np.isfinite(qn)) and np.isfinite(scale)


def test_blend_beta_zero_takes_aggregate_direction():
    d = 5
    rng = make_rng(80)
    centers = rng.normal(size=(6, d)) + 3.0
    q = rng.normal(size=d)
    q /= np.linalg.norm(q)
    r = aggregate_over_centers(q, centers, top_k=3)
    qn, _, _ = blend_and_rescale(q, 1.0, r, centers, beta=0.0, sizes=np.ones(6))
    want = r.aggregated / np.linalg.norm(r.aggregated)
    assert np.allclose(qn, want, atol=1e-12)


# ---------------------------------------------------------------- evolution


def test_evolve_noiseless_on_target_query():
    cfg = SceneConfig(n_objects=1, noise_sigma=0.0, background_points=0)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(3))[0]
    gt = fr.boxes[0]
    start = np.array([gt[0], gt[1], *PRIOR[2:]])
    params = DqemParams(k=3, top_k=2, beta=0.0, radius=8.0, iterations=1)
    traces = evolve_queries([start], fr, params, make_rng(5))
    assert len(traces) == 1
    tr = traces[0]
    assert tr.flag == ""
    dec = decode_feature(tr.feat * tr.scale, fr.encoder_seed)
    assert math.hypot(dec[0] - gt[0], dec[1] - gt[1]) <= 1e-6
    assert tr.attrs is tr.decoded[-1] and tr.attrs.tobytes() == dec.tobytes()
    assert 0.0 < tr.score <= 1.0
    assert len(tr.decoded) == params.iterations + 1


def test_evolve_empty_neighborhood_flagged():
    cfg = SceneConfig(n_objects=1, background_points=0)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(2))[0]
    start = np.array([1001.0, 1001.0, *PRIOR[2:]])
    params = DqemParams()
    traces = evolve_queries([start], fr, params, make_rng(1))
    assert traces[0].flag == "empty" and traces[0].attrs is start
    [(out, traces)] = iter_sequence([fr], params, None, make_rng(1), np.array([start]))
    assert traces[0].flag == "empty" and out.detections == []


def test_evolve_an_empty_query_grid_returns_no_queries():
    fr = generate_sequence(SceneConfig(n_objects=1), 1, 0.5, make_rng(2))[0]
    assert evolve_queries([], fr, DqemParams(), make_rng(1)) == []
    for tparams in (None, TemporalParams(stride=1)):
        frames = [fr, replace(fr, timestamp=1.0)]
        out = list(iter_sequence(frames, DqemParams(), tparams, make_rng(1), np.zeros((0, 9))))
        assert [(o.detections, traces) for o, traces in out] == [([], [])] * 2


def test_evolve_deterministic():
    cfg = SceneConfig(n_objects=3)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(14))[0]
    starts = init_pillars(4, 4, 50.0)
    params = DqemParams(iterations=2)
    a = evolve_queries(starts, fr, params, make_rng(9))
    b = evolve_queries(starts, fr, params, make_rng(9))
    assert len(a) == len(b) == len(starts)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.feat, tb.feat)
        assert ta.scale == tb.scale
        assert ta.flag == tb.flag


def test_evolve_outputs_finite_on_hard_scenes():
    # degenerate-prone setup: sparse points, many queries, tiny radius
    cfg = SceneConfig(n_objects=1, points_per_object=3, background_points=2)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(44))[0]
    starts = init_pillars(5, 5, 50.0)
    params = DqemParams(k=6, top_k=4, radius=6.0)
    traces = evolve_queries(starts, fr, params, make_rng(4))
    for tr in traces:
        assert np.all(np.isfinite(tr.feat))
        assert np.isfinite(tr.scale)
        assert 0.0 <= tr.score <= 1.0


@pytest.mark.parametrize("iterations", [0, 2])
def test_a_healthy_query_scores_its_detection(iterations):
    # A detection's confidence is its query's score: the largest attention
    # weight of the final round, or 0.0 when no round ran.
    fr = generate_sequence(SceneConfig(n_objects=3), 1, 0.5, make_rng(14))[0]
    [(out, traces)] = iter_sequence([fr], DqemParams(iterations=iterations), None, make_rng(9),
                                    init_pillars(4, 4, 50.0))
    dets = out.detections
    assert dets
    # The healthy queries become the detections, in query order, each at
    # its final box; flagged queries are dropped.
    assert [det.query_id for det in dets] == [qi for qi, tr in enumerate(traces) if not tr.flag]
    for det in dets:
        assert det.velocity is None
        assert det.box.tobytes() == traces[det.query_id].attrs.tobytes()
        assert det.score == traces[det.query_id].score
        assert 0.0 < det.score <= 1.0 if iterations else det.score == 0.0


# ---------------------------------------------------------------- fit


def small_suite(n_frames=3, seed=90):
    cfg = SceneConfig(n_objects=2, background_points=20, noise_sigma=0.05)
    return [generate_sequence(cfg, 1, 0.5, make_rng(seed + i))[0] for i in range(n_frames)]


@pytest.mark.parametrize("value", [-0.1, math.nan])
def test_fit_rejects_bad_diversity_weight(value):
    with pytest.raises(ValueError, match="^diversity_weight "):
        fit_projections(small_suite(n_frames=1), DqemParams(), make_rng(0),
                        diversity_weight=value)


@pytest.mark.parametrize("kwargs, message", [
    ({"lr": math.nan}, "lr must be positive and finite, got nan"),
    ({"lr": math.inf}, "lr must be positive and finite, got inf"),
    ({"lr": 0.0}, "lr must be positive and finite, got 0.0"),
    ({"steps": 2.5}, "steps must be an integer, got 2.5"),
    ({"steps": -1}, "steps must be non-negative"),
])
def test_fit_rejects_bad_rate_and_step_count(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_projections(small_suite(n_frames=1), DqemParams(), make_rng(0), **kwargs)


def with_features(frame, feat):
    return Frame(frame.timestamp, frame.boxes, frame.track_ids, frame.xy, feat,
                 frame.encoder_seed)


@pytest.mark.parametrize("suite, params", [
    # Every neighborhood empty, zero-mean, or with fewer distinct rows than k.
    (lambda fr: fr, DqemParams(radius=1e-9)),
    (lambda fr: with_features(fr, np.zeros_like(fr.feat)), DqemParams()),
    (lambda fr: with_features(fr, np.ones_like(fr.feat)), DqemParams()),
])
def test_fit_refuses_a_suite_without_usable_neighborhoods(suite, params):
    [frame] = small_suite(n_frames=1)
    with pytest.raises(ValueError, match="^calibration suite produced no usable neighborhoods$"):
        fit_projections([suite(frame)], params, make_rng(0))


def test_fit_refuses_a_non_finite_objective():
    # Features near the float maximum overflow the decoded error.
    [frame] = small_suite(n_frames=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="^non-finite calibration objective "):
            fit_projections([with_features(frame, frame.feat * 1e154)],
                            DqemParams(k=1, top_k=1), make_rng(0))


def test_fit_zero_steps_is_near_identity_init():
    frames = small_suite()
    params = DqemParams(iterations=1)
    res = fit_projections(frames, params, steps=0, rng=make_rng(1))
    d = frames[0].d
    assert np.allclose(res.w_q, np.eye(d), atol=0.05)
    assert np.allclose(res.w_k, np.eye(d), atol=0.05)
    # log holds only the objective at the starting point
    assert len(res.objective_log) == 1


def test_fit_objective_decreases():
    frames = small_suite()
    params = DqemParams(iterations=1)
    res = fit_projections(frames, params, steps=8, lr=0.05, rng=make_rng(2))
    # initial value plus one entry per step
    assert len(res.objective_log) == 9
    assert res.objective_log[-1] <= res.objective_log[0] + 1e-9
    assert np.isfinite(res.attention_entropy)


def test_fit_deterministic():
    frames = small_suite()
    params = DqemParams(iterations=1)
    a = fit_projections(frames, params, steps=4, rng=make_rng(3))
    b = fit_projections(frames, params, steps=4, rng=make_rng(3))
    assert np.array_equal(a.w_q, b.w_q)
    assert a.objective_log == b.objective_log


# ---------------------------------------------------------------- detections


def make_det(x, y, score, qid):
    box = np.array([x, y, 1.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    from qebev.dqem import Detection

    return Detection(box=box, score=score, query_id=qid)


def test_dedup_keeps_higher_score():
    dets = [make_det(0, 0, 0.5, 0), make_det(0.5, 0, 0.9, 1), make_det(10, 0, 0.3, 2)]
    out = dedup_detections(dets, radius=2.0)
    assert [d.query_id for d in out] == [1, 2]


def test_dedup_chain_is_greedy_by_score():
    # A(0) B(1.5) C(3.0): B beats both, A and C are 3 apart so only B stays
    # with radius 2; with radius 1 nothing merges
    dets = [make_det(0, 0, 0.4, 0), make_det(1.5, 0, 0.9, 1), make_det(3.0, 0, 0.5, 2)]
    assert [d.query_id for d in dedup_detections(dets, 2.0)] == [1]
    assert len(dedup_detections(dets, 1.0)) == 3


@pytest.mark.parametrize("radius", [-1.0, math.nan])
def test_dedup_rejects_negative_or_nan_radius(radius):
    dets = [make_det(0, 0, 0.5, 0), make_det(0.5, 0, 0.9, 1)]
    with pytest.raises(ValueError, match="dedup radius must be non-negative"):
        dedup_detections(dets, radius)


def test_detections_io_round_trip(tmp_path):
    frames = [
        DetectionFrame(timestamp=0.0, detections=[make_det(1, 2, 0.7, 3)], fused=False),
        DetectionFrame(timestamp=0.5, detections=[], fused=True),
    ]
    path = tmp_path / "dets.jsonl"
    write_detections(path, frames, params_echo={"k": 6, "radius": 8.0})
    back = read_detections(path)
    assert len(back) == 2
    assert back[0].timestamp == 0.0 and back[1].fused is True
    d = back[0].detections[0]
    assert np.array_equal(d.box, frames[0].detections[0].box)
    assert d.score == 0.7 and d.query_id == 3
    assert back[1].detections == []


def test_detections_io_velocity_preserved(tmp_path):
    from qebev.dqem import Detection

    det = Detection(
        box=np.array([1, 2, 1, 1, 2, 1, 0, 3.0, 4.0], dtype=float),
        score=0.5,
        query_id=0,
        velocity=np.array([2.5, -1.5]),
    )
    path = tmp_path / "v.jsonl"
    write_detections(path, [DetectionFrame(0.0, [det], False)], {})
    back = read_detections(path)
    assert np.allclose(back[0].detections[0].velocity, [2.5, -1.5])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("box", [1.0] * 8, "box must be 9 numbers, got shape (8,)"),
        ("box", [[1.0] * 9], "box must be 9 numbers, got shape (1, 9)"),
        ("box", [1.0] * 8 + [math.nan], "box is not finite"),
        ("box", [1.0, math.inf] + [1.0] * 7, "box is not finite"),
        ("score", math.nan, "score is not finite"),
        ("score", -math.inf, "score is not finite"),
        ("velocity", [1.0, 2.0, 3.0], "velocity must be 2 numbers, got shape (3,)"),
        ("velocity", [math.nan, 0.0], "velocity is not finite"),
        ("velocity", [0.0, math.inf], "velocity is not finite"),
        ("box", [1.0] * 3 + [-2.0] + [1.0] * 5, "box size must be positive"),
        ("box", [1.0] * 5 + [0.0] + [1.0] * 3, "box size must be positive"),
        ("query_id", 3.9, "query_id must be an integer, got 3.9"),
        ("query_id", True, "query_id must be an integer, got True"),
        ("box", ["1.0"] * 9, "box must be a number, got '1.0'"),
        ("box", [1.0] * 8 + [True], "box must be a number, got True"),
        ("velocity", [0.0, False], "velocity must be a number, got False"),
        # numpy's inhomogeneous-shape error once surfaced in the message.
        ("box", [[1.0], [1.0, 2.0]], "box must be 9 numbers, got shape (2,)"),
    ],
)
def test_read_detections_rejects_bad_detection(tmp_path, field, value, message):
    good = make_det(1, 2, 0.7, 3)
    frames = [
        DetectionFrame(timestamp=0.0, detections=[good], fused=False),
        DetectionFrame(timestamp=0.5, detections=[good, good], fused=True),
    ]
    path = tmp_path / "dets.jsonl"
    write_detections(path, frames, params_echo={})
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["detections"][1][field] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_detections(path)
    assert str(info.value) == f"{path}:2: detection 1: {message}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("timestamp", "0.5", "timestamp must be a number, got '0.5'"),
        ("timestamp", True, "timestamp must be a number, got True"),
        ("score", "0.9", "score must be a number, got '0.9'"),
        ("fused", "maybe", "fused must be true or false, got 'maybe'"),
        ("fused", 1, "fused must be true or false, got 1"),
        pytest.param("score", 10**400, "int too large to convert to float", id="huge-int"),
        ("detections", {}, "detections must be an array, got {}"),
        ("detections", None, "detections must be an array, got None"),
    ],
)
def test_read_detections_rejects_a_malformed_record(tmp_path, field, value, message):
    # Each was once read (a string or true as a number, any value as fused,
    # an object or null as no detections) or, for a huge integer, ended the
    # run as an unexpected failure.
    frames = [
        DetectionFrame(timestamp=0.0, detections=[], fused=False),
        DetectionFrame(timestamp=0.5, detections=[make_det(1, 2, 0.7, 3)], fused=True),
    ]
    path = tmp_path / "dets.jsonl"
    write_detections(path, frames, params_echo={})
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    (rec["detections"][0] if field == "score" else rec)[field] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_detections(path)
    fault = f"detection 0: {message}" if field == "score" else (
        f"malformed detection record ({message})")
    assert str(info.value) == f"{path}:2: {fault}"


@pytest.mark.parametrize("timestamp, message", [
    (math.nan, "timestamp nan is not finite"),
    (-math.inf, "timestamp -inf is not finite"),
    (0.0, "timestamp 0.0 is not later than the previous frame's 0.0"),
    (-1.0, "timestamp -1.0 is not later than the previous frame's 0.0"),
])
def test_read_detections_rejects_a_timestamp_not_finite_or_not_later(tmp_path, timestamp, message):
    # A NaN timestamp was once read and scored, as was one going back.
    frames = [DetectionFrame(0.0, [], False), DetectionFrame(0.5, [], True)]
    path = tmp_path / "dets.jsonl"
    write_detections(path, frames, params_echo={})
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["timestamp"] = timestamp
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_detections(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_read_detections_reports_bad_json_and_skips_blank_lines(tmp_path):
    path = tmp_path / "dets.jsonl"
    write_detections(path, [DetectionFrame(0.0, [], False)], params_echo={})
    (line,) = path.read_text().splitlines()
    path.write_text(f"\n \t\n{line}\r\n\n")
    assert [f.timestamp for f in read_detections(path)] == [0.0]
    path.write_text(f"\n{line}\n{{not json\n")
    with pytest.raises(ValueError) as info:
        read_detections(path)
    assert str(info.value).startswith(f"{path}:3: bad JSON (")
