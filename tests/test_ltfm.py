import copy
import math
import tracemalloc

import numpy as np
import pytest

import qebev.dqem
import qebev.ltfm
from qebev.bevscene import SceneConfig, generate_sequence
from qebev.dqem import (
    Detection,
    DqemParams,
    ProjectionPair,
    aggregate_over_centers,
    kmeans,
)
from qebev.ltfm import (
    BACKTRACK_GATE,
    TemporalParams,
    _velocity_estimate,
    iter_sequence,
    run_sequence,
    temporal_aggregate,
    temporal_init,
)
from qebev import evolve_queries, init_pillars
from qebev.numerics import derive_seed, draw_seed, make_rng


def identity_proj(d):
    return ProjectionPair(np.eye(d), np.eye(d))


# ------------------------------------------------------------- primitives


def test_temporal_init_endpoints():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert np.allclose(temporal_init(a, b, alpha=1.0), a, atol=1e-12)
    assert np.allclose(temporal_init(a, b, alpha=0.0), b, atol=1e-12)
    got = temporal_init(a, b, alpha=0.4)
    assert np.allclose(got, [0.4, 0.6, 0.0], atol=1e-12)


def test_temporal_init_segment_property():
    rng = make_rng(4)
    for _ in range(50):
        a, b = rng.normal(size=(2, 8))
        alpha = float(rng.uniform())
        got = temporal_init(a, b, alpha)
        assert np.allclose(got, alpha * a + (1 - alpha) * b, atol=1e-12)


def test_temporal_aggregate_no_history_matches_plain():
    rng = make_rng(6)
    pts = rng.normal(size=(50, 8))
    cs = kmeans(pts, 5, 20, make_rng(1))
    q = rng.normal(size=8)
    proj = identity_proj(8)
    a = temporal_aggregate(q, cs, None, proj, top_k=3)
    b = aggregate_over_centers(q, cs.centers, proj, top_k=3)
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.aggregated, b.aggregated)
    assert a.diversity == b.diversity


def test_temporal_aggregate_pools_center_sets():
    rng = make_rng(7)
    cur = kmeans(rng.normal(size=(40, 6)), 4, 20, make_rng(2))
    prev = kmeans(rng.normal(size=(40, 6)) + 2.0, 3, 20, make_rng(3))
    q = rng.normal(size=6)
    proj = identity_proj(6)
    r = temporal_aggregate(q, cur, prev, proj, top_k=3)
    pooled = np.vstack([cur.centers, prev.centers])
    want = aggregate_over_centers(q, pooled, proj, top_k=3)
    assert np.array_equal(r.selected, want.selected)
    assert np.allclose(r.aggregated, want.aggregated, atol=1e-12)


def test_temporal_aggregate_both_empty_flagged():
    q = np.ones(4)
    r = temporal_aggregate(q, None, None, identity_proj(4), top_k=2)
    assert r.degenerate
    assert np.all(np.isfinite(r.aggregated))


def test_temporal_params_validation():
    with pytest.raises(ValueError):
        TemporalParams(stride=0)
    with pytest.raises(ValueError):
        TemporalParams(alpha=1.5)


# ------------------------------------------------------------- velocity


def det_at(x, y, vx=0.0, vy=0.0, frame=0, qid=0):
    box = np.array([x, y, 1.0, 1.0, 2.0, 1.0, 0.0, vx, vy])
    return Detection(frame=frame, box=box, score=0.9, query_id=qid)


def test_velocity_no_history_uses_channel():
    d = det_at(5.0, 5.0, vx=2.0, vy=-1.0)
    v = _velocity_estimate(d, [], stride=2, interval=0.5)
    assert np.allclose(v, [2.0, -1.0])


def test_velocity_gate_exceeded_uses_channel():
    d = det_at(0.0, 0.0, vx=1.0, vy=0.0)
    far = [det_at(50.0, 50.0, frame=0)]
    v = _velocity_estimate(d, far, stride=2, interval=0.5)
    assert np.allclose(v, [1.0, 0.0])


def test_velocity_association_mixes_motion_and_channel():
    # object at (3, 0) moving +x at 2 m/s, dt = 1 s; it was near (1, 0)
    dt = 2 * 0.5
    cur = det_at(3.0, 0.0, vx=2.0, vy=0.0, frame=2)
    prev = [det_at(1.2, 0.0, frame=0), det_at(-8.0, 4.0, frame=0)]
    v = _velocity_estimate(cur, prev, stride=2, interval=0.5)
    v_mot = (np.array([3.0, 0.0]) - np.array([1.2, 0.0])) / dt
    assert np.allclose(v, 0.5 * (v_mot + np.array([2.0, 0.0])), atol=1e-12)


def test_velocity_backtracks_with_channel_prediction():
    # two candidates; the right one is closest to cur - v_chan * dt,
    # not closest to cur
    cur = det_at(0.0, 0.0, vx=4.0, vy=0.0, frame=2)
    dt = 1.0
    # predicted back-position is (-4, 0)
    right = det_at(-3.8, 0.0, frame=0, qid=1)
    wrong = det_at(0.5, 0.0, frame=0, qid=2)
    v = _velocity_estimate(cur, [wrong, right], stride=2, interval=0.5)
    v_mot = (np.array([0.0, 0.0]) - np.array([-3.8, 0.0])) / dt
    assert np.allclose(v, 0.5 * (v_mot + np.array([4.0, 0.0])), atol=1e-12)


def test_velocity_gate_default():
    assert BACKTRACK_GATE == 3.0


# ------------------------------------------------------------- sequences


def tiny_scene(**kw):
    base = dict(n_objects=2, points_per_object=12, background_points=20,
                noise_sigma=0.05, bounds=30.0)
    base.update(kw)
    return SceneConfig(**base)


def run_kwargs():
    return dict(grid_nx=4, grid_ny=4, bounds=30.0)


def test_run_sequence_single_frame_matches_no_temporal():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 1, 0.5, make_rng(10))
    params = DqemParams(radius=10.0, iterations=2)
    proj = identity_proj(cfg.d)
    with_t = run_sequence(seq, params, TemporalParams(), proj, make_rng(3), **run_kwargs())
    without = run_sequence(seq, params, None, proj, make_rng(3), **run_kwargs())
    assert len(with_t.frames) == len(without.frames) == 1
    assert not with_t.frames[0].fused
    da, db = with_t.frames[0].detections, without.frames[0].detections
    assert len(da) == len(db)
    for a, b in zip(da, db):
        assert np.array_equal(a.box, b.box)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def decoded_bits(trace):
    return [None if d is None else d.as_array().tobytes() for d in trace.decoded]


@pytest.mark.parametrize("iterations", [0, 1, 3])
def test_evolve_queries_matches_run_sequence_frame_by_frame(iterations):
    # Without fusion, iter_sequence is evolve_queries on each frame with that
    # frame's own stream, bit for bit, whatever the query outcome; and
    # run_sequence returns the detections iter_sequence yields.
    params = DqemParams(radius=10.0, iterations=iterations)
    flags = set()
    for s in (20, 21, 22):
        cfg = tiny_scene()
        seq = generate_sequence(cfg, 3, 0.5, make_rng(100 + s))
        proj = identity_proj(cfg.d)
        res = run_sequence(seq, params, None, proj, make_rng(s), **run_kwargs())
        frames = list(iter_sequence(seq, params, None, proj, make_rng(s), **run_kwargs()))
        assert len(res.frames) == len(frames) == len(seq.frames)
        for t, (frame, done, (fr, queries, fr_traces)) in enumerate(
            zip(seq.frames, res.frames, frames)
        ):
            assert [d.box.tobytes() for d in done.detections] \
                == [d.box.tobytes() for d in fr.detections]
            frame_rng = make_rng(derive_seed(draw_seed(make_rng(s)), f"frame:{t}"))
            out, traces = evolve_queries(init_pillars(4, 4, 30.0), frame, params, proj, frame_rng)
            assert len(out) == len(queries) and len(traces) == len(fr_traces)
            for pa, ta, pb, tb in zip(out.pillars, traces, queries.pillars, fr_traces):
                assert same_bits(pa.attrs.as_array(), pb.attrs.as_array())
                assert same_bits(pa.feat, pb.feat)
                assert same_bits(pa.feat_scale, pb.feat_scale)
                assert pa.flag == pb.flag
                assert decoded_bits(ta) == decoded_bits(tb)
                assert len(ta.attention) == len(tb.attention)
                for ra, rb in zip(ta.attention, tb.attention):
                    assert same_bits(ra.selected, rb.selected)
                    assert same_bits(ra.weights, rb.weights)
                flags.add(pa.flag)
    assert {"", "empty"} <= flags


def test_run_sequence_none_tparams_matches_never_fusing_stride():
    # a stride longer than the sequence never triggers fusion; boxes must
    # be identical to the plain path and velocity must equal the channel
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 4, 0.5, make_rng(11))
    params = DqemParams(radius=10.0, iterations=1)
    proj = identity_proj(cfg.d)
    plain = run_sequence(seq, params, None, proj, make_rng(5), **run_kwargs())
    never = run_sequence(seq, params, TemporalParams(stride=99), proj,
                         make_rng(5), **run_kwargs())
    for fa, fb in zip(plain.frames, never.frames):
        assert not fb.fused
        assert len(fa.detections) == len(fb.detections)
        for a, b in zip(fa.detections, fb.detections):
            assert np.array_equal(a.box, b.box)
            assert np.allclose(b.velocity, b.box[7:9])


def test_run_sequence_fused_flags_and_count():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 5, 0.5, make_rng(12))
    params = DqemParams(radius=10.0, iterations=1)
    res = run_sequence(seq, params, TemporalParams(stride=2),
                       identity_proj(cfg.d), make_rng(6), **run_kwargs())
    flags = [f.fused for f in res.frames]
    assert flags == [False, False, True, False, True]
    assert sum(flags) == (5 - 1) // 2


def test_run_sequence_static_noiseless_low_velocity():
    # one static object, exact features: every frame decodes the same box,
    # so both the velocity channel and the motion term must vanish
    cfg = tiny_scene(n_objects=1, noise_sigma=0.0, background_points=0,
                     speed_min=0.0, speed_max=0.0)
    seq = generate_sequence(cfg, 4, 0.5, make_rng(13))
    params = DqemParams(radius=12.0, iterations=1, beta=0.0)
    res = run_sequence(seq, params, TemporalParams(stride=2),
                       identity_proj(cfg.d), make_rng(7), **run_kwargs())
    assert any(fr.detections for fr in res.frames)
    for fr in res.frames:
        for det in fr.detections:
            assert np.linalg.norm(det.velocity) <= 1e-6


def test_run_sequence_deterministic():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 4, 0.5, make_rng(14))
    params = DqemParams(radius=10.0, iterations=1)
    proj = identity_proj(cfg.d)
    a = run_sequence(seq, params, TemporalParams(), proj, make_rng(8), **run_kwargs())
    b = run_sequence(seq, params, TemporalParams(), proj, make_rng(8), **run_kwargs())
    for fa, fb in zip(a.frames, b.frames):
        assert fa.fused == fb.fused
        assert len(fa.detections) == len(fb.detections)
        for x, y in zip(fa.detections, fb.detections):
            assert np.array_equal(x.box, y.box)
            assert np.array_equal(x.velocity, y.velocity)


def test_fused_frames_make_same_kmeans_calls_per_frame(monkeypatch):
    # fusion must not add clustering work: with every neighborhood populated,
    # each frame runs exactly n_queries * iterations calls, fused or not.
    # Attribute calls to frames by watching which frame gather last touched.
    real_kmeans = qebev.dqem.kmeans
    real_gather = qebev.ltfm.gather_neighborhood
    counts: dict[float, int] = {}
    current = {"ts": None}

    def counting_kmeans(*args, **kw):
        counts[current["ts"]] = counts.get(current["ts"], 0) + 1
        return real_kmeans(*args, **kw)

    def tracking_gather(frame, center, radius):
        current["ts"] = frame.timestamp
        return real_gather(frame, center, radius)

    monkeypatch.setattr(qebev.ltfm, "kmeans", counting_kmeans)
    monkeypatch.setattr(qebev.ltfm, "gather_neighborhood", tracking_gather)

    cfg = tiny_scene(background_points=200, bounds=12.0)
    seq = generate_sequence(cfg, 3, 0.5, make_rng(15))
    params = DqemParams(radius=40.0, iterations=3)  # radius covers the scene
    res = run_sequence(seq, params, TemporalParams(stride=2),
                       identity_proj(cfg.d), make_rng(9),
                       grid_nx=2, grid_ny=2, bounds=12.0)
    assert res.frames[2].fused
    expected = 2 * 2 * params.iterations
    assert len(counts) == 3
    assert set(counts.values()) == {expected}


def test_run_sequence_interval_passthrough():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 2, 0.25, make_rng(16))
    res = run_sequence(seq, DqemParams(radius=10.0, iterations=1), None,
                       identity_proj(cfg.d), make_rng(1), **run_kwargs())
    assert res.frames[1].timestamp == pytest.approx(0.25)


def traced_memory(fn):
    """``fn()``, its peak tracemalloc bytes, and the bytes still held after."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, held


def test_run_sequence_memory_grows_only_by_its_detections():
    # Keeping every frame's queries and traces costs about 0.2 MB a frame on
    # this scene, so eight more frames would exceed the slack many times.
    slack = 256 * 1024
    cfg = tiny_scene()
    params = DqemParams(radius=10.0, iterations=2)
    peaks, det_bytes = [], []
    for n in (2, 10):
        seq = generate_sequence(cfg, n, 0.5, make_rng(17))

        def run():
            return run_sequence(seq, params, TemporalParams(), identity_proj(cfg.d),
                                make_rng(4), grid_nx=8, grid_ny=8, bounds=30.0)

        run()  # builds the frames' cell indices outside the traced run
        res, peak, _ = traced_memory(run)
        _, _, held = traced_memory(lambda: copy.deepcopy([fr.detections for fr in res.frames]))
        peaks.append(peak)
        det_bytes.append(held)
    assert det_bytes[1] > det_bytes[0]
    assert peaks[1] - peaks[0] <= det_bytes[1] - det_bytes[0] + slack
