import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qebev.dqem
import qebev.ltfm
from qebev.bevscene import Frame, PointSet, SceneConfig, generate_sequence
from qebev.dqem import (
    Detection,
    DqemParams,
    aggregate_over_centers,
    kmeans,
)
from qebev.ltfm import (
    BACKTRACK_GATE,
    TemporalParams,
    _evolve_single,
    _velocity_estimate,
    iter_sequence,
    run_sequence,
    temporal_aggregate,
    temporal_init,
)
from qebev import evolve_queries, init_pillars
from qebev.numerics import derive_seed, draw_seed, make_rng


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
    a = temporal_aggregate(q, cs, None, top_k=3)
    b = aggregate_over_centers(q, cs.centers, top_k=3)
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.aggregated, b.aggregated)


def test_temporal_aggregate_pools_center_sets():
    rng = make_rng(7)
    cur = kmeans(rng.normal(size=(40, 6)), 4, 20, make_rng(2))
    prev = kmeans(rng.normal(size=(40, 6)) + 2.0, 3, 20, make_rng(3))
    q = rng.normal(size=6)
    r = temporal_aggregate(q, cur, prev, top_k=3)
    pooled = np.vstack([cur.centers, prev.centers])
    want = aggregate_over_centers(q, pooled, top_k=3)
    assert np.array_equal(r.selected, want.selected)
    assert np.allclose(r.aggregated, want.aggregated, atol=1e-12)


def test_temporal_aggregate_both_empty_flagged():
    q = np.ones(4)
    r = temporal_aggregate(q, None, None, top_k=2)
    assert r.selected.size == 0 and r.weights.size == 0
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


def positions(dets):
    # The (m, 2) earlier positions iter_sequence hands _velocity_estimate.
    return np.array([d.box[:2] for d in dets]).reshape(-1, 2)


def test_velocity_no_history_uses_channel():
    d = det_at(5.0, 5.0, vx=2.0, vy=-1.0)
    v = _velocity_estimate(d, positions([]), dt=1.0)
    assert np.allclose(v, [2.0, -1.0])


def test_velocity_gate_exceeded_uses_channel():
    d = det_at(0.0, 0.0, vx=1.0, vy=0.0)
    far = [det_at(50.0, 50.0, frame=0)]
    v = _velocity_estimate(d, positions(far), dt=1.0)
    assert np.allclose(v, [1.0, 0.0])


def test_velocity_association_mixes_motion_and_channel():
    # object at (3, 0) moving +x at 2 m/s, dt = 1 s; it was near (1, 0)
    dt = 1.0
    cur = det_at(3.0, 0.0, vx=2.0, vy=0.0, frame=2)
    prev = [det_at(1.2, 0.0, frame=0), det_at(-8.0, 4.0, frame=0)]
    v = _velocity_estimate(cur, positions(prev), dt=1.0)
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
    v = _velocity_estimate(cur, positions([wrong, right]), dt=1.0)
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
    return dict(starts=init_pillars(4, 4, 30.0))


def test_run_sequence_single_frame_matches_no_temporal():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 1, 0.5, make_rng(10))
    params = DqemParams(radius=10.0, iterations=2)
    with_t = run_sequence(seq, params, TemporalParams(), make_rng(3), **run_kwargs())
    without = run_sequence(seq, params, None, make_rng(3), **run_kwargs())
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
    return [None if d is None else d.tobytes() for d in trace.decoded]


def assert_same_query(a, b):
    """Two evolved queries agree in every field, bit for bit."""
    assert same_bits(a.attrs, b.attrs)
    assert same_bits(a.feat, b.feat)
    assert same_bits(a.scale, b.scale)
    assert a.flag == b.flag
    assert decoded_bits(a) == decoded_bits(b)
    assert same_bits(a.score, b.score)


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
        res = run_sequence(seq, params, None, make_rng(s), **run_kwargs())
        frames = list(iter_sequence(seq, params, None, make_rng(s), **run_kwargs()))
        assert len(res.frames) == len(frames) == len(seq)
        for t, (frame, done, (fr, fr_traces)) in enumerate(zip(seq, res.frames, frames)):
            assert [d.box.tobytes() for d in done.detections] \
                == [d.box.tobytes() for d in fr.detections]
            frame_rng = make_rng(derive_seed(draw_seed(make_rng(s)), f"frame:{t}"))
            traces = evolve_queries(init_pillars(4, 4, 30.0), frame, params, frame_rng)
            assert len(traces) == len(fr_traces) == 16
            for ta, tb in zip(traces, fr_traces):
                assert_same_query(ta, tb)
                flags.add(ta.flag)
    assert {"", "empty"} <= flags


@settings(max_examples=8, deadline=None)
@given(scene_seed=st.integers(0, 2**32), seed=st.integers(0, 2**32), data=st.data())
def test_frame_results_do_not_depend_on_query_order(scene_seed, seed, data):
    # Each query evolves from its own seed, base_seed ^ qi, so running the
    # queries one by one in any order, on a frame whose neighbourhood index
    # starts empty, gives evolve_queries' records bit for bit.
    params = DqemParams()
    grid = init_pillars(6, 6, 50.0)
    [frame] = generate_sequence(SceneConfig(), 1, 0.5, make_rng(scene_seed))
    traces = evolve_queries(grid, frame, params, make_rng(seed))
    assert len(traces) == len(grid)
    [fresh] = generate_sequence(SceneConfig(), 1, 0.5, make_rng(scene_seed))
    base_seed = draw_seed(make_rng(seed))
    order = data.draw(st.permutations(range(len(grid))))
    for qi in order:
        trace, carry = _evolve_single(grid[qi], fresh, params, base_seed ^ qi, 0.0, None)
        assert_same_query(trace, traces[qi])
        assert (carry is None) == bool(trace.flag)


def test_temporal_run_sequence_leaves_the_query_grid_untouched():
    # One grid starts every frame, so no frame may change it, nor any
    # frame's boxes.
    starts = init_pillars(4, 4, 30.0)
    before = starts.tobytes()
    seq = generate_sequence(tiny_scene(speed_max=3.0), 5, 0.5, make_rng(19))
    boxes_before = [fr.boxes.tobytes() for fr in seq]
    res = run_sequence(seq, DqemParams(radius=10.0, iterations=2), TemporalParams(stride=2),
                       make_rng(2), starts)
    assert sum(bool(fr.fused) for fr in res.frames) == 2
    assert sum(len(fr.detections) for fr in res.frames) > 0
    assert starts.tobytes() == before == init_pillars(4, 4, 30.0).tobytes()
    assert [fr.boxes.tobytes() for fr in seq] == boxes_before
    assert not starts.flags.writeable and not any(fr.boxes.flags.writeable for fr in seq)


@pytest.mark.parametrize("tparams", [None, TemporalParams(stride=1)])
def test_iter_sequence_over_an_empty_query_grid_yields_frames_without_detections(tparams):
    seq = generate_sequence(tiny_scene(), 3, 0.5, make_rng(20))
    out = list(iter_sequence(seq, DqemParams(radius=10.0), tparams, make_rng(2), []))
    assert [fr.timestamp for fr, _ in out] == [frame.timestamp for frame in seq]
    assert all(fr.detections == [] and traces == [] for fr, traces in out)
    if tparams is not None:
        assert [fr.fused for fr, _ in out] == [False, True, True]


def test_run_sequence_none_tparams_matches_never_fusing_stride():
    # a stride longer than the sequence never triggers fusion; boxes must
    # be identical to the plain path and velocity must equal the channel
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 4, 0.5, make_rng(11))
    params = DqemParams(radius=10.0, iterations=1)
    plain = run_sequence(seq, params, None, make_rng(5), **run_kwargs())
    never = run_sequence(seq, params, TemporalParams(stride=99), make_rng(5),
                         **run_kwargs())
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
    res = run_sequence(seq, params, TemporalParams(stride=2), make_rng(6),
                       **run_kwargs())
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
    res = run_sequence(seq, params, TemporalParams(stride=2), make_rng(7),
                       **run_kwargs())
    assert any(fr.detections for fr in res.frames)
    for fr in res.frames:
        for det in fr.detections:
            assert np.linalg.norm(det.velocity) <= 1e-6


def test_run_sequence_deterministic():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 4, 0.5, make_rng(14))
    params = DqemParams(radius=10.0, iterations=1)
    a = run_sequence(seq, params, TemporalParams(), make_rng(8), **run_kwargs())
    b = run_sequence(seq, params, TemporalParams(), make_rng(8), **run_kwargs())
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
    res = run_sequence(seq, params, TemporalParams(stride=2), make_rng(9),
                       init_pillars(2, 2, 12.0))
    assert res.frames[2].fused
    expected = 2 * 2 * params.iterations
    assert len(counts) == 3
    assert set(counts.values()) == {expected}


def test_fused_velocities_use_the_timestamp_gap():
    # Restamped 0, 0.5, 2, 3.5, 5 s: fused frames 2 and 4 lie 2 s and 3 s
    # after the frame one stride back, and each fused velocity is the
    # estimate over that gap, bit for bit.
    seq = generate_sequence(tiny_scene(speed_min=1.0, speed_max=3.0), 5, 0.5, make_rng(18))
    frames = [replace(fr, timestamp=ts) for fr, ts in zip(seq, (0.0, 0.5, 2.0, 3.5, 5.0))]
    res = run_sequence(frames, DqemParams(radius=10.0, iterations=1), TemporalParams(stride=2),
                       make_rng(3), **run_kwargs())
    hits = 0
    for t in (2, 4):
        assert res.frames[t].fused
        dt = frames[t].timestamp - frames[t - 2].timestamp
        for det in res.frames[t].detections:
            want = _velocity_estimate(det, positions(res.frames[t - 2].detections), dt)
            assert same_bits(det.velocity, want)
            hits += not np.array_equal(want, det.box[7:9])
    assert hits > 0


@pytest.mark.parametrize("stride, stamps", [
    (1, (0.0, 0.0)), (1, (1.0, 0.5)), (2, (0.0, 1.0, 0.0)),
])
def test_iter_sequence_rejects_a_fused_frame_not_later_than_a_stride_back(stride, stamps):
    frames = [replace(generate_sequence(tiny_scene(), 1, 0.5, make_rng(30 + i))[0], timestamp=ts)
              for i, ts in enumerate(stamps)]
    t = len(stamps) - 1
    message = (f"^frame {t} \\(timestamp {stamps[t]}\\) is not later than frame 0 "
               f"\\(timestamp {stamps[0]}\\), one stride back$")
    params = DqemParams(radius=10.0, iterations=1)
    with pytest.raises(ValueError, match=message):
        list(iter_sequence(frames, params, TemporalParams(stride=stride), make_rng(1),
                           **run_kwargs()))
    # Without fusion no frame differences over time.
    assert len(list(iter_sequence(frames, params, None, make_rng(1), **run_kwargs()))) == t + 1


def test_run_sequence_interval_passthrough():
    cfg = tiny_scene()
    seq = generate_sequence(cfg, 2, 0.25, make_rng(16))
    res = run_sequence(seq, DqemParams(radius=10.0, iterations=1), None, make_rng(1),
                       **run_kwargs())
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
            return run_sequence(seq, params, TemporalParams(), make_rng(4),
                                init_pillars(8, 8, 30.0))

        run()  # builds the frames' cell indices outside the traced run
        res, peak, _ = traced_memory(run)
        _, _, held = traced_memory(lambda: copy.deepcopy([fr.detections for fr in res.frames]))
        peaks.append(peak)
        det_bytes.append(held)
    assert det_bytes[1] > det_bytes[0]
    assert peaks[1] - peaks[0] <= det_bytes[1] - det_bytes[0] + slack


# ------------------------------------------------------------- degenerate frames

# Every flag the kernel sets, and the messages of the checks that refuse
# features whose arithmetic overflows.
FLAGS = {"", "empty", "empty-regather", "degenerate-zero-mean", "degenerate-zero-blend",
         "background"}
OVERFLOW_MESSAGES = {
    "neighborhood mean is not finite (non-finite or overflowing features)",
    "k-means++ potential is not finite (non-finite or overflowing features)",
    "decoded box size over- or underflows (overflowing features)",
}
NEAR = st.floats(-20.0, 20.0)
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def degenerate_frames(draw):
    """A frame with no points, with all its points at one place and one
    feature, with background-level features only, or with huge but finite
    coordinates and features."""
    d = draw(st.sampled_from([9, 12]))
    kind = draw(st.sampled_from(["empty", "coincident", "background", "huge"]))
    n = 0 if kind == "empty" else draw(st.integers(1, 30))
    if kind == "coincident":
        xy = np.tile(draw(arrays(np.float64, 2, elements=NEAR)), (n, 1))
        feat = np.tile(draw(arrays(np.float64, d, elements=st.floats(-3.0, 3.0))), (n, 1))
    elif kind == "background":
        xy = draw(arrays(np.float64, (n, 2), elements=NEAR))
        feat = draw(arrays(np.float64, (n, d), elements=st.floats(-0.2, 0.2)))
    else:
        xy = draw(arrays(np.float64, (n, 2), elements=st.one_of(NEAR, ANY_FINITE)))
        feat = draw(arrays(np.float64, (n, d), elements=st.one_of(
            st.floats(-3.0, 3.0), ANY_FINITE, st.sampled_from([1e150, -1e154, 1e300]))))
    return Frame(0.0, np.zeros((0, 9)), [], PointSet(xy, feat), draw(st.integers(0, 2**32)), d)


def finished(run):
    """``run()``'s result, or None when an overflow check refused the frame."""
    try:
        return run()
    except ValueError as exc:
        assert str(exc) in OVERFLOW_MESSAGES, exc
        return None


def assert_finite_and_flagged(traces):
    for tr in traces:
        assert tr.flag in FLAGS
        assert tr.attrs.shape == (9,) and np.isfinite(tr.attrs).all()
        assert np.isfinite(tr.feat).all() and math.isfinite(tr.scale)
        for dec in tr.decoded:
            assert dec is None or np.isfinite(dec).all()
        assert 0.0 <= tr.score <= 1.0


@settings(max_examples=200, deadline=None)
@given(frame=degenerate_frames(), k=st.integers(1, 4), iterations=st.integers(0, 3),
       radius=st.sampled_from([2.0, 8.0, math.inf]), tau_bg=st.sampled_from([0.0, 0.5]),
       fuse=st.booleans(), seed=st.integers(0, 2**32))
def test_degenerate_frames_finish_finite_and_flagged(frame, k, iterations, radius, tau_bg,
                                                     fuse, seed):
    # Each run returns finite queries with known flags and finite
    # detections, or raises one of the overflow checks' ValueErrors.
    params = DqemParams(k=k, top_k=min(2, k), radius=radius, iterations=iterations,
                        tau_bg=tau_bg)
    starts = init_pillars(3, 3, 20.0)
    traces = finished(lambda: evolve_queries(starts, frame, params, make_rng(seed)))
    if traces is not None:
        assert len(traces) == len(starts)
        assert_finite_and_flagged(traces)
    frames = [frame, replace(frame, timestamp=0.5)]
    tparams = TemporalParams(stride=1) if fuse else None
    out = finished(lambda: list(iter_sequence(frames, params, tparams, make_rng(seed), starts)))
    if out is None:
        return
    assert len(out) == 2
    for fr, fr_traces in out:
        assert_finite_and_flagged(fr_traces)
        for det in fr.detections:
            assert np.isfinite(det.box).all() and math.isfinite(det.score)
            assert det.velocity is None or np.isfinite(det.velocity).all()
