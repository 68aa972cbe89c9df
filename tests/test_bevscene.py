import json
import math
import tracemalloc

import numpy as np
import pytest

from qebev.bevscene import (
    ATTR_DIM,
    BoxAttributes,
    SceneConfig,
    decode_feature,
    encode_attributes,
    encoding_matrix,
    generate_frame,
    generate_sequence,
    read_scenes,
    standardize,
    wrap_angle,
    write_scenes,
)
from qebev.numerics import make_rng


def random_box(rng):
    return BoxAttributes(
        x=float(rng.uniform(-45, 45)),
        y=float(rng.uniform(-45, 45)),
        z=float(rng.uniform(0.2, 3.0)),
        w=float(rng.uniform(0.5, 3.0)),
        l=float(rng.uniform(1.0, 8.0)),
        h=float(rng.uniform(0.5, 3.0)),
        theta=float(rng.uniform(-math.pi, math.pi - 1e-9)),
        vx=float(rng.uniform(-10, 10)),
        vy=float(rng.uniform(-10, 10)),
    )


def test_box_attributes_validation():
    with pytest.raises(ValueError):
        BoxAttributes(0, 0, 0, w=-1.0, l=2.0, h=1.0, theta=0, vx=0, vy=0)
    with pytest.raises(ValueError):
        BoxAttributes(0, 0, 0, w=1.0, l=0.0, h=1.0, theta=0, vx=0, vy=0)
    for dims in ((math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            BoxAttributes(0, 0, 0, *dims, theta=0, vx=0, vy=0)
    # Decoding can overflow a dimension to +inf through exp; that is kept.
    assert BoxAttributes(0, 0, 0, math.inf, 2.0, 1.0, theta=0, vx=0, vy=0).w == math.inf
    b = BoxAttributes(1, 2, 3, 1, 2, 1, theta=3 * math.pi, vx=0, vy=0)
    assert -math.pi <= b.theta < math.pi


def test_wrap_angle_range_and_identity():
    for t in np.linspace(-10, 10, 101):
        w = wrap_angle(float(t))
        assert -math.pi <= w < math.pi
        assert abs(math.remainder(w - t, 2 * math.pi)) < 1e-9


def test_standardize_round_trip():
    # decode_feature undoes standardize() once the encoding is inverted.
    e = encoding_matrix(5, ATTR_DIM)
    rng = make_rng(17)
    for _ in range(1000):
        a = random_box(rng).as_array()
        back = decode_feature(e @ standardize(a), encoder_seed=5).as_array()
        assert np.allclose(back, a, atol=1e-10)


def test_encoding_matrix_orthonormal_and_cached():
    for seed in (0, 1, 987654321):
        e = encoding_matrix(seed, 16)
        assert e.shape == (16, ATTR_DIM)
        assert np.allclose(e.T @ e, np.eye(ATTR_DIM), atol=1e-10)
        assert encoding_matrix(seed, 16) is e  # lru cache
        assert not e.flags.writeable
    assert not np.allclose(encoding_matrix(0, 16), encoding_matrix(1, 16))


def test_encoding_matrix_rejects_small_d():
    with pytest.raises(ValueError):
        encoding_matrix(3, 8)


def test_encode_decode_round_trip_noiseless():
    rng = make_rng(29)
    for _ in range(1000):
        box = random_box(rng)
        f = encode_attributes(box, encoder_seed=12345, d=16)
        dec = decode_feature(f, encoder_seed=12345)
        assert np.allclose(dec.as_array(), box.as_array(), atol=1e-10)


def test_decode_feature_background_gate():
    tau = 3 * 0.05 * math.sqrt(16)  # three noise sigmas of a 16-d feature
    assert decode_feature(np.zeros(16), encoder_seed=1, tau_bg=tau) is None
    # a barely-above-threshold feature decodes to something
    f = encode_attributes(BoxAttributes(0, 0, 1, 1, 2, 1, 0, 0, 0), 1, 16)
    f = f / np.linalg.norm(f) * (tau * 1.01)
    assert decode_feature(f, encoder_seed=1, tau_bg=tau) is not None


def test_generate_frame_counts_and_bounds():
    cfg = SceneConfig()
    fr = generate_frame(cfg, make_rng(4))
    assert len(fr.boxes) == cfg.n_objects
    assert len(fr.points) == cfg.n_objects * cfg.points_per_object + cfg.background_points
    for b in fr.boxes:
        assert abs(b.x) <= cfg.bounds and abs(b.y) <= cfg.bounds
    assert len(fr.track_ids) == len(fr.boxes)
    assert len(set(fr.track_ids)) == len(fr.track_ids)


def test_generate_frame_noiseless_points_decode_exactly():
    cfg = SceneConfig(n_objects=1, noise_sigma=0.0, background_points=0)
    fr = generate_frame(cfg, make_rng(6))
    gt = fr.boxes[0].as_array()
    for f in fr.points.feat:
        dec = decode_feature(f, fr.encoder_seed)
        assert np.allclose(dec.as_array(), gt, atol=1e-9)


def test_generate_frame_zero_objects():
    cfg = SceneConfig(n_objects=0, background_points=25)
    fr = generate_frame(cfg, make_rng(9))
    assert len(fr.boxes) == 0
    assert len(fr.points) == 25


def test_generate_frame_deterministic():
    cfg = SceneConfig()
    a = generate_frame(cfg, make_rng(31))
    b = generate_frame(cfg, make_rng(31))
    assert a.encoder_seed == b.encoder_seed
    assert np.array_equal(a.points.xy, b.points.xy)
    assert np.array_equal(a.points.feat, b.points.feat)
    assert all(
        np.array_equal(x.as_array(), y.as_array()) for x, y in zip(a.boxes, b.boxes)
    )


def test_decode_error_grows_with_sigma():
    # Monte-Carlo: mean attribute decode error should scale about linearly
    # with the noise level.
    errs = []
    sigmas = (0.02, 0.04, 0.08, 0.16)
    for sigma in sigmas:
        cfg = SceneConfig(n_objects=4, noise_sigma=sigma, background_points=0)
        total, count = 0.0, 0
        for seed in range(10):
            fr = generate_frame(cfg, make_rng(1000 + seed))
            for i in range(len(fr.points)):
                dec = decode_feature(fr.points.feat[i], fr.encoder_seed)
                # nearest gt box is the generator one; use min distance
                d = min(
                    float(np.hypot(dec.x - b.x, dec.y - b.y)) for b in fr.boxes
                )
                total += d
                count += 1
        errs.append(total / count)
    assert errs[0] < errs[1] < errs[2] < errs[3]
    # doubling sigma about doubles the error
    for lo, hi in zip(errs, errs[1:]):
        assert 1.5 < hi / lo < 2.5


def test_sequence_kinematics_and_identity():
    cfg = SceneConfig(n_objects=3, speed_min=2.0, speed_max=2.0, bounds=50.0)
    seq = generate_sequence(cfg, 4, 0.5, make_rng(12))
    assert len(seq.frames) == 4
    for t in range(3):
        cur, nxt = seq.frames[t], seq.frames[t + 1]
        assert nxt.timestamp - cur.timestamp == pytest.approx(0.5)
        for tid in set(cur.track_ids) & set(nxt.track_ids):
            bc = cur.boxes[cur.track_ids.index(tid)]
            bn = nxt.boxes[nxt.track_ids.index(tid)]
            assert bn.x - bc.x == pytest.approx(bc.vx * 0.5, abs=1e-9)
            assert bn.y - bc.y == pytest.approx(bc.vy * 0.5, abs=1e-9)
            # speed magnitude as configured
            assert math.hypot(bc.vx, bc.vy) == pytest.approx(2.0)


def test_sequence_single_frame_matches_generate_frame():
    cfg = SceneConfig()
    seq = generate_sequence(cfg, 1, 0.5, make_rng(77))
    fr = generate_frame(cfg, make_rng(77))
    assert np.array_equal(seq.frames[0].points.feat, fr.points.feat)
    assert seq.frames[0].encoder_seed == fr.encoder_seed


def test_sequence_boundary_exit_recorded():
    cfg = SceneConfig(bounds=12.0, n_objects=3, speed_min=5.0, speed_max=5.0,
                      min_separation=4.0, margin=2.0)
    seq = generate_sequence(cfg, 8, 0.5, make_rng(21))
    # with 17.5 m of drift in a 12 m scene something must leave
    assert seq.dropped, "expected at least one boundary exit"
    for tid, t_gone in seq.dropped.items():
        assert 1 <= t_gone < 8
        assert tid in seq.frames[0].track_ids
        assert tid not in seq.frames[t_gone].track_ids
        assert tid in seq.frames[t_gone - 1].track_ids
    first = len(seq.frames[0].boxes)
    last = len(seq.frames[-1].boxes)
    assert last == first - len(seq.dropped)
    for fr in seq.frames:
        for b in fr.boxes:
            assert abs(b.x) <= cfg.bounds and abs(b.y) <= cfg.bounds


def test_scene_io_round_trip(tmp_path):
    cfg = SceneConfig(n_objects=2, points_per_object=5, background_points=3)
    seq = generate_sequence(cfg, 3, 0.5, make_rng(42))
    path = tmp_path / "scenes.jsonl"
    write_scenes(seq.frames, path)
    back = read_scenes(path)
    assert len(back) == 3
    for a, b in zip(seq.frames, back):
        assert a.timestamp == b.timestamp
        assert a.encoder_seed == b.encoder_seed
        assert a.d == b.d
        assert a.track_ids == b.track_ids
        assert np.array_equal(a.points.xy, b.points.xy)
        assert np.array_equal(a.points.feat, b.points.feat)
        for ba, bb in zip(a.boxes, b.boxes):
            assert np.array_equal(ba.as_array(), bb.as_array())


def test_scene_io_deterministic_bytes(tmp_path):
    cfg = SceneConfig(n_objects=2, points_per_object=4, background_points=2)
    seq = generate_sequence(cfg, 2, 0.5, make_rng(13))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_scenes(seq.frames, p1)
    write_scenes(seq.frames, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scene_io_exact_keys(tmp_path):
    cfg = SceneConfig(n_objects=1, points_per_object=2, background_points=1)
    fr = generate_frame(cfg, make_rng(5))
    path = tmp_path / "one.jsonl"
    write_scenes([fr], path)
    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec) == {"timestamp", "gt", "points", "encoder_seed", "d"}
    assert set(rec["gt"][0]) == {"box", "track_id"}
    assert set(rec["points"][0]) == {"xy", "f"}
    assert len(rec["gt"][0]["box"]) == 9


def test_read_scenes_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=2, background_points=0)
    write_scenes([generate_frame(cfg, make_rng(1))], path)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValueError, match=r":2: bad JSON"):
        read_scenes(path)


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("points", 3, "f", 2), float("nan"), r":2: point 3: feature is not finite"),
        (("points", 1, "xy", 0), float("inf"), r":2: point 1: xy is not finite"),
        (("gt", 0, "box", 7), float("-inf"), r":2: gt 0: box is not finite"),
        (("gt", 0, "box", 3), float("nan"), r":2: gt 0: box is not finite"),
    ],
)
def test_read_scenes_rejects_non_finite_values(tmp_path, where, value, message):
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)).frames, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    group, index, key, channel = where
    rec[group][index][key][channel] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        read_scenes(path)


@pytest.mark.parametrize("point", [
    {"xy": [1.0, 2.0]},                                  # no features
    {"f": [0.0] * 16},                                   # no position
    {"xy": [1.0, 2.0, 3.0], "f": [0.0] * 15},            # three coordinates
    {"xy": [1.0], "f": [0.0] * 17},                      # one coordinate
    {"xy": [1.0, 2.0], "f": [0.0] * 15 + [{"v": 1}]},    # a feature that is no number
    {"xy": [1.0, 2.0], "f": [0.0] * 17},                 # a wider feature row
    [1.0, 2.0] + [0.0] * 16,                             # a bare row
])
def test_read_scenes_rejects_a_malformed_point(tmp_path, point):
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)).frames, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["points"][2] = point
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r":2: malformed frame record"):
        read_scenes(path)


@pytest.mark.parametrize("key, value, message", [
    ("d", 9.4, "d must be an integer, got 9.4"),
    ("d", True, "d must be an integer, got True"),
    ("d", 4, "d must be at least 9, got 4"),
    ("encoder_seed", 7.9, "encoder_seed must be an integer, got 7.9"),
    ("track_id", 2.7, "track_id must be an integer, got 2.7"),
])
def test_read_scenes_rejects_a_malformed_frame_field(tmp_path, key, value, message):
    # A float was once truncated to an integer, and a d below 9 was read.
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)).frames, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    (rec["gt"][0] if key == "track_id" else rec)[key] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_scenes(path)
    assert str(info.value) == f"{path}:2: malformed frame record ({message})"


def test_read_scenes_peak_memory_follows_the_arrays(tmp_path):
    # A 6000-point frame's arrays take 0.86 MB.  Parsing each point into a
    # dict, two lists and 18 floats before building them peaked at 8.5 MB;
    # packing each point as it parses keeps the peak near 5.3 MB.
    cfg = SceneConfig(n_objects=40, points_per_object=100, background_points=2000)
    path = tmp_path / "large.jsonl"
    write_scenes([generate_frame(cfg, make_rng(42))], path)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        (frame,) = read_scenes(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(frame.points) == 6000
    assert peak < 6.5 * 2**20


@pytest.mark.parametrize("timestamp", [0.5, 0.25])
def test_read_scenes_rejects_a_timestamp_not_later_than_the_last(tmp_path, timestamp):
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 3, 0.5, make_rng(3)).frames, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["timestamp"] = timestamp
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_scenes(path)
    assert str(info.value) == (
        f"{path}:3: timestamp {timestamp} is not later than the previous frame's 0.5"
    )


@pytest.mark.parametrize("line", [1, 3])
@pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
def test_read_scenes_rejects_a_non_finite_timestamp(tmp_path, line, timestamp):
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 3, 0.5, make_rng(3)).frames, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line - 1])
    rec["timestamp"] = timestamp
    lines[line - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_scenes(path)
    assert str(info.value) == f"{path}:{line}: timestamp {timestamp} is not finite"


@pytest.mark.parametrize("field_name, value, message", [
    ("bounds", math.nan, "bounds must be positive and finite, got nan"),
    ("bounds", math.inf, "bounds must be positive and finite, got inf"),
    ("bounds", 0.0, "bounds must be positive and finite, got 0.0"),
    ("noise_sigma", math.nan, "noise_sigma must be non-negative and finite, got nan"),
    ("noise_sigma", math.inf, "noise_sigma must be non-negative and finite, got inf"),
])
def test_scene_config_rejects_bad_bounds_and_noise(field_name, value, message):
    with pytest.raises(ValueError, match=message):
        SceneConfig(**{field_name: value})


@pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -0.5])
def test_scene_sequence_rejects_a_bad_interval(interval):
    rng = make_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^frame interval must be positive and finite, got {interval}$"):
        generate_sequence(SceneConfig(n_objects=1), 2, interval, rng)
    assert rng.bit_generator.state == state  # checked before any draw


def test_read_scenes_skips_blank_lines_and_counts_them(tmp_path):
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    seq = generate_sequence(cfg, 2, 0.5, make_rng(3))
    path = tmp_path / "spaced.jsonl"
    write_scenes(seq.frames, path)
    first, second = path.read_text().splitlines()
    path.write_text(f"\n  {first}\t\n \t\n{second}\r\n\n{{not json\n")
    with pytest.raises(ValueError, match=r":6: bad JSON"):
        read_scenes(path)
    path.write_text(f"\n  {first}\t\n \t\n{second}\r\n\n")
    back = read_scenes(path)
    assert [f.timestamp for f in back] == [0.0, 0.5]
    for a, b in zip(seq.frames, back):
        assert np.array_equal(a.points.feat, b.points.feat)


def test_sampled_centers_keep_min_separation():
    for seed in range(20):
        frame = generate_frame(SceneConfig(bounds=30.0, n_objects=8), make_rng(seed))
        xy = np.array([box.center() for box in frame.boxes])
        gaps = np.linalg.norm(xy[:, None] - xy[None], axis=2)
        assert gaps[np.triu_indices(len(xy), 1)].min() >= 6.0


def test_over_packed_scene_raises_naming_the_object():
    # Bounds 10 less the 5 m margin leave a 10 m square for 60 centers.
    with pytest.raises(
        ValueError, match=r"^object \d+: no center at least min_separation 6\.0 m "
    ):
        generate_frame(SceneConfig(bounds=10.0, n_objects=60), make_rng(0))
    with pytest.raises(ValueError, match=r"^object 1: .* min_separation 30\.0 m "):
        generate_sequence(
            SceneConfig(bounds=15.0, n_objects=2, min_separation=30.0), 2, 0.5, make_rng(0)
        )


def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(d=8)
    with pytest.raises(ValueError):
        SceneConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SceneConfig(n_objects=-1)
    with pytest.raises(ValueError):
        SceneConfig(speed_min=3.0, speed_max=1.0)
    with pytest.raises(ValueError, match="^speed_max must be finite, got inf$"):
        SceneConfig(speed_max=math.inf)
    with pytest.raises(ValueError, match="^speed_max must be finite, got inf$"):
        SceneConfig(speed_min=math.inf, speed_max=math.inf)
