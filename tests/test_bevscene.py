import json
import math
import tracemalloc

import numpy as np
import pytest

from qebev.bevscene import (
    ATTR_DIM,
    Frame,
    PointSet,
    SceneConfig,
    decode_feature,
    encode_attributes,
    encoding_matrix,
    generate_sequence,
    read_scenes,
    standardize,
    wrap_angle,
    write_scenes,
)
from qebev.dqem import Detection, DetectionFrame, write_detections
from qebev.numerics import make_rng


def random_box(rng):
    """One (9,) box row: x, y, z, w, l, h, theta, vx, vy."""
    return np.array([
        rng.uniform(-45, 45), rng.uniform(-45, 45), rng.uniform(0.2, 3.0),
        rng.uniform(0.5, 3.0), rng.uniform(1.0, 8.0), rng.uniform(0.5, 3.0),
        rng.uniform(-math.pi, math.pi - 1e-9), rng.uniform(-10, 10), rng.uniform(-10, 10),
    ])


def frame_of(boxes):
    """A point-free frame holding ``boxes``, one track id per row."""
    return Frame(0.0, boxes, list(range(len(boxes))), PointSet.empty(16), 0, 16)


def test_box_attributes_validation(tmp_path):
    # A frame's boxes are (m, 9) rows with positive w, l and h.
    for dims in ((-1.0, 2.0, 1.0), (1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="must be positive"):
            frame_of([[0, 0, 0, *dims, 0, 0, 0]])
    for dims in ((math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            frame_of([[0, 0, 0, *dims, 0, 0, 0]])
    for shape in ((9,), (2, 8), (1, 10), (0,), (1, 9, 1)):
        with pytest.raises(ValueError, match=r"boxes must be an \(m, 9\) array"):
            frame_of(np.ones(shape))
    assert frame_of(np.zeros((0, 9))).boxes.shape == (0, 9)
    # Decoding can overflow a dimension to +inf through exp; that is kept.
    assert frame_of([[0, 0, 0, math.inf, 2.0, 1.0, 0, 0, 0]]).boxes[0, 3] == math.inf
    # A gt yaw outside [-pi, pi) is wrapped where the scene file is read.
    path = tmp_path / "yaw.jsonl"
    write_scenes([frame_of([[1, 2, 3, 1, 2, 1, 3 * math.pi, 0, 0]])], path)
    [back] = read_scenes(path)
    assert back.boxes[0, 6] == wrap_angle(3 * math.pi) and -math.pi <= back.boxes[0, 6] < math.pi


def test_frame_boxes_are_a_read_only_copy():
    mine = np.array([[1.0, 2.0, 0.8, 2.0, 4.5, 1.6, 0.5, 1.0, -1.0]])
    frame = frame_of(mine)
    assert mine.flags.writeable and not np.shares_memory(mine, frame.boxes)
    with pytest.raises(ValueError, match="read-only"):
        frame.boxes[0, 0] = 5.0
    mine[0, 0] = 7.0
    assert frame.boxes[0, 0] == 1.0
    for fr in generate_sequence(SceneConfig(speed_max=3.0), 3, 0.5, make_rng(8)):
        with pytest.raises(ValueError, match="read-only"):
            fr.boxes[:, :2] += 1.0


def test_generating_a_frame_does_not_move_the_rows_before_it():
    cfg = SceneConfig(speed_min=2.0, speed_max=3.0)
    longer = generate_sequence(cfg, 6, 0.5, make_rng(19))
    for t in range(1, 6):
        shorter = generate_sequence(cfg, t, 0.5, make_rng(19))
        assert [f.boxes.tobytes() for f in shorter] == [f.boxes.tobytes() for f in longer[:t]]
    assert not np.array_equal(longer[0].boxes[:, :2], longer[1].boxes[:, :2])



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
        a = random_box(rng)
        back = decode_feature(e @ standardize(a), encoder_seed=5)
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
        assert dec.dtype == np.float64 and dec.shape == (9,)
        assert np.allclose(dec, box, atol=1e-10)


def test_decode_feature_background_gate():
    tau = 3 * 0.05 * math.sqrt(16)  # three noise sigmas of a 16-d feature
    assert decode_feature(np.zeros(16), encoder_seed=1, tau_bg=tau) is None
    # a barely-above-threshold feature decodes to something
    f = encode_attributes(np.array([0.0, 0, 1, 1, 2, 1, 0, 0, 0]), 1, 16)
    f = f / np.linalg.norm(f) * (tau * 1.01)
    assert decode_feature(f, encoder_seed=1, tau_bg=tau) is not None


def test_generate_frame_counts_and_bounds():
    cfg = SceneConfig()
    fr = generate_sequence(cfg, 1, 0.5, make_rng(4))[0]
    assert len(fr.boxes) == cfg.n_objects
    assert len(fr.points) == cfg.n_objects * cfg.points_per_object + cfg.background_points
    assert fr.boxes.dtype == np.float64 and fr.boxes.shape == (cfg.n_objects, 9)
    assert (np.abs(fr.boxes[:, :2]) <= cfg.bounds).all()
    assert len(fr.track_ids) == len(fr.boxes)
    assert len(set(fr.track_ids)) == len(fr.track_ids)


def test_generate_frame_noiseless_points_decode_exactly():
    cfg = SceneConfig(n_objects=1, noise_sigma=0.0, background_points=0)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(6))[0]
    gt = fr.boxes[0]
    for f in fr.points.feat:
        dec = decode_feature(f, fr.encoder_seed)
        assert np.allclose(dec, gt, atol=1e-9)


def test_generate_frame_zero_objects():
    cfg = SceneConfig(n_objects=0, background_points=25)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(9))[0]
    assert fr.boxes.shape == (0, 9)
    assert len(fr.points) == 25


def test_generate_frame_deterministic():
    cfg = SceneConfig()
    a = generate_sequence(cfg, 1, 0.5, make_rng(31))[0]
    b = generate_sequence(cfg, 1, 0.5, make_rng(31))[0]
    assert a.encoder_seed == b.encoder_seed
    assert np.array_equal(a.points.xy, b.points.xy)
    assert np.array_equal(a.points.feat, b.points.feat)
    assert a.boxes.tobytes() == b.boxes.tobytes()


def test_decode_error_grows_with_sigma():
    # Monte-Carlo: mean attribute decode error should scale about linearly
    # with the noise level.
    errs = []
    sigmas = (0.02, 0.04, 0.08, 0.16)
    for sigma in sigmas:
        cfg = SceneConfig(n_objects=4, noise_sigma=sigma, background_points=0)
        total, count = 0.0, 0
        for seed in range(10):
            fr = generate_sequence(cfg, 1, 0.5, make_rng(1000 + seed))[0]
            for i in range(len(fr.points)):
                dec = decode_feature(fr.points.feat[i], fr.encoder_seed)
                # nearest gt box is the generator one; use min distance
                d = min(
                    float(np.hypot(dec[0] - b[0], dec[1] - b[1])) for b in fr.boxes
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
    assert len(seq) == 4
    for t in range(3):
        cur, nxt = seq[t], seq[t + 1]
        assert nxt.timestamp - cur.timestamp == pytest.approx(0.5)
        for tid in set(cur.track_ids) & set(nxt.track_ids):
            bc = cur.boxes[cur.track_ids.index(tid)]
            bn = nxt.boxes[nxt.track_ids.index(tid)]
            x, y, vx, vy = bc[[0, 1, 7, 8]]
            assert bn[0] - x == pytest.approx(vx * 0.5, abs=1e-9)
            assert bn[1] - y == pytest.approx(vy * 0.5, abs=1e-9)
            # speed magnitude as configured
            assert math.hypot(vx, vy) == pytest.approx(2.0)


def test_sequence_first_frame_does_not_depend_on_the_length():
    # One frame is the first frame of a longer sequence, draw for draw.
    cfg = SceneConfig(speed_max=3.0)
    [one] = generate_sequence(cfg, 1, 0.5, make_rng(77))
    first = generate_sequence(cfg, 4, 0.5, make_rng(77))[0]
    assert one.encoder_seed == first.encoder_seed and one.timestamp == first.timestamp == 0.0
    assert np.array_equal(one.points.xy, first.points.xy)
    assert np.array_equal(one.points.feat, first.points.feat)
    assert one.boxes.tobytes() == first.boxes.tobytes()


def test_sequence_boundary_exit_recorded():
    cfg = SceneConfig(bounds=12.0, n_objects=3, speed_min=5.0, speed_max=5.0)
    seq = generate_sequence(cfg, 8, 0.5, make_rng(21))
    # The frame each object is first absent from.
    dropped = {
        tid: next(t for t, fr in enumerate(seq) if tid not in fr.track_ids)
        for tid in seq[0].track_ids if tid not in seq[-1].track_ids
    }
    # with 17.5 m of drift in a 12 m scene something must leave
    assert dropped, "expected at least one boundary exit"
    for tid, t_gone in dropped.items():
        assert 1 <= t_gone < 8
        assert all(tid not in fr.track_ids for fr in seq[t_gone:])  # gone for good
    first = len(seq[0].boxes)
    last = len(seq[-1].boxes)
    assert last == first - len(dropped)
    for fr in seq:
        assert (np.abs(fr.boxes[:, :2]) <= cfg.bounds).all()


def test_scene_io_round_trip(tmp_path):
    cfg = SceneConfig(n_objects=2, points_per_object=5, background_points=3)
    seq = generate_sequence(cfg, 3, 0.5, make_rng(42))
    path = tmp_path / "scenes.jsonl"
    write_scenes(seq, path)
    back = read_scenes(path)
    assert len(back) == 3
    for a, b in zip(seq, back):
        assert a.timestamp == b.timestamp
        assert a.encoder_seed == b.encoder_seed
        assert a.d == b.d
        assert a.track_ids == b.track_ids
        assert np.array_equal(a.points.xy, b.points.xy)
        assert np.array_equal(a.points.feat, b.points.feat)
        assert a.boxes.tobytes() == b.boxes.tobytes()


def test_scene_io_deterministic_bytes(tmp_path):
    cfg = SceneConfig(n_objects=2, points_per_object=4, background_points=2)
    seq = generate_sequence(cfg, 2, 0.5, make_rng(13))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_scenes(seq, p1)
    write_scenes(seq, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scene_io_exact_keys(tmp_path):
    cfg = SceneConfig(n_objects=1, points_per_object=2, background_points=1)
    fr = generate_sequence(cfg, 1, 0.5, make_rng(5))[0]
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
    write_scenes([generate_sequence(cfg, 1, 0.5, make_rng(1))[0]], path)
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
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)), path)
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
    {"xy": [1.0, True], "f": [0.0] * 16},                # a bool, once packed as 1.0
    {"xy": [1.0, 2.0], "f": [0.0] * 15 + [False]},       # a bool, once packed as 0.0
])
def test_read_scenes_rejects_a_malformed_point(tmp_path, point):
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)), path)
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
    ("timestamp", "0.5", "timestamp must be a number, got '0.5'"),
    ("timestamp", True, "timestamp must be a number, got True"),
    ("box", ["1.0"] * 9, "box must be a number, got '1.0'"),
    ("box", [1.0] * 8 + [False], "box must be a number, got False"),
    ("d", 17, "d must be the first frame's 16, got 17"),
    pytest.param("timestamp", 10**400, "int too large to convert to float", id="huge-int"),
    ("encoder_seed", -5, "encoder_seed must be in [0, 2**64), got -5"),
    ("encoder_seed", 2**64, "encoder_seed must be in [0, 2**64), got 18446744073709551616"),
    ("points", None, "points must be an array, got None"),
    ("points", 0, "points must be an array, got 0"),
    ("gt", {}, "gt must be an array, got {}"),
    ("track_id", "x", "track_id must be an integer, got 'x'"),
])
def test_read_scenes_rejects_a_malformed_frame_field(tmp_path, key, value, message):
    # A float was once truncated to an integer, a d below 9 was read, a
    # string or bool was read as a number, mixed feature widths were
    # refused only by detect, after the whole file was read, a huge
    # integer timestamp ended the run as an unexpected failure, an
    # encoder_seed outside 64 bits named the encoding of its low 64 bits,
    # and a null or 0 points or an object gt read as an empty list.  A bad
    # track_id once named no gt.
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=1, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    (rec["gt"][0] if key in ("track_id", "box") else rec)[key] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_scenes(path)
    fault = (f"gt 0: {message}" if key in ("track_id", "box")
             else f"malformed frame record ({message})")
    assert str(info.value) == f"{path}:2: {fault}"


@pytest.mark.parametrize("box, message", [
    ([1.0] * 8, "box must be 9 numbers, got shape (8,)"),
    (5, "box must be 9 numbers, got shape ()"),
    ([1.0] * 4 + [0.0] + [1.0] * 4, "box size must be positive"),
    ([1.0] * 8 + [10**400], "int too large to convert to float"),
])
def test_read_scenes_names_the_gt_of_a_bad_box(tmp_path, box, message):
    # These faults were reported as a malformed frame record, naming no gt.
    path = tmp_path / "bad.jsonl"
    cfg = SceneConfig(n_objects=2, points_per_object=4, background_points=2)
    write_scenes(generate_sequence(cfg, 2, 0.5, make_rng(3)), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["gt"][1]["box"] = box
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_scenes(path)
    assert str(info.value) == f"{path}:2: gt 1: {message}"


def test_read_scenes_peak_memory_follows_the_arrays(tmp_path):
    # A 6000-point frame's arrays take 0.86 MB.  Parsing each point into a
    # dict, two lists and 18 floats before building them peaked at 8.5 MB;
    # packing each point as it parses keeps the peak near 5.3 MB.
    cfg = SceneConfig(n_objects=40, points_per_object=100, background_points=2000)
    path = tmp_path / "large.jsonl"
    write_scenes([generate_sequence(cfg, 1, 0.5, make_rng(42))[0]], path)
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
    write_scenes(generate_sequence(cfg, 3, 0.5, make_rng(3)), path)
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
    write_scenes(generate_sequence(cfg, 3, 0.5, make_rng(3)), path)
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
    write_scenes(seq, path)
    first, second = path.read_text().splitlines()
    path.write_text(f"\n  {first}\t\n \t\n{second}\r\n\n{{not json\n")
    with pytest.raises(ValueError, match=r":6: bad JSON"):
        read_scenes(path)
    path.write_text(f"\n  {first}\t\n \t\n{second}\r\n\n")
    back = read_scenes(path)
    assert [f.timestamp for f in back] == [0.0, 0.5]
    for a, b in zip(seq, back):
        assert np.array_equal(a.points.feat, b.points.feat)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_read_scenes_reads_utf8_lines_under_every_line_end(tmp_path, end):
    cfg = SceneConfig(n_objects=2, points_per_object=4, background_points=2)
    seq = generate_sequence(cfg, 3, 0.5, make_rng(3))
    path = tmp_path / "s.jsonl"
    write_scenes(seq, path)
    lines = path.read_bytes().splitlines()
    lines[1] = '{"note": "\u00e9\u6f22", '.encode() + lines[1][1:]  # ignored, valid UTF-8
    path.write_bytes(end.join(lines) + end)
    back = read_scenes(path)
    assert [f.timestamp for f in back] == [f.timestamp for f in seq]
    for a, b in zip(seq, back):
        assert a.boxes.tobytes() == b.boxes.tobytes()
        assert a.points.feat.tobytes() == b.points.feat.tobytes()


def test_writers_emit_no_non_json_token(tmp_path):
    frame = frame_of(np.zeros((0, 9)))
    frame.points = PointSet([[0.0, 0.0]], [[math.inf] + [0.0] * 15])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_scenes([frame], tmp_path / "s.jsonl")
    dets = [DetectionFrame(0.0, [Detection(0, [1.0] * 9, math.nan, 0)])]
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_detections(tmp_path / "d.jsonl", dets, {})


def test_sampled_centers_keep_min_separation():
    for seed in range(20):
        [frame] = generate_sequence(SceneConfig(bounds=30.0, n_objects=8), 1, 0.5, make_rng(seed))
        xy = frame.boxes[:, :2]
        gaps = np.linalg.norm(xy[:, None] - xy[None], axis=2)
        assert gaps[np.triu_indices(len(xy), 1)].min() >= 6.0


def test_over_packed_scene_raises_naming_the_object():
    # Bounds 10 less the 5 m margin leave a 10 m square for 60 centers.
    with pytest.raises(
        ValueError, match=r"^object \d+: no center at least min_separation 6\.0 m "
    ):
        generate_sequence(SceneConfig(bounds=10.0, n_objects=60), 1, 0.5, make_rng(0))
    # Bounds 7 leave a 4 m square, whose diagonal is under 6 m.
    with pytest.raises(ValueError, match=r"^object 1: .* min_separation 6\.0 m "):
        generate_sequence(SceneConfig(bounds=7.0, n_objects=2), 2, 0.5, make_rng(0))


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
