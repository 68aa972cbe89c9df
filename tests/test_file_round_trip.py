"""Properties of the scene and detection file formats.

A file written and read back is bit-equal, for arbitrary finite float64
values, edge cases included: -0.0, subnormals, +-max and values whose
shortest repr is long.  A file with one value of a line replaced or
deleted is either refused, naming that line, or read as it says.  A
scene line's points are two base64 strings of float64 bytes; an edit
reaches into them as decoded values and is written back re-encoded.
"""

import base64
import copy
import functools
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _scene_lines import encode, points
from qebev.bevscene import (
    ATTR_DIM,
    Frame,
    SceneConfig,
    generate_sequence,
    read_scenes,
    wrap_angle,
    write_scenes,
)
from qebev.dqem import Detection, DetectionFrame, read_detections, write_detections
from qebev.numerics import make_rng

EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2 / 3 * 1e-300]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


def boxes():
    """A 9-channel box row: finite values with positive w, l, h."""
    return st.tuples(finite, finite, finite, positive, positive, positive,
                     finite, finite, finite).map(lambda v: np.array(v, dtype=np.float64))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def scene_frames(draw):
    d = draw(st.integers(ATTR_DIM, ATTR_DIM + 3))
    # Timestamps strictly rise, as reading requires.
    stamps = sorted(draw(st.sets(finite, min_size=1, max_size=3)))
    frames = []
    for timestamp in stamps:
        n = draw(st.integers(0, 4))
        rows = draw(st.lists(boxes(), max_size=3))
        frames.append(Frame(
            timestamp=timestamp,
            boxes=np.array(rows).reshape(-1, ATTR_DIM),
            track_ids=draw(st.lists(st.integers(-2**63, 2**63), min_size=len(rows),
                                    max_size=len(rows))),
            xy=draw(arrays(np.float64, (n, 2), elements=finite)),
            feat=draw(arrays(np.float64, (n, d), elements=finite)),
            encoder_seed=draw(st.integers(0, 2**64 - 1)),
        ))
    return frames


# Every edge value in both point arrays, d at its least.
EDGE_FRAME = Frame(0.0, np.zeros((0, ATTR_DIM)), [], np.reshape(EDGES + [0.0], (5, 2)),
                   np.tile(EDGES, (5, 1)), 0)


@settings(max_examples=60, deadline=None)
@given(frames=scene_frames())
@example(frames=[EDGE_FRAME])
def test_scene_file_round_trips_bit_for_bit(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenes.jsonl")
        write_scenes(frames, path)
        back = read_scenes(path)
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
    assert len(back) == len(frames) == len(recs)
    for a, b, rec in zip(frames, back, recs):
        assert same_bits(a.timestamp, b.timestamp)
        assert (a.encoder_seed, a.d, a.track_ids) == (b.encoder_seed, b.d, b.track_ids)
        # The line holds the little-endian bytes of both arrays.
        assert base64.b64decode(rec["xy"]) == a.xy.astype("<f8").tobytes()
        assert base64.b64decode(rec["feat"]) == a.feat.astype("<f8").tobytes()
        assert same_bits(a.xy, b.xy)
        assert same_bits(a.feat, b.feat)
        assert b.feat.flags.writeable
        assert a.boxes.shape == b.boxes.shape == (len(a.track_ids), ATTR_DIM)
        # Reading wraps the written yaw; every other channel reads as written.
        assert same_bits(np.delete(a.boxes, 6, axis=1), np.delete(b.boxes, 6, axis=1))
        assert same_bits([wrap_angle(v) for v in a.boxes[:, 6].tolist()], b.boxes[:, 6])


@st.composite
def detection_frames(draw):
    frames = []
    # Timestamps strictly rise, as reading requires.
    stamps = sorted(draw(st.sets(finite, min_size=1, max_size=3)))
    for timestamp in stamps:
        dets = [
            Detection(
                box=draw(boxes()),
                score=draw(finite),
                query_id=draw(st.integers(-2**63, 2**63)),
                velocity=draw(st.none() | arrays(np.float64, 2, elements=finite)),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        fused = draw(st.sampled_from([None, False, True]))  # None writes no key
        frames.append(DetectionFrame(timestamp, dets, fused))
    return frames


@settings(max_examples=60, deadline=None)
@given(frames=detection_frames())
def test_detection_file_round_trips_bit_for_bit(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "detections.jsonl")
        write_detections(path, frames, {"iterations": 3})
        back = read_detections(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert same_bits(a.timestamp, b.timestamp)
        assert a.fused is b.fused
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.query_id == db.query_id
            assert same_bits(da.box, db.box)
            assert same_bits(da.score, db.score)
            if da.velocity is None:
                assert db.velocity is None
            else:
                assert same_bits(da.velocity, db.velocity)


@functools.cache
def seeded_lines():
    """The JSON records of a seeded 3-frame scene file with a few points and
    of a detection file for it: one detection per object, with a velocity
    on every other frame.  A scene record's points are decoded into nested
    lists, (n, 2) ``xy`` and (n, d) ``feat``."""
    cfg = SceneConfig(n_objects=2, points_per_object=2, background_points=1, speed_max=2.0)
    frames = generate_sequence(cfg, 3, 0.5, make_rng(11))
    dets = [
        DetectionFrame(frame.timestamp, [
            Detection(box, 0.5 + 0.1 * i, i, box[7:9] if t % 2 else None)
            for i, box in enumerate(frame.boxes)
        ], bool(t % 2) if t else None)
        for t, frame in enumerate(frames)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_scenes(frames, os.path.join(tmp, "s.jsonl"))
        write_detections(os.path.join(tmp, "d.jsonl"), dets, {"iterations": 3})
        lines = {}
        for kind, name in (("scenes", "s.jsonl"), ("detections", "d.jsonl")):
            with open(os.path.join(tmp, name)) as fh:
                lines[kind] = [json.loads(line) for line in fh]
    for rec in lines["scenes"]:
        xy, feat = points(rec)
        rec["xy"], rec["feat"] = xy.tolist(), feat.tolist()
    return lines


DELETE = object()
VALUES = ["0.5", True, False, None, {}, [], 10**400, 1e30, -1e30, math.nan, math.inf,
          -math.inf, -0.0, 2**64]
POINT_FIELDS = ("xy", "feat")
# Whole point fields: no base64, bad padding, and 0, 3, 8 and 16 bytes.
STRINGS = ["0.5", "AAA", "AA=A", "", "AAAA", "AAAAAAAAAAA=", encode([1.0, 2.0])]
# Values inside a decoded point array.
FLOATS = [1e30, -1e30, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]


@st.composite
def edits(draw):
    """A file kind, a path to one value of its line 2, and the value to put
    there (``DELETE`` drops it); each step stops or goes one level deeper.
    Inside a decoded point array the value is a float."""
    kind = draw(st.sampled_from(["detections", "scenes"]))
    path, node = [], seeded_lines()[kind][1]
    while isinstance(node, (dict, list)) and node and not (path and draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    if kind == "scenes" and path and path[0] in POINT_FIELDS:
        values = FLOATS if len(path) > 1 else VALUES + STRINGS
    else:
        values = VALUES
    return kind, tuple(path), draw(st.sampled_from(values + [DELETE]))


def flat(node) -> list:
    """The numbers of a nested list, in order."""
    return [v for item in node for v in flat(item)] if type(node) is list else [node]


def is_number(value, read) -> bool:
    """A JSON number, not a bool or a string, read as exactly its value."""
    return type(value) in (int, float) and value == read


def check_scene(frame, rec):
    """``frame`` holds what the written line ``rec`` says, bit for bit."""
    assert type(rec["d"]) is type(rec["encoder_seed"]) is int
    assert (frame.d, frame.encoder_seed) == (rec["d"], rec["encoder_seed"])
    assert type(rec["gt"]) is list and len(frame.boxes) == len(rec["gt"])
    for box, tid, g in zip(frame.boxes, frame.track_ids, rec["gt"]):
        assert type(g["track_id"]) is int and tid == g["track_id"]
        values, read = g["box"], box.tolist()
        assert len(values) == 9 and type(values[6]) in (int, float)
        assert all(map(is_number, values[:6] + values[7:], read[:6] + read[7:]))
        assert wrap_angle(values[6]) == read[6]  # reading wraps the yaw
    assert "points" not in rec
    assert base64.b64decode(rec["xy"], validate=True) == frame.xy.astype("<f8").tobytes()
    assert base64.b64decode(rec["feat"], validate=True) == frame.feat.astype("<f8").tobytes()
    assert frame.xy.shape == (len(frame.feat), 2) and frame.feat.shape[1] == rec["d"]


def check_detections(frame, rec):
    assert frame.fused is rec.get("fused")
    assert type(rec["detections"]) is list and len(frame.detections) == len(rec["detections"])
    for det, d in zip(frame.detections, rec["detections"]):
        assert type(d["query_id"]) is int and det.query_id == d["query_id"]
        assert is_number(d["score"], det.score)
        assert len(d["box"]) == 9 and all(map(is_number, d["box"], det.box.tolist()))
        assert ("velocity" in d) == (det.velocity is not None)
        if det.velocity is not None:
            assert len(d["velocity"]) == 2
            assert all(map(is_number, d["velocity"], det.velocity.tolist()))


@settings(max_examples=200, deadline=None)
@given(case=edits())
@example(case=("scenes", ("xy",), None))
@example(case=("scenes", ("points",), []))
@example(case=("scenes", ("feat", 1, 3), math.nan))
@example(case=("scenes", ("xy", 2), DELETE))
@example(case=("scenes", ("feat",), "AAAAAAAAAAA="))
@example(case=("scenes", ("gt",), {}))
@example(case=("detections", ("detections",), {}))
@example(case=("detections", ("timestamp",), math.nan))
def test_an_edited_line_is_refused_with_its_place_or_read_as_written(case):
    # A null, 0 or object where an array belongs was once read as empty,
    # and a NaN detection timestamp was read and scored.
    kind, path, value = case
    lines = copy.deepcopy(seeded_lines()[kind])
    parent = lines[1]
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    if kind == "scenes":
        # Decoded point arrays go back as base64 of their values in order;
        # a whole field put in place of one is written as it is.
        for rec in lines:
            for key in POINT_FIELDS:
                if key in rec and not (rec is lines[1] and path == (key,)):
                    rec[key] = encode(flat(rec[key]))
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, f"{kind}.jsonl")
        with open(name, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in lines)
        try:
            frames = read_scenes(name) if kind == "scenes" else read_detections(name)
        except ValueError as exc:
            # A timestamp raised past line 3's is found at line 3.
            assert str(exc).startswith(f"{name}:2: ") or (
                str(exc).startswith(f"{name}:3: timestamp ") and "is not later" in str(exc))
            return
    stamps = [f.timestamp for f in frames]
    assert len(frames) == 3 and all(map(math.isfinite, stamps))
    assert stamps == sorted(set(stamps))
    assert is_number(lines[1]["timestamp"], frames[1].timestamp)
    if kind == "scenes":
        for f in frames:
            assert np.isfinite(f.xy).all() and np.isfinite(f.feat).all()
            assert f.boxes.shape[1:] == (ATTR_DIM,) and np.isfinite(f.boxes).all()
            assert (f.boxes[:, 3:6] > 0).all()
        check_scene(frames[1], lines[1])
    else:
        for f in frames:
            for d in f.detections:
                assert np.isfinite(d.box).all() and (d.box[3:6] > 0).all()
                assert math.isfinite(d.score)
                assert d.velocity is None or np.isfinite(d.velocity).all()
        check_detections(frames[1], lines[1])
