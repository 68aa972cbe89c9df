"""Property: a scene or detection file written and read back is bit-equal.

Values are arbitrary finite float64s, edge cases included: -0.0,
subnormals, +-max and values whose shortest repr is long.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qebev.bevscene import (
    ATTR_DIM,
    BoxAttributes,
    Frame,
    PointSet,
    read_scenes,
    wrap_angle,
    write_scenes,
)
from qebev.dqem import Detection, DetectionFrame, read_detections, write_detections

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
            boxes=[BoxAttributes.from_array(r) for r in rows],
            track_ids=draw(st.lists(st.integers(-2**63, 2**63), min_size=len(rows),
                                    max_size=len(rows))),
            points=PointSet(draw(arrays(np.float64, (n, 2), elements=finite)),
                            draw(arrays(np.float64, (n, d), elements=finite))),
            encoder_seed=draw(st.integers(0, 2**64)),
            d=d,
        ))
    return frames


@settings(max_examples=60, deadline=None)
@given(frames=scene_frames())
def test_scene_file_round_trips_bit_for_bit(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenes.jsonl")
        write_scenes(frames, path)
        back = read_scenes(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert same_bits(a.timestamp, b.timestamp)
        assert (a.encoder_seed, a.d, a.track_ids) == (b.encoder_seed, b.d, b.track_ids)
        assert same_bits(a.points.xy, b.points.xy)
        assert same_bits(a.points.feat, b.points.feat)
        assert len(a.boxes) == len(b.boxes)
        for ba, bb in zip(a.boxes, b.boxes):
            wa, wb = ba.as_array(), bb.as_array()
            # Reading builds each box again, which wraps the written yaw once more.
            assert same_bits(np.delete(wa, 6), np.delete(wb, 6))
            assert same_bits(wrap_angle(wa[6]), wb[6])


@st.composite
def detection_frames(draw):
    frames = []
    for t in range(draw(st.integers(1, 3))):
        dets = [
            Detection(
                frame=t,
                box=draw(boxes()),
                score=draw(finite),
                query_id=draw(st.integers(-2**63, 2**63)),
                velocity=draw(st.none() | arrays(np.float64, 2, elements=finite)),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        fused = draw(st.sampled_from([None, False, True]))  # None writes no key
        frames.append(DetectionFrame(draw(finite), dets, fused))
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
            assert (da.frame, da.query_id) == (db.frame, db.query_id)
            assert same_bits(da.box, db.box)
            assert same_bits(da.score, db.score)
            if da.velocity is None:
                assert db.velocity is None
            else:
                assert same_bits(da.velocity, db.velocity)
