"""Oracles for the indexed neighbourhood gather and the array-based dedup.

Each compares the code with a frozen copy of the simple form it replaced:
a squared-distance scan over every frame point, and a score-ordered greedy
suppression that checks one kept detection at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qebev.bevscene import Frame
from qebev.dqem import Detection, dedup_detections, gather_neighborhood


def scan_gather_indices(xy, center, radius):
    """Indices the gather returns when it tests every point."""
    delta = xy - np.asarray(center, dtype=np.float64).reshape(2)
    return np.flatnonzero(np.einsum("nd,nd->n", delta, delta) <= radius * radius)


def pairwise_dedup(dets, radius):
    """Greedy suppression comparing a detection with each kept one in turn."""
    if radius <= 0.0 or len(dets) <= 1:
        return list(dets)
    order = sorted(dets, key=lambda d: (-d.score, d.query_id))
    kept = []
    for det in order:
        c = det.box[:2]
        if all(float(np.hypot(*(c - k.box[:2]))) > radius for k in kept):
            kept.append(det)
    kept.sort(key=lambda d: d.query_id)
    return kept


def frame_at(xy):
    """A frame of points at ``xy``, all with the same features."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    return Frame(timestamp=0.0, boxes=np.zeros((0, 9)), track_ids=[], xy=xy,
                 feat=np.ones((len(xy), 2)), encoder_seed=0)


def make_rng_points(n, seed=5):
    return np.random.default_rng(seed).uniform(-50.0, 50.0, size=(n, 2))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def gather_cases(draw):
    # Dense lattice points, lattice centers and radii a whole number of steps
    # put points at exactly the radius and at the edges of the x strip.  A
    # few odd points and centers ride along.
    step = draw(st.sampled_from([0.1, 0.25, 1.0, 2.5]))
    lattice = st.integers(-8, 8).map(lambda i: i * step)
    anywhere = st.floats(-100.0, 100.0)
    odd_point = st.one_of(
        st.tuples(anywhere, anywhere),
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), lattice),
        st.tuples(lattice, NON_FINITE),
    )
    xy = draw(st.permutations(
        draw(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=60))
        + draw(st.lists(odd_point, max_size=4))
    ))
    radius = draw(st.one_of(
        st.integers(1, 6).map(lambda i: i * step),
        st.floats(1e-3, 1e4),  # from far below the lattice step to beyond the scene
        st.sampled_from([1e-200, 1e200, math.inf, math.nan]),  # the square under/overflows
    ))
    odd_center = st.one_of(
        st.tuples(anywhere, anywhere),
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),  # outside, far from points
        st.tuples(NON_FINITE, lattice),
        st.tuples(lattice, NON_FINITE),
    )
    centers = draw(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=8))
    return xy, radius, centers + draw(st.lists(odd_center, max_size=2))


@settings(max_examples=400, deadline=None)
@given(gather_cases())
# The scan accepts the point, at 5 * 0.1 from the center by the squared
# test, but x = -7 * 0.1 lies just outside an x strip with no slack.
@example(([(-7 * 0.1, 0.0)], 5 * 0.1, [(-2 * 0.1, 0.0)]))
# A point exactly at the radius: 3**2 + 4**2 == 5**2 in floats, and the test
# is inclusive.
@example(([(3.0, 4.0), (-3.0, -4.0), (3.0, 4.5)], 5.0, [(0.0, 0.0)]))
def test_indexed_gather_matches_scan_in_point_order(case):
    xy, radius, centers = case
    frame = frame_at(xy)
    for center in centers:
        with np.errstate(all="ignore"):  # inf - inf and overflowing squares
            want = scan_gather_indices(frame.xy, center, radius)
            got = gather_neighborhood(frame, np.array(center), radius)
        assert got.tolist() == want.tolist()


def test_gather_shares_one_x_order_across_radii_and_follows_new_points():
    frame = frame_at(make_rng_points(100))
    gather_neighborhood(frame, np.zeros(2), 8.0)
    order = frame.x_order
    for center in make_rng_points(20):
        for radius in (8.0, 3.0):
            got = gather_neighborhood(frame, center, radius)
            assert got.tolist() == scan_gather_indices(frame.xy, center, radius).tolist()
    assert frame.x_order is order
    moved = frame_at(make_rng_points(50) + 100.0)
    frame.xy, frame.feat = moved.xy, moved.feat
    got = gather_neighborhood(frame, np.array([100.0, 100.0]), 8.0)
    assert frame.x_order is not order
    assert got.tolist() == scan_gather_indices(
        frame.xy, [100.0, 100.0], 8.0).tolist()


def test_frame_xy_is_a_read_only_copy_so_no_write_leaves_the_index_stale():
    # The gather order is keyed by the identity of xy, so an in-place write
    # once left it stale: after xy[1] = (1, 1) the gather still returned
    # [0] while a scan over every point returned [0, 1].
    mine = np.array([[0.0, 0.0], [100.0, 100.0]])
    frame = frame_at(mine)
    assert mine.flags.writeable and not np.shares_memory(mine, frame.xy)
    assert gather_neighborhood(frame, np.zeros(2), 8.0).tolist() == [0]
    with pytest.raises(ValueError, match="read-only"):
        frame.xy[1] = [1.0, 1.0]
    mine[1] = [1.0, 1.0]
    assert gather_neighborhood(frame, np.zeros(2), 8.0).tolist() == [0]


@st.composite
def detection_lists(draw):
    # Few distinct scores and centers: tied scores and coincident centers.
    n = draw(st.integers(0, 40))
    ids = draw(st.permutations(range(n)))
    dets = []
    for qid in ids:
        x = draw(st.one_of(st.integers(-4, 4).map(float), st.floats(-5.0, 5.0)))
        y = draw(st.one_of(st.integers(-4, 4).map(float), st.floats(-5.0, 5.0)))
        score = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
        box = np.array([x, y, 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0])
        dets.append(Detection(box=box, score=score, query_id=qid))
    radius = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.sqrt(2.0), 5.0]),
                            st.floats(0.0, 20.0)))
    return dets, radius


@settings(max_examples=300, deadline=None)
@given(detection_lists())
def test_dedup_matches_pairwise_reference(case):
    dets, radius = case
    got = dedup_detections(dets, radius)
    want = pairwise_dedup(dets, radius)
    assert [id(d) for d in got] == [id(d) for d in want]
