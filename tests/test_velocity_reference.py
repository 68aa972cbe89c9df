"""``ltfm._velocity_estimate`` against the frozen per-detection reference in
``_velocity_reference``: every row of the frame-at-once estimate must match
the reference's estimate for that detection alone, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _velocity_reference as ref
from qebev.dqem import Detection
from qebev.ltfm import BACKTRACK_GATE, _velocity_estimate

# Gaps whose back projection or motion delta over- or underflows, and
# ordinary ones.
EXTREME_DT = [5e-324, 1e-200, 1e154, 1e300]
DT = st.one_of(st.sampled_from([0.5, 1.0, 2.0, *EXTREME_DT]),
               st.floats(min_value=5e-324, allow_infinity=False))
# Half-metre lattice values make exact argmin ties and gate hits common;
# arbitrary finite values reach the overflowing paths.
LATTICE = st.integers(-8, 8).map(lambda i: i * 0.5)
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def assert_matches_reference(boxes, prev_xy, dt):
    got = _velocity_estimate(boxes, prev_xy, dt)
    assert got.dtype == np.float64 and got.shape == (len(boxes), 2)
    for i, box in enumerate(boxes):
        want = ref.velocity_estimate(Detection(box, 0.5, i), prev_xy, dt)
        assert want.dtype == got.dtype and got[i].tobytes() == want.tobytes(), (i, dt)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(0, 6), n=st.integers(0, 6), dt=DT)
def test_matches_reference_row_for_row(data, m, n, dt):
    coord = data.draw(st.sampled_from([LATTICE, st.one_of(LATTICE, ANY_FINITE)]))
    boxes = data.draw(arrays(np.float64, (m, 9), elements=coord, fill=st.nothing()))
    boxes[:, 3:6] = 1.0
    prev_xy = data.draw(arrays(np.float64, (n, 2), elements=coord, fill=st.nothing()))
    assert_matches_reference(boxes, prev_xy, dt)


@pytest.mark.parametrize("dt", [0.5, *EXTREME_DT])
def test_matches_reference_on_ties_and_gate_misses(dt):
    # Box 0 projects back to the origin, 1 m from every earlier position;
    # box 1 finds nothing inside the gate; box 2 sits on two equal earlier
    # positions; box 3 is exactly the gate away from its nearest.
    boxes = np.zeros((4, 9))
    boxes[:, 3:6] = 1.0
    boxes[0, 7] = 1.0
    boxes[0, 0] = dt
    boxes[1, :2] = [40.0, 40.0]
    boxes[2, :2] = [1.0, 0.0]
    boxes[3, :2] = [1.0 + BACKTRACK_GATE, 0.0]
    prev_xy = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert_matches_reference(boxes, prev_xy, dt)
    assert_matches_reference(boxes, np.empty((0, 2)), dt)
    assert_matches_reference(np.empty((0, 9)), prev_xy, dt)
    assert_matches_reference(np.empty((0, 9)), np.empty((0, 2)), dt)


def test_reference_gate_is_the_module_gate():
    assert ref.BACKTRACK_GATE == BACKTRACK_GATE
