"""``evalkit.average_precision`` against the frozen flat-list reference in
``_ap_reference``: ranking one detection list per frame must give the AP of
the same detections pooled in frame order, bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _ap_reference as ref
from qebev.dqem import Detection
from qebev.evalkit import AP_THRESHOLDS, average_precision


def box(x, y):
    return np.array([x, y, 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0])


def gts(*xs):
    return np.array([box(x, 0.0) for x in xs]).reshape(-1, 9)


# Half-metre lattice positions make exact distance ties and threshold hits
# common; +-1e200 makes the distances overflow.
COORD = st.one_of(st.integers(-6, 6).map(lambda i: i * 0.5), st.sampled_from([1e200, -1e200]))
# A few scores make ties within and across frames common.
SCORE = st.one_of(st.sampled_from([0.25, 0.5, 0.9]), st.floats(0.0, 1.0))


@st.composite
def frames(draw):
    """One detection list and one (g, 9) ground-truth array per frame;
    frames may hold no detections, no ground truth, or neither."""
    dets, gt = [], []
    for _ in range(draw(st.integers(0, 4))):
        dets.append([
            Detection(box(draw(COORD), draw(COORD)), draw(SCORE), qid)
            for qid in range(draw(st.integers(0, 4)))
        ])
        gt.append(np.array([box(draw(COORD), draw(COORD))
                            for _ in range(draw(st.integers(0, 3)))]).reshape(-1, 9))
    return dets, gt


def assert_matches_reference(dets, gt, threshold):
    got = average_precision(dets, gt, threshold)
    want = ref.average_precision([(t, d) for t, ds in enumerate(dets) for d in ds], gt, threshold)
    if want is None:
        assert got is None
    else:
        assert type(got) is float and got.hex() == want.hex(), (got, want)


@settings(max_examples=300, deadline=None)
@given(case=frames(), threshold=st.sampled_from(AP_THRESHOLDS))
# Tied scores across frames, one detection of the tie a hit and the other a
# miss, so the order the tie breaks in shows in the AP.
@example(case=([[Detection(box(9.0, 0.0), 0.5, 0)], [Detection(box(0.0, 0.0), 0.5, 0)]],
               [gts(), gts(0.0, 5.0)]), threshold=1.0)
@example(case=([[Detection(box(0.0, 0.0), 0.5, 0)], [Detection(box(9.0, 0.0), 0.5, 0)]],
               [gts(0.0, 5.0), gts()]), threshold=1.0)
# Tied scores within a frame, an empty frame, and a detection at x = 1e200.
@example(case=([[], [Detection(box(1e200, 0.0), 0.9, 0), Detection(box(0.0, 0.0), 0.9, 1),
                     Detection(box(5.0, 0.0), 0.9, 2)]], [gts(0.0), gts(0.0, 5.0)]),
         threshold=0.5)
# No ground truth anywhere, and no frames at all.
@example(case=([[Detection(box(0.0, 0.0), 0.9, 0)]], [gts()]), threshold=2.0)
@example(case=([], []), threshold=2.0)
def test_matches_reference_bit_for_bit(case, threshold):
    assert_matches_reference(*case, threshold)
