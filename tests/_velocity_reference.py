"""Frozen reference velocity estimate: the per-detection version, one
detection against the earlier positions at a time.

``qebev.ltfm._velocity_estimate`` takes every detection of a frame at once
and must match this, row for row, bit for bit.  Do not edit this file to
follow changes in ``ltfm``; it is the reference those changes are checked
against.  It keeps its own copy of the gate for the same reason.
"""

from __future__ import annotations

import numpy as np

from qebev.dqem import Detection

BACKTRACK_GATE = 3.0


def velocity_estimate(
    det: Detection,
    prev_xy: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Average the decoded velocity channels with a track position delta.

    The detection is projected back by its channel velocity over ``dt``,
    the seconds since the earlier detections, whose positions are the rows
    of ``prev_xy`` (m, 2); the nearest earlier detection within the gate is
    taken as the same physical track.  With no earlier detection inside the
    gate, or a ``dt`` so long or so short that the projection or the average
    overflows, the decoded channels stand alone.
    """
    v_chan = det.box[7:9]
    if not len(prev_xy):
        return np.array(v_chan)
    cur = det.box[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.linalg.norm(prev_xy - (cur - v_chan * dt), axis=1)
        j = int(np.argmin(gaps))
        fused = 0.5 * ((cur - prev_xy[j]) / dt + v_chan)
    if not (gaps[j] <= BACKTRACK_GATE and np.isfinite(fused).all()):
        return np.array(v_chan)
    return fused
