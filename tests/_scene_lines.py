"""Decode, edit and re-encode the points of a parsed scene line.

A scene line holds its points as two base64 strings of little-endian
float64 values: ``xy``, (n, 2) positions, and ``feat``, (n, d) features.
"""

import base64

import numpy as np


def points(rec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Writeable copies of a line's (n, 2) positions and (n, d) features."""
    xy = np.frombuffer(base64.b64decode(rec["xy"]), "<f8").reshape(-1, 2).copy()
    feat = np.frombuffer(base64.b64decode(rec["feat"]), "<f8").reshape(len(xy), rec["d"])
    return xy, feat.copy()


def encode(values) -> str:
    """Float64 values, row by row, as the base64 string of their little-endian bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def set_points(rec: dict, xy, feat) -> dict:
    """``rec`` with ``xy`` and ``feat`` written into its point fields."""
    rec["xy"], rec["feat"] = encode(xy), encode(feat)
    return rec


def set_value(key: str, index: tuple, value: float):
    """A line edit that sets one value, ``xy[index]`` or ``feat[index]``,
    of the line's decoded arrays and re-encodes them."""
    def edit(rec: dict) -> dict:
        arrays = dict(zip(("xy", "feat"), points(rec)))
        arrays[key][index] = value
        return set_points(rec, arrays["xy"], arrays["feat"])
    return edit


def old_format(rec: dict) -> dict:
    """``rec`` as the per-point format wrote it: a "points" list of
    ``{"xy": [x, y], "f": [...]}`` objects."""
    xy, feat = points(rec)
    del rec["xy"], rec["feat"]
    rec["points"] = [{"xy": p, "f": f} for p, f in zip(xy.tolist(), feat.tolist())]
    return rec
