"""Synthetic bird's-eye-view scenes with decodable point features.

Every scene point carries a feature vector built as an orthonormal linear
encoding of the owning object's 9 box attributes plus Gaussian noise, so a
detector's output can be checked against ground truth exactly.  Background
points carry pure noise and decode to nothing.
"""

from __future__ import annotations

import base64
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .numerics import _check_int, draw_seed, make_rng

__all__ = [
    "Frame",
    "SceneConfig",
    "encoding_matrix",
    "decode_feature",
    "generate_sequence",
    "write_scenes",
    "read_scenes",
]

ATTR_DIM = 9

# Channel scales applied before encoding so one noise level perturbs every
# attribute comparably.  Positions and velocities share the scene scale
# (meters and meters-per-second over the same extent); box dimensions are
# log-compressed.  A side effect worth knowing: velocity is a faint cue in
# a single frame's features, as it is for real single-sweep sensors.
POSITION_SCALE = 50.0
HEIGHT_SCALE = 10.0
VELOCITY_SCALE = 50.0
# Box rows are (x, y, z, w, l, h, theta, vx, vy); standardize() divides
# each channel by its scale, but takes the log of the sizes.
_SCALES = np.array([POSITION_SCALE, POSITION_SCALE, HEIGHT_SCALE, 1.0, 1.0, 1.0,
                    math.pi, VELOCITY_SCALE, VELOCITY_SCALE])


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass
class Frame:
    """One time slice: (m, 9) ground-truth box rows and the scattered
    points, positions ``xy`` (n, 2) and features ``feat`` (n, d).
    ``boxes`` and ``xy`` are kept as read-only copies."""

    timestamp: float
    boxes: np.ndarray
    track_ids: list[int]
    xy: np.ndarray
    feat: np.ndarray
    encoder_seed: int
    # (xy, indices, x values) of the finite points of ``xy`` in ascending x,
    # built by the first neighbourhood gather and shared by every radius.
    x_order: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Copies, so that a caller's array is never made read-only.
        self.boxes = np.array(self.boxes, dtype=np.float64)
        self.boxes.flags.writeable = False
        if self.boxes.ndim != 2 or self.boxes.shape[1] != ATTR_DIM:
            raise ValueError(f"boxes must be an (m, 9) array, got shape {self.boxes.shape}")
        # Written so that NaN fails too; +inf passes.
        if not (self.boxes[:, 3:6] > 0.0).all():
            raise ValueError("box dimensions w, l and h must be positive")
        if len(self.boxes) != len(self.track_ids):
            raise ValueError("one track id per ground-truth box")
        self.xy = np.array(self.xy, dtype=np.float64).reshape(-1, 2)
        self.xy.flags.writeable = False
        self.feat = np.asarray(self.feat, dtype=np.float64)
        if self.feat.ndim != 2 or self.feat.shape[0] != self.xy.shape[0]:
            raise ValueError("xy and feat row counts must agree")

    @property
    def d(self) -> int:
        """The feature width."""
        return self.feat.shape[1]


def _check_bounds(bounds: float) -> None:
    """The rule for a scene's half-extent, which the query grid shares:
    positive and finite, with a finite span ``2 * bounds``."""
    if not bounds > 0.0 or not math.isfinite(bounds):
        raise ValueError(f"bounds must be positive and finite, got {bounds}")
    if not math.isfinite(2.0 * bounds):
        raise ValueError(f"bounds {bounds} overflows the scene span 2 * bounds")


@dataclass
class SceneConfig:
    """Knobs for synthetic scene generation.

    ``bounds`` is the half-extent of the square scene in meters, so points
    and object centers live in [-bounds, bounds]^2.  By default objects
    stand still (``speed_max`` 0); the CLI's ``--speed-max`` default is 3 m/s.
    """

    bounds: float = 50.0
    n_objects: int = 6
    points_per_object: int = 20
    background_points: int = 60
    noise_sigma: float = 0.05
    d: int = 16
    speed_min: float = 0.0
    speed_max: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_objects", "points_per_object", "background_points", "d"):
            _check_int(name, getattr(self, name))
        if self.d < ATTR_DIM:
            raise ValueError(f"d must be at least {ATTR_DIM} to keep the encoding invertible")
        _check_bounds(self.bounds)
        if self.n_objects < 0 or self.points_per_object < 0 or self.background_points < 0:
            raise ValueError("counts must be non-negative")
        if not self.noise_sigma >= 0.0 or not math.isfinite(self.noise_sigma):
            raise ValueError(
                f"noise_sigma must be non-negative and finite, got {self.noise_sigma}"
            )
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ValueError("need 0 <= speed_min <= speed_max")
        # speed_min <= speed_max, so a finite speed_max bounds both.
        if not math.isfinite(self.speed_max):
            raise ValueError(f"speed_max must be finite, got {self.speed_max}")


def standardize(attrs: np.ndarray) -> np.ndarray:
    """Map raw box attributes onto comparably scaled encoding channels."""
    a = np.asarray(attrs, dtype=np.float64)
    out = a / _SCALES
    out[..., 3:6] = np.log(a[..., 3:6])
    return out


@lru_cache(maxsize=64)
def encoding_matrix(encoder_seed: int, d: int) -> np.ndarray:
    """Seeded (d, 9) matrix with orthonormal columns.

    QR of a Gaussian draw, with column signs fixed so the factorization is
    unique.  Cached and returned read-only.
    """
    if d < ATTR_DIM:
        raise ValueError(f"d must be at least {ATTR_DIM}")
    g = make_rng(encoder_seed).standard_normal((d, ATTR_DIM))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    e = np.ascontiguousarray(q * signs)
    e.flags.writeable = False
    return e


def encode_attributes(box: np.ndarray, encoder_seed: int, d: int) -> np.ndarray:
    """Noise-free feature vector for a (9,) box row."""
    e = encoding_matrix(encoder_seed, d)
    return e @ standardize(box)


# Log-size channels whose exp() is a normal positive float; beyond them a
# decoded box size overflows to inf or underflows towards 0.
_LOG_SIZE_MIN = math.log(sys.float_info.min)
_LOG_SIZE_MAX = math.log(sys.float_info.max)
_SIZE_OVERFLOW = "decoded box size over- or underflows (overflowing features)"


def decode_feature(
    feat: np.ndarray, encoder_seed: int, tau_bg: float = 0.0
) -> np.ndarray | None:
    """Invert the encoding into a (9,) box row; returns None for
    background-level features."""
    f = np.asarray(feat, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("decode_feature expects a single feature vector")
    # The vector 2-norm, computed as np.linalg.norm computes it.
    if math.sqrt(f.dot(f)) <= tau_bg:
        return None
    e = encoding_matrix(encoder_seed, f.shape[0])
    channels = e.T @ f
    log_w, log_l, log_h = channels[3:6].tolist()
    # Written so that NaN fails too.
    if not (_LOG_SIZE_MIN <= log_w <= _LOG_SIZE_MAX and _LOG_SIZE_MIN <= log_l <= _LOG_SIZE_MAX
            and _LOG_SIZE_MIN <= log_h <= _LOG_SIZE_MAX):
        raise ValueError(_SIZE_OVERFLOW)
    # Undo standardize().  The sizes take numpy's exp, which rounds some
    # values differently from math.exp.
    box = channels * _SCALES
    box[3:6] = np.exp(channels[3:6])
    box[6] = wrap_angle(float(box[6]))
    return box


# Center draws an object gets before the scene counts as over-packed.
_SPACING_DRAWS = 200
# Least distance in meters between two object centers, and the border
# that keeps every center off the scene's edge.
_MIN_SEPARATION = 6.0
_MARGIN = 5.0


def _sample_boxes(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw (n_objects, 9) object boxes with a minimum pairwise spacing."""
    boxes: list[list[float]] = []
    lo = -cfg.bounds + _MARGIN
    hi = cfg.bounds - _MARGIN
    if cfg.n_objects > 0 and not lo < hi:
        raise ValueError(
            f"bounds {cfg.bounds} m leave no room for object centers {_MARGIN} m "
            f"inside the scene edge; use bounds above {_MARGIN} or no objects"
        )
    for i in range(cfg.n_objects):
        for _attempt in range(_SPACING_DRAWS):
            c = rng.uniform(lo, hi, size=2)
            # Centers too far apart for their distance to be a float are far apart.
            with np.errstate(over="ignore"):
                if all(np.hypot(*(c - box[:2])) >= _MIN_SEPARATION for box in boxes):
                    break
        else:
            raise ValueError(
                f"object {i}: no center at least min_separation {_MIN_SEPARATION} m "
                f"from the others in {_SPACING_DRAWS} draws; use fewer objects or "
                f"larger bounds"
            )
        w = float(rng.uniform(1.6, 2.2))
        l = float(rng.uniform(3.5, 5.0))
        h = float(rng.uniform(1.4, 1.9))
        heading = float(rng.uniform(-math.pi, math.pi))
        speed = float(rng.uniform(cfg.speed_min, cfg.speed_max))
        x, y = c.tolist()
        boxes.append([x, y, h / 2.0, w, l, h, wrap_angle(heading),
                      speed * math.cos(heading), speed * math.sin(heading)])
    return np.array(boxes).reshape(-1, ATTR_DIM)


def _render_frame(
    cfg: SceneConfig,
    boxes: np.ndarray,
    track_ids: list[int],
    timestamp: float,
    encoder_seed: int,
    rng: np.random.Generator,
) -> Frame:
    """Scatter noisy feature points for the given boxes plus background."""
    xy_parts: list[np.ndarray] = []
    feat_parts: list[np.ndarray] = []
    # A noise level that overflows the features is refused below, warning-free.
    with np.errstate(over="ignore", invalid="ignore"):
        for box in boxes:
            clean = encode_attributes(box, encoder_seed, cfg.d)
            # Points fall uniformly inside the rotated footprint.
            local = rng.uniform(-0.5, 0.5, size=(cfg.points_per_object, 2))
            local *= box[[4, 3]]
            cos_t, sin_t = math.cos(box[6]), math.sin(box[6])
            rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
            xy = local @ rot.T + box[:2]
            eps = rng.standard_normal((cfg.points_per_object, cfg.d)) * cfg.noise_sigma
            xy_parts.append(xy)
            feat_parts.append(clean + eps)
        bg_xy = rng.uniform(-cfg.bounds, cfg.bounds, size=(cfg.background_points, 2))
        bg_feat = rng.standard_normal((cfg.background_points, cfg.d)) * cfg.noise_sigma
    xy_parts.append(bg_xy)
    feat_parts.append(bg_feat)
    feat = np.concatenate(feat_parts)
    if not np.isfinite(feat).all():
        raise ValueError(f"noise_sigma {cfg.noise_sigma} overflows the point features")
    return Frame(
        timestamp=timestamp,
        boxes=boxes,
        track_ids=list(track_ids),
        xy=np.concatenate(xy_parts),
        feat=feat,
        encoder_seed=encoder_seed,
    )


def generate_sequence(
    cfg: SceneConfig,
    frames: int,
    interval: float,
    rng: np.random.Generator,
) -> list[Frame]:
    """Frames of one scene with objects translating at their velocities
    under stable track ids; identical (cfg, seed) gives identical frames.
    Objects whose centers leave the scene square are dropped from that
    frame on."""
    _check_int("frames", frames)
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if not interval > 0.0 or not math.isfinite(interval):
        raise ValueError(f"frame interval must be positive and finite, got {interval}")
    try:
        last = (frames - 1) * interval
    except OverflowError:  # a frame count beyond the float range
        last = math.inf
    if not math.isfinite(last):
        raise ValueError(
            f"{frames} frames at interval {interval} s stamp the last frame past the float range")
    encoder_seed = draw_seed(rng)
    boxes = _sample_boxes(cfg, rng)
    track_ids = list(range(len(boxes)))
    out: list[Frame] = []
    for t in range(frames):
        if t > 0:
            boxes = boxes.copy()
            with np.errstate(over="ignore"):  # an overflowing move leaves the scene
                boxes[:, :2] += boxes[:, 7:9] * interval
            kept = (np.abs(boxes[:, :2]) <= cfg.bounds).all(axis=1)
            boxes = boxes[kept]
            track_ids = [tid for tid, k in zip(track_ids, kept.tolist()) if k]
        out.append(_render_frame(cfg, boxes, track_ids, t * interval, encoder_seed, rng))
    return out


def _non_finite_point(xy: np.ndarray, feat: np.ndarray) -> str | None:
    """``point i: xy is not finite`` (or ``feature``) for the first such
    point, positions checked first; None when every value is finite."""
    for name, values in (("xy", xy), ("feature", feat)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            return f"point {bad[0]}: {name} is not finite"
    return None


def _base64_float64s(values: np.ndarray) -> str:
    """The values, row by row, as little-endian float64 bytes in base64
    (RFC 4648, padded)."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8")).decode("ascii")


def _frame_record(t: int, frame: Frame) -> dict:
    fault = _non_finite_point(frame.xy, frame.feat)
    if fault:
        raise ValueError(f"frame {t}: {fault}")
    return {
        "timestamp": frame.timestamp,
        "gt": [
            {"box": box, "track_id": tid}
            for box, tid in zip(frame.boxes.tolist(), frame.track_ids)
        ],
        "xy": _base64_float64s(frame.xy),
        "feat": _base64_float64s(frame.feat),
        "encoder_seed": frame.encoder_seed,
        "d": frame.d,
    }


def _write_records(records: Iterable[dict], path: str) -> None:
    """JSON Lines, one record per line; stable key order keeps runs comparable."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")


def write_scenes(frames: Iterable[Frame], path: str) -> None:
    """One frame per line, its points as two base64 float64 arrays; a
    non-finite point value is refused, naming frame and point, before
    that frame's line is written."""
    _write_records((_frame_record(t, frame) for t, frame in enumerate(frames)), path)


class _NamedFault(ValueError):
    """A record fault whose message names its place: not a malformed record."""


def _json_int(value, name: str) -> int:
    """A JSON integer field; a float or a bool is refused, not truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """A JSON number field as a float; a string or a bool is refused, not
    converted."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_array(value, name: str) -> list:
    """A JSON array field; null, a number or an object is not read as empty.
    A refusal echoes a shortened repr, since the value may be large."""
    if type(value) is not list:
        raise ValueError(f"{name} must be an array, got {reprlib.repr(value)}")
    return value


def _json_numbers(value, n: int, name: str) -> list[float]:
    """A JSON array of ``n`` finite numbers, as floats."""
    if type(value) is not list or len(value) != n:
        raise ValueError(f"{name} must be {n} numbers, got shape {np.array(value, object).shape}")
    out = [_json_number(v, name) for v in value]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} is not finite")
    return out


def _json_box(value) -> list[float]:
    """A box: 9 finite JSON numbers with positive w, l and h."""
    box = _json_numbers(value, ATTR_DIM, "box")
    if not min(box[3:6]) > 0.0:
        raise ValueError("box size must be positive")
    return box


def _named(kind: str, i: int, parse: Callable, entry, *args):
    """``parse(entry, *args)`` for entry ``kind i`` of a record, a JSON
    object; a fault in it, a missing key included, is that entry's."""
    try:
        if type(entry) is not dict:
            raise ValueError(f"must be an object, got {entry!r}")
        return parse(entry, *args)
    except KeyError as exc:
        raise _NamedFault(f"{kind} {i}: missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise _NamedFault(f"{kind} {i}: {exc}") from exc


def _check_utf8(line: str) -> None:
    """Refuse a line read with ``errors="surrogateescape"`` whose bytes were
    not UTF-8, naming the first bad byte."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise _NamedFault(
            f"byte 0x{byte:02x} at character {exc.start + 1} is not UTF-8") from None


def _read_records(path: str, kind: str, parse: Callable) -> list:
    """``parse(obj, timestamp, records)`` of each non-blank line of a JSON
    Lines file, whose timestamp must be finite and later than the last
    record's.  A fault raises ``path:line: …``: a line that is no JSON
    object and a missing top-level key are named as such, and any other
    fault is a malformed ``kind`` record unless it names its place.
    """
    records: list = []
    # Bytes that are not UTF-8 come through as lone surrogates, so that the
    # line holding them is named below rather than by the decoder.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        # Counted by hand: enumerate() keeps its last (index, line) tuple for
        # reuse, which would keep each line alive until the next is read.
        line_no = 0
        for line in fh:
            line_no += 1
            # json.loads skips surrounding whitespace, so the line is parsed
            # as read, without a stripped copy, and dropped once parsed.
            if line.isspace():
                continue
            try:
                if not line.isascii():
                    _check_utf8(line)
                obj = json.loads(line)
                del line
                if type(obj) is not dict:
                    raise _NamedFault(f"record must be a JSON object, got {type(obj).__name__}")
                t = _json_number(obj["timestamp"], "timestamp")
                if not math.isfinite(t):
                    raise _NamedFault(f"timestamp {t} is not finite")
                if records and not t > (last := records[-1].timestamp):
                    raise _NamedFault(
                        f"timestamp {t} is not later than the previous frame's {last}")
                records.append(parse(obj, t, records))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                reason = (f"bad JSON ({exc})" if isinstance(exc, json.JSONDecodeError)
                          else f"missing {exc}" if isinstance(exc, KeyError)
                          else exc if isinstance(exc, _NamedFault)
                          else f"malformed {kind} record ({exc})")
                raise ValueError(f"{path}:{line_no}: {reason}") from exc
    return records


def _gt_entry(g: dict) -> tuple[list[float], int]:
    box = _json_box(g["box"])
    box[6] = wrap_angle(box[6])
    return box, _json_int(g["track_id"], "track_id")


def _float64_bytes(rec: dict, key: str) -> bytes:
    """The bytes of a record's base64 float64 field, which leaves the
    record so that the string is freed once decoded."""
    value = rec.pop(key)
    if type(value) is not str:
        raise ValueError(f"{key} must be a base64 string, got {reprlib.repr(value)}")
    try:
        return base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise ValueError(f"{key} is not base64 ({exc})") from None


def _frame(rec: dict, timestamp: float, frames: list[Frame]) -> Frame:
    """One scene record as a frame, given the frames before it."""
    d = _json_int(rec["d"], "d")
    if d < ATTR_DIM:
        raise ValueError(f"d must be at least {ATTR_DIM}, got {d}")
    if frames and d != frames[0].d:
        raise ValueError(f"d must be the first frame's {frames[0].d}, got {d}")
    encoder_seed = _json_int(rec["encoder_seed"], "encoder_seed")
    if not 0 <= encoder_seed < 2**64:
        raise ValueError(f"encoder_seed must be in [0, 2**64), got {encoder_seed}")
    gt = _json_array(rec["gt"], "gt")
    if "points" in rec:
        raise _NamedFault('old per-point scene format ("points"); simulate the scene again')
    xy_bytes = _float64_bytes(rec, "xy")
    if len(xy_bytes) % 16:
        raise ValueError(f"xy holds {len(xy_bytes)} bytes, not 16 (two float64) per point")
    n = len(xy_bytes) // 16
    feat_bytes = _float64_bytes(rec, "feat")
    if len(feat_bytes) != n * d * 8:
        raise ValueError(f"feat holds {len(feat_bytes)} bytes, not {n * d * 8} "
                         f"(n {n} points * d {d} * 8)")
    # Frame copies xy; the features are copied here, so they stay writeable.
    xy = np.frombuffer(xy_bytes, "<f8").reshape(n, 2)
    feat = np.frombuffer(feat_bytes, "<f8").reshape(n, d).astype(np.float64)
    fault = _non_finite_point(xy, feat)
    if fault:
        raise _NamedFault(fault)
    entries = [_named("gt", i, _gt_entry, g) for i, g in enumerate(gt)]
    boxes = np.array([box for box, _ in entries]).reshape(-1, ATTR_DIM)
    return Frame(timestamp, boxes, [tid for _, tid in entries], xy, feat, encoder_seed)


def read_scenes(path: str) -> list[Frame]:
    """Parse a scene JSONL file into frames of one feature width, timestamps strictly rising."""
    return _read_records(path, "frame", _frame)
