"""Synthetic bird's-eye-view scenes with decodable point features.

Every scene point carries a feature vector built as an orthonormal linear
encoding of the owning object's 9 box attributes plus Gaussian noise, so a
detector's output can be checked against ground truth exactly.  Background
points carry pure noise and decode to nothing.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .numerics import draw_seed, make_rng

__all__ = [
    "ATTR_DIM",
    "BoxAttributes",
    "PointSet",
    "Frame",
    "SceneSequence",
    "SceneConfig",
    "encoding_matrix",
    "encode_attributes",
    "decode_feature",
    "generate_frame",
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


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True)
class BoxAttributes:
    """One upright BEV box: center, size, yaw, and planar velocity."""

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float
    vx: float
    vy: float

    def __post_init__(self) -> None:
        for name in ("w", "l", "h"):
            # Written so that NaN fails too; +inf passes.
            if not getattr(self, name) > 0.0:
                raise ValueError(f"box dimension {name} must be positive")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.x, self.y, self.z, self.w, self.l, self.h, self.theta, self.vx, self.vy],
            dtype=np.float64,
        )

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "BoxAttributes":
        a = np.asarray(arr, dtype=np.float64)
        if a.shape != (ATTR_DIM,):
            raise ValueError(f"expected {ATTR_DIM} attributes, got shape {a.shape}")
        return cls(*(float(v) for v in a))

    def center(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


@dataclass
class PointSet:
    """Struct-of-arrays point container: xy is (n, 2), feat is (n, d)."""

    xy: np.ndarray
    feat: np.ndarray

    def __post_init__(self) -> None:
        self.xy = np.asarray(self.xy, dtype=np.float64).reshape(-1, 2)
        self.feat = np.asarray(self.feat, dtype=np.float64)
        if self.feat.ndim != 2 or self.feat.shape[0] != self.xy.shape[0]:
            raise ValueError("xy and feat row counts must agree")

    def __len__(self) -> int:
        return self.xy.shape[0]

    @classmethod
    def empty(cls, d: int) -> "PointSet":
        return cls(np.zeros((0, 2)), np.zeros((0, d)))


@dataclass
class Frame:
    """One time slice: ground-truth boxes plus the scattered feature points."""

    timestamp: float
    boxes: list[BoxAttributes]
    track_ids: list[int]
    points: PointSet
    encoder_seed: int
    d: int
    # Per-radius cell indices over ``points.xy``, built by the first
    # neighbourhood gather at that radius and reused by the later ones.
    cell_index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.boxes) != len(self.track_ids):
            raise ValueError("one track id per ground-truth box")
        if self.points.feat.shape[1] != self.d:
            raise ValueError("feature width disagrees with d")


@dataclass
class SceneSequence:
    """Frames of one scene; objects keep stable track ids."""

    frames: list[Frame]
    # track id -> index of the first frame the object is absent from,
    # recorded when motion carries it outside the scene bounds.
    dropped: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a sequence needs at least one frame")


@dataclass
class SceneConfig:
    """Knobs for synthetic scene generation.

    ``bounds`` is the half-extent of the square scene in meters, so points
    and object centers live in [-bounds, bounds]^2.
    """

    bounds: float = 50.0
    n_objects: int = 6
    points_per_object: int = 20
    background_points: int = 60
    noise_sigma: float = 0.05
    d: int = 16
    speed_min: float = 0.0
    speed_max: float = 0.0
    min_separation: float = 6.0
    margin: float = 5.0

    def __post_init__(self) -> None:
        if self.d < ATTR_DIM:
            raise ValueError(f"d must be at least {ATTR_DIM} to keep the encoding invertible")
        if not self.bounds > 0.0 or not math.isfinite(self.bounds):
            raise ValueError(f"bounds must be positive and finite, got {self.bounds}")
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
    out = np.empty_like(a)
    out[..., 0] = a[..., 0] / POSITION_SCALE
    out[..., 1] = a[..., 1] / POSITION_SCALE
    out[..., 2] = a[..., 2] / HEIGHT_SCALE
    out[..., 3:6] = np.log(a[..., 3:6])
    out[..., 6] = a[..., 6] / math.pi
    out[..., 7] = a[..., 7] / VELOCITY_SCALE
    out[..., 8] = a[..., 8] / VELOCITY_SCALE
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


def encode_attributes(box: BoxAttributes, encoder_seed: int, d: int) -> np.ndarray:
    """Noise-free feature vector for a box."""
    e = encoding_matrix(encoder_seed, d)
    return e @ standardize(box.as_array())


# Log-size channels whose exp() is a normal positive float; beyond them a
# decoded box size overflows to inf or underflows towards 0.
_LOG_SIZE_MIN = math.log(sys.float_info.min)
_LOG_SIZE_MAX = math.log(sys.float_info.max)
_SIZE_OVERFLOW = "decoded box size over- or underflows (overflowing features)"


def decode_feature(
    feat: np.ndarray, encoder_seed: int, tau_bg: float = 0.0
) -> BoxAttributes | None:
    """Invert the encoding; returns None for background-level features."""
    f = np.asarray(feat, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("decode_feature expects a single feature vector")
    # The vector 2-norm, computed as np.linalg.norm computes it.
    if math.sqrt(f.dot(f)) <= tau_bg:
        return None
    e = encoding_matrix(encoder_seed, f.shape[0])
    channels = e.T @ f
    x, y, z, log_w, log_l, log_h, yaw, vx, vy = channels.tolist()
    if not all(_LOG_SIZE_MIN <= v <= _LOG_SIZE_MAX for v in (log_w, log_l, log_h)):
        raise ValueError(_SIZE_OVERFLOW)
    # Undo standardize() channel by channel.  The sizes take numpy's exp,
    # which rounds some values differently from math.exp.  The yaw is
    # wrapped here and again by BoxAttributes: a single wrap rounds some
    # angles differently.
    w, l, h = np.exp(channels[3:6]).tolist()
    return BoxAttributes(
        x * POSITION_SCALE, y * POSITION_SCALE, z * HEIGHT_SCALE, w, l, h,
        wrap_angle(yaw * math.pi), vx * VELOCITY_SCALE, vy * VELOCITY_SCALE,
    )


# Center draws an object gets before the scene counts as over-packed.
_SPACING_DRAWS = 200


def _sample_boxes(cfg: SceneConfig, rng: np.random.Generator) -> tuple[list[BoxAttributes], list[int]]:
    """Draw object boxes with a minimum pairwise spacing."""
    boxes: list[BoxAttributes] = []
    lo = -cfg.bounds + cfg.margin
    hi = cfg.bounds - cfg.margin
    if lo >= hi:
        raise ValueError("bounds too small for the configured margin")
    centers: list[np.ndarray] = []
    for i in range(cfg.n_objects):
        for _attempt in range(_SPACING_DRAWS):
            c = rng.uniform(lo, hi, size=2)
            if all(np.hypot(*(c - p)) >= cfg.min_separation for p in centers):
                break
        else:
            raise ValueError(
                f"object {i}: no center at least min_separation {cfg.min_separation} m "
                f"from the others in {_SPACING_DRAWS} draws; use fewer objects or "
                f"larger bounds"
            )
        centers.append(c)
        w = float(rng.uniform(1.6, 2.2))
        l = float(rng.uniform(3.5, 5.0))
        h = float(rng.uniform(1.4, 1.9))
        heading = float(rng.uniform(-math.pi, math.pi))
        speed = float(rng.uniform(cfg.speed_min, cfg.speed_max))
        boxes.append(
            BoxAttributes(
                x=float(c[0]),
                y=float(c[1]),
                z=h / 2.0,
                w=w,
                l=l,
                h=h,
                theta=heading,
                vx=speed * math.cos(heading),
                vy=speed * math.sin(heading),
            )
        )
    return boxes, list(range(len(boxes)))


def _render_frame(
    cfg: SceneConfig,
    boxes: list[BoxAttributes],
    track_ids: list[int],
    timestamp: float,
    encoder_seed: int,
    rng: np.random.Generator,
) -> Frame:
    """Scatter noisy feature points for the given boxes plus background."""
    xy_parts: list[np.ndarray] = []
    feat_parts: list[np.ndarray] = []
    for box in boxes:
        clean = encode_attributes(box, encoder_seed, cfg.d)
        # Points fall uniformly inside the rotated footprint.
        local = rng.uniform(-0.5, 0.5, size=(cfg.points_per_object, 2))
        local *= np.array([box.l, box.w])
        cos_t, sin_t = math.cos(box.theta), math.sin(box.theta)
        rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
        xy = local @ rot.T + box.center()
        eps = rng.standard_normal((cfg.points_per_object, cfg.d)) * cfg.noise_sigma
        xy_parts.append(xy)
        feat_parts.append(clean + eps)
    bg_xy = rng.uniform(-cfg.bounds, cfg.bounds, size=(cfg.background_points, 2))
    bg_feat = rng.standard_normal((cfg.background_points, cfg.d)) * cfg.noise_sigma
    xy_parts.append(bg_xy)
    feat_parts.append(bg_feat)
    points = PointSet(np.concatenate(xy_parts), np.concatenate(feat_parts))
    return Frame(
        timestamp=timestamp,
        boxes=list(boxes),
        track_ids=list(track_ids),
        points=points,
        encoder_seed=encoder_seed,
        d=cfg.d,
    )


def generate_frame(cfg: SceneConfig, rng: np.random.Generator) -> Frame:
    """One static frame; identical (cfg, seed) gives identical output."""
    encoder_seed = draw_seed(rng)
    boxes, track_ids = _sample_boxes(cfg, rng)
    return _render_frame(cfg, boxes, track_ids, 0.0, encoder_seed, rng)


def generate_sequence(
    cfg: SceneConfig,
    frames: int,
    interval: float,
    rng: np.random.Generator,
) -> SceneSequence:
    """Frames of one scene with objects translating at their velocities.

    Objects whose centers leave the scene square are dropped from that frame
    on, with the drop frame recorded.  A single-frame sequence matches
    :func:`generate_frame` draw for draw.
    """
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if not interval > 0.0 or not math.isfinite(interval):
        raise ValueError(f"frame interval must be positive and finite, got {interval}")
    encoder_seed = draw_seed(rng)
    boxes, track_ids = _sample_boxes(cfg, rng)
    out: list[Frame] = []
    dropped: dict[int, int] = {}
    for t in range(frames):
        if t > 0:
            moved: list[BoxAttributes] = []
            kept_ids: list[int] = []
            for box, tid in zip(boxes, track_ids):
                nb = replace(box, x=box.x + box.vx * interval, y=box.y + box.vy * interval)
                if abs(nb.x) > cfg.bounds or abs(nb.y) > cfg.bounds:
                    dropped[tid] = t
                else:
                    moved.append(nb)
                    kept_ids.append(tid)
            boxes, track_ids = moved, kept_ids
        out.append(_render_frame(cfg, boxes, track_ids, t * interval, encoder_seed, rng))
    return SceneSequence(frames=out, dropped=dropped)


def _frame_record(frame: Frame) -> dict:
    return {
        "timestamp": frame.timestamp,
        "gt": [
            {"box": [float(v) for v in box.as_array()], "track_id": tid}
            for box, tid in zip(frame.boxes, frame.track_ids)
        ],
        "points": [
            {"xy": [float(x), float(y)], "f": [float(v) for v in f]}
            for (x, y), f in zip(frame.points.xy, frame.points.feat)
        ],
        "encoder_seed": frame.encoder_seed,
        "d": frame.d,
    }


def write_scenes(frames: Iterable[Frame], path: str) -> None:
    """JSON Lines, one frame per line; stable key order keeps runs comparable."""
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(json.dumps(_frame_record(frame), sort_keys=True))
            fh.write("\n")


def _packed_point(obj: dict) -> dict | array:
    """json.loads object hook: a point record ``{"xy": [x, y], "f": [...]}``
    becomes one packed float64 row (x, y, then the features).

    A parsed line then holds one small buffer per point instead of a dict,
    two lists and their float objects.  Any other object, and a point whose
    values are not two coordinates and a list of numbers, stays as parsed.
    """
    xy, f = obj.get("xy"), obj.get("f")
    if type(xy) is list and len(xy) == 2 and type(f) is list:
        try:
            return array("d", xy + f)
        except (TypeError, OverflowError):
            pass
    return obj


def _point_arrays(records: list) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) positions and (n, d) features of a line's packed points."""
    try:
        packed = b"".join(records)  # buffers only: any unpacked record fails
    except TypeError:
        bad = next(i for i, row in enumerate(records) if not isinstance(row, array))
        raise ValueError(f"point {bad}: not an xy pair and a list of numbers") from None
    width = len(records[0])
    if any(len(row) != width for row in records):
        raise ValueError("points differ in feature width")
    table = np.frombuffer(packed).reshape(len(records), width)
    return table[:, :2].copy(), table[:, 2:].copy()


def _json_int(value, name: str) -> int:
    """A JSON integer field; a float or a bool is refused, not truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def read_scenes(path: str) -> list[Frame]:
    """Parse a scene JSONL file back into frames, timestamps strictly rising."""
    frames: list[Frame] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            # json.loads skips surrounding whitespace, so the line is parsed
            # as read, without a stripped copy, and dropped once parsed.
            if line.isspace():
                continue
            try:
                rec = json.loads(line, object_hook=_packed_point)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: bad JSON ({exc})") from exc
            del line
            try:
                d = _json_int(rec["d"], "d")
                if d < ATTR_DIM:
                    raise ValueError(f"d must be at least {ATTR_DIM}, got {d}")
                gt_rows = [np.asarray(g["box"], dtype=np.float64) for g in rec["gt"]]
                track_ids = [_json_int(g["track_id"], "track_id") for g in rec["gt"]]
                if rec["points"]:
                    points = PointSet(*_point_arrays(rec["points"]))
                else:
                    points = PointSet.empty(d)
                timestamp = float(rec["timestamp"])
                encoder_seed = _json_int(rec["encoder_seed"], "encoder_seed")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed frame record ({exc})") from exc
            if not math.isfinite(timestamp):
                raise ValueError(f"{path}:{line_no}: timestamp {timestamp} is not finite")
            if frames and not timestamp > frames[-1].timestamp:
                raise ValueError(
                    f"{path}:{line_no}: timestamp {timestamp} is not later than the "
                    f"previous frame's {frames[-1].timestamp}"
                )
            # Finiteness first: BoxAttributes would report a NaN size only
            # as a non-positive one.
            bad_gt = [i for i, row in enumerate(gt_rows) if not np.isfinite(row).all()]
            if bad_gt:
                raise ValueError(f"{path}:{line_no}: gt {bad_gt[0]}: box is not finite")
            for field_name, values in (("xy", points.xy), ("feature", points.feat)):
                bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
                if bad.size:
                    raise ValueError(f"{path}:{line_no}: point {bad[0]}: {field_name} is not finite")
            try:
                frame = Frame(
                    timestamp=timestamp,
                    boxes=[BoxAttributes.from_array(row) for row in gt_rows],
                    track_ids=track_ids,
                    points=points,
                    encoder_seed=encoder_seed,
                    d=d,
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed frame record ({exc})") from exc
            frames.append(frame)
    return frames
