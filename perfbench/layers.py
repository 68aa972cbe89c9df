"""What a traced run wraps in qebev, the counts it derives, its layer metrics.

Each public function of the traced modules (their ``__all__``), plus a few
private ones named below, is replaced by a span-recording wrapper in every
``qebev`` module that holds a reference to it, because callers look names
up in their own module's globals (``ltfm`` calls ``kmeans`` as
``ltfm.kmeans``).  Nothing under ``src/`` knows about the tracing.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tracemalloc

from .spans import Tracer, time_by_name

TRACED_MODULES = ("numerics", "bevscene", "dqem", "ltfm", "evalkit")
PRIVATE = {
    "dqem": ("_kmeans_pp_init",),
    "ltfm": ("_evolve_single", "_velocity_estimate"),
}
# Functions whose peak traced memory the memory run records.
MEMORY_SPANS = ("bevscene.read_scenes", "ltfm.run_sequence")

# Per-layer time metrics: metric -> span name (inclusive time).
TIMES = {
    "dqem.gather_s": "dqem.gather_neighborhood",
    "dqem.kmeans_s": "dqem.kmeans",
    "dqem.kmeans_seeding_s": "dqem._kmeans_pp_init",
    "dqem.attention_s": "dqem.aggregate_over_centers",
    "dqem.blend_s": "dqem.blend_and_rescale",
    "dqem.dedup_s": "dqem.dedup_detections",
    "numerics.pairwise_sq_dist_s": "numerics.pairwise_sq_dist",
    "bevscene.decode_feature_s": "bevscene.decode_feature",
    "bevscene.write_scenes_s": "bevscene.write_scenes",
    "bevscene.read_scenes_s": "bevscene.read_scenes",
    "ltfm.run_sequence_s": "ltfm.run_sequence",
    "evalkit.evaluate_s": "evalkit.evaluate_detections",
}
# Per-layer call counts: metric -> span name.
CALLS = {
    "dqem.gather_calls": "dqem.gather_neighborhood",
    "dqem.kmeans_calls": "dqem.kmeans",
    "dqem.attention_calls": "dqem.aggregate_over_centers",
    "dqem.blend_calls": "dqem.blend_and_rescale",
    "numerics.pairwise_sq_dist_calls": "numerics.pairwise_sq_dist",
    "bevscene.decode_feature_calls": "bevscene.decode_feature",
    "bevscene.read_scenes_calls": "bevscene.read_scenes",
    "ltfm.temporal_aggregate_calls": "ltfm.temporal_aggregate",
    "ltfm.query_frames": "ltfm._evolve_single",
}
# Counts the observers below derive from call inputs and outputs.
COUNTS = (
    "dqem.lloyd_updates", "dqem.k_eff_sum", "dqem.gather_points", "dqem.gather_empty",
    "ltfm.fused_frames", "ltfm.velocity_gate_hits", "ltfm.velocity_gate_misses",
    "bevscene.scene_bytes", "evalkit.detections_scored",
)


def size_bin(n: int) -> str:
    """Power-of-two histogram bin label: 0, 1, 2-3, 4-7, ..."""
    if n <= 1:
        return str(n)
    lo = 1 << (n.bit_length() - 1)
    return f"{lo}-{2 * lo - 1}"


def _gathered(t: Tracer, args, kwargs, points) -> None:
    n = len(points)
    t.counts["dqem.gather_points"] += n
    t.counts["dqem.gather_empty"] += n == 0
    t.counts["dqem.gather_size_hist." + size_bin(n)] += 1


def _clustered(t: Tracer, args, kwargs, clusters) -> None:
    t.counts["dqem.lloyd_updates"] += len(clusters.inertia_trace)
    t.counts["dqem.k_eff_sum"] += clusters.k_eff
    t.counts[f"dqem.k_eff_hist.{clusters.k_eff}"] += 1


def _deduped(t: Tracer, args, kwargs, kept) -> None:
    t.counts["dqem.dedup_in"] += len(args[0])
    t.counts["dqem.dedup_kept"] += len(kept)


def _evolved(t: Tracer, args, kwargs, result) -> None:
    t.counts["dqem.outcome." + (result[0].flag or "healthy")] += 1


def _sequenced(t: Tracer, args, kwargs, result) -> None:
    import numpy as np

    for fr in result.frames:
        if not fr.fused:
            continue
        t.counts["ltfm.fused_frames"] += 1
        for det in fr.detections:
            # A fused velocity that differs from the box channels found an
            # earlier detection inside the association gate.
            hit = det.velocity is not None and not np.array_equal(det.velocity, det.box[7:9])
            t.counts["ltfm.velocity_gate_hits" if hit else "ltfm.velocity_gate_misses"] += 1


def _scenes_written(t: Tracer, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    t.counts["bevscene.scene_bytes"] += os.path.getsize(path)


def _evaluated(t: Tracer, args, kwargs, report) -> None:
    t.counts["evalkit.detections_scored"] += sum(len(df.detections) for df in args[0])


OBSERVERS = {
    "dqem.gather_neighborhood": _gathered,
    "dqem.kmeans": _clustered,
    "dqem.dedup_detections": _deduped,
    "ltfm._evolve_single": _evolved,
    "ltfm.run_sequence": _sequenced,
    "bevscene.write_scenes": _scenes_written,
    "evalkit.evaluate_detections": _evaluated,
}


def _peak_recorder(peaks: dict[str, int]):
    @contextlib.contextmanager
    def record(tracer: Tracer, name: str):
        if tracemalloc.is_tracing():
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks[name] = max(peaks.get(name, 0), peak)

    return record


def install(tracer: Tracer, peaks: dict[str, int] | None = None):
    """Wrap the traced functions wherever ``qebev`` modules look them up.

    With ``peaks`` given, the MEMORY_SPANS functions also record their peak
    tracemalloc memory into it.  Returns a function that undoes the wrapping.
    """
    memory = _peak_recorder(peaks) if peaks is not None else None
    wrappers: dict[int, object] = {}  # id of the original -> its wrapper
    for short in TRACED_MODULES:
        mod = sys.modules[f"qebev.{short}"]
        for attr in (*mod.__all__, *PRIVATE.get(short, ())):
            fn = getattr(mod, attr)
            if isinstance(fn, type) or not callable(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.wrap(
                name, fn, observe=OBSERVERS.get(name),
                memory=memory if name in MEMORY_SPANS else None,
            )
            wrappers[id(fn)] = wrapped
    replaced = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "qebev" and not mod_name.startswith("qebev."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
                replaced.append((mod, attr, value))

    def undo() -> None:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)

    return undo


def metrics(tracer: Tracer, peaks: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced run (peaks may be empty)."""
    by_name = time_by_name(tracer.spans)
    counts = tracer.counts

    def inclusive(span: str) -> float:
        return by_name[span]["inclusive_s"] if span in by_name else 0.0

    out: dict[str, float] = {m: inclusive(span) for m, span in TIMES.items()}
    out.update({m: counts[span + ".calls"] for m, span in CALLS.items()})
    out.update({m: counts[m] for m in COUNTS})
    out["ltfm.run_sequence_self_s"] = by_name.get("ltfm.run_sequence", {}).get("self_s", 0.0)
    for layer in ("dqem", "numerics"):
        out[f"{layer}.self_s"] = sum(
            rec["self_s"] for name, rec in by_name.items() if name.startswith(layer + ".")
        )
    qf = out["ltfm.query_frames"]
    out["dqem.healthy_ratio"] = counts["dqem.outcome.healthy"] / qf if qf else 0.0
    out["dqem.dedup_keep_ratio"] = (
        counts["dqem.dedup_kept"] / counts["dqem.dedup_in"] if counts["dqem.dedup_in"] else 0.0
    )
    rs = out["ltfm.run_sequence_s"]
    out["ltfm.query_frames_per_s"] = qf / rs if rs else 0.0
    for span in MEMORY_SPANS:
        if span in peaks:
            out[span + "_peak_mb"] = peaks[span] / 2**20
    return out
