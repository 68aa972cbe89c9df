"""Command-line front end: simulate, detect, eval, gradcheck, bench, pipeline.

Every command accepts --config pointing at a flat key=value file (# starts
a comment); any key can also be given as the flag of the same name, and
explicit flags win.  Exit codes: 0 success, 1 validation/usage error,
2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import bench as bench_mod
from .bevscene import SceneConfig, generate_sequence, read_scenes, write_scenes
from .bevscene import _MARGIN, _MIN_SEPARATION  # echoed in the pipeline's report
from .dqem import (
    DqemParams,
    dedup_detections,
    diversity_loss,
    diversity_loss_grad,
    fit_projections,
    init_pillars,
    read_detections,
    write_detections,
)
from .evalkit import evaluate_detections, write_report
from .ltfm import TemporalParams, run_sequence
from .numerics import derive_seed, make_rng

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(value: str, action: argparse.Action, path: str, key: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        low = value.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"{path}: key {key} expects a boolean, got {value!r}")
    if action.type is not None:
        try:
            return action.type(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: key {key}: {exc}") from exc
    return value


def _apply_config(sub: argparse.ArgumentParser, argv: list[str]) -> None:
    """Install config-file values as parser defaults so flags override them."""
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is None:
        return
    values = _load_config_file(path)
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    sub.set_defaults(**{k: _coerce(v, actions[k], path, k) for k, v in values.items()})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value file with # comments; flags override")
    p.add_argument("--seed", type=int, default=0, help="root seed for all randomness")


def _add_scene_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int, default=8, help="sequence length")
    p.add_argument("--interval", type=float, default=0.5, help="seconds between frames")
    p.add_argument("--bounds", type=float, default=50.0, help="scene half-extent in meters")
    p.add_argument("--objects", type=int, default=6, help="objects per scene")
    p.add_argument("--points-per-object", type=int, default=20)
    p.add_argument("--background-points", type=int, default=60)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--d", type=int, default=16, help="feature width (at least 9)")
    p.add_argument("--speed-min", type=float, default=0.0)
    p.add_argument("--speed-max", type=float, default=3.0)


def _add_detect_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=6, help="clusters per neighborhood")
    p.add_argument("--topk", type=int, default=4, help="clusters kept by attention")
    p.add_argument("--beta", type=float, default=0.6, help="query blend weight")
    p.add_argument("--radius", type=float, default=8.0, help="gather radius in meters")
    p.add_argument("--iters", type=int, default=3, help="refinement rounds per frame")
    p.add_argument("--kmeans-iters", type=int, default=20, help="Lloyd update cap")
    p.add_argument("--tau-bg", type=float, default=0.0, help="background feature-norm gate")
    p.add_argument("--grid-nx", type=int, default=10)
    p.add_argument("--grid-ny", type=int, default=10)
    p.add_argument("--dedup-radius", type=float, default=2.0,
                   help="suppress lower-scored detections within this BEV radius; 0 disables")
    p.add_argument("--temporal", action="store_true", help="enable temporal fusion")
    p.add_argument("--alpha", type=float, default=0.4, help="temporal blend weight")
    p.add_argument("--stride", type=int, default=2, help="frames between fusions")


def _scene_config(args: argparse.Namespace) -> SceneConfig:
    return SceneConfig(
        bounds=args.bounds,
        n_objects=args.objects,
        points_per_object=args.points_per_object,
        background_points=args.background_points,
        noise_sigma=args.noise_sigma,
        d=args.d,
        speed_min=args.speed_min,
        speed_max=args.speed_max,
    )


def _detect_params(
    args: argparse.Namespace,
) -> tuple[DqemParams, TemporalParams, np.ndarray]:
    """The detection settings and the query grid's start boxes, every
    value checked before a run reads, draws or writes anything."""
    params = DqemParams(
        k=args.k,
        top_k=args.topk,
        beta=args.beta,
        radius=args.radius,
        iterations=args.iters,
        kmeans_iters=args.kmeans_iters,
        tau_bg=args.tau_bg,
    )
    # Built even without --temporal, so that a bad --alpha or --stride fails.
    tparams = TemporalParams(alpha=args.alpha, stride=args.stride)
    if not args.dedup_radius >= 0.0:
        # dedup_detections' check, made before detection runs.
        raise ValueError("dedup radius must be non-negative")
    return params, tparams, init_pillars(args.grid_nx, args.grid_ny, args.bounds)


def _check_tp_threshold(args: argparse.Namespace) -> None:
    """evaluate_detections' check, made before any file is read or written."""
    if not args.tp_threshold > 0.0 or not math.isfinite(args.tp_threshold):
        raise ValueError(f"tp_threshold must be positive and finite, got {args.tp_threshold}")


def _json_settings(settings: dict) -> dict:
    """``settings`` with each infinite value, which JSON cannot hold, as its
    string ("inf"): an infinite --radius or --dedup-radius is valid."""
    return {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in settings.items()}


def _detect_over_scenes(
    args: argparse.Namespace,
    params: DqemParams,
    tparams: TemporalParams,
    starts: np.ndarray,
    scenes_path: str,
    out_path: str,
) -> None:
    frames = read_scenes(scenes_path)
    if not frames:
        raise ValueError(f"{scenes_path}: no frames")
    result = run_sequence(
        frames, params, tparams if args.temporal else None,
        make_rng(derive_seed(args.seed, "detect")), starts,
    )
    echo = asdict(params)
    echo.update(
        {
            "grid_nx": args.grid_nx,
            "grid_ny": args.grid_ny,
            "bounds": args.bounds,
            "dedup_radius": args.dedup_radius,
            "seed": args.seed,
            "temporal": args.temporal,
        }
    )
    if args.temporal:
        echo.update({"alpha": args.alpha, "stride": args.stride})
    det_frames = [
        replace(fr, detections=dedup_detections(fr.detections, args.dedup_radius))
        for fr in result.frames
    ]
    write_detections(out_path, det_frames, _json_settings(echo))


def _run_simulate(args: argparse.Namespace) -> int:
    cfg = _scene_config(args)
    rng = make_rng(derive_seed(args.seed, "simulate"))
    frames = generate_sequence(cfg, args.frames, args.interval, rng)
    write_scenes(frames, args.out)
    n_pts = sum(len(f.points) for f in frames)
    print(f"wrote {len(frames)} frames ({n_pts} points) to {args.out}")
    return 0


def _run_detect(args: argparse.Namespace) -> int:
    _detect_over_scenes(args, *_detect_params(args), args.scenes, args.out)
    print(f"wrote detections to {args.out}")
    return 0


def _run_eval(args: argparse.Namespace) -> int:
    _check_tp_threshold(args)
    det_frames = read_detections(args.dets)
    scene_frames = read_scenes(args.scenes)
    report = evaluate_detections(
        det_frames,
        scene_frames,
        tp_threshold=args.tp_threshold,
        config={
            "dets": args.dets,
            "scenes": args.scenes,
            "tp_threshold": args.tp_threshold,
        },
    )
    write_report(report, args.report)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _run_gradcheck(args: argparse.Namespace) -> int:
    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    if args.fit_steps < 0:
        raise ValueError("--fit-steps must be non-negative")
    rng = make_rng(derive_seed(args.seed, "gradcheck"))
    h = 1e-6
    worst = 0.0
    for k in (2, 6, 16):
        for _ in range(args.cases):
            scores = rng.normal(0.0, 2.0, size=k)
            analytic = diversity_loss_grad(scores)
            fd = np.zeros(k)
            for j in range(k):
                up, dn = scores.copy(), scores.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (diversity_loss(up) - diversity_loss(dn)) / (2.0 * h)
            denom = max(float(np.abs(analytic).max()), 1e-12)
            worst = max(worst, float(np.abs(analytic - fd).max()) / denom)
    grad_ok = worst < 1e-6
    print(f"diversity gradient: max relative error {worst:.3e} over "
          f"{3 * args.cases} cases -> {'ok' if grad_ok else 'FAIL'}")

    cfg = SceneConfig(bounds=20.0, n_objects=3, d=12, noise_sigma=0.1)
    suite = generate_sequence(cfg, 2, 0.5, make_rng(derive_seed(args.seed, "gradcheck-suite")))
    fit = fit_projections(
        suite,
        DqemParams(),
        steps=args.fit_steps,
        rng=make_rng(derive_seed(args.seed, "gradcheck-fit")),
    )
    log = fit.objective_log
    fit_ok = all(b <= a + 1e-12 for a, b in zip(log, log[1:]))
    print(f"calibration descent: objective {log[0]:.6f} -> {log[-1]:.6f} over "
          f"{len(log) - 1} accepted steps -> {'ok' if fit_ok else 'FAIL'}")
    return 0 if (grad_ok and fit_ok) else 1


def _run_bench(args: argparse.Namespace) -> int:
    if args.factor < 2:
        raise ValueError("--factor must be at least 2")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError("need 1 <= n-min <= n-max")
    sweep = []
    n = args.n_min
    while n <= args.n_max:
        sweep.append(n)
        n *= args.factor
    cfg = bench_mod.BenchConfig(
        n_sweep=tuple(sweep),
        k=args.k,
        kmeans_iters=args.kmeans_iters,
        d=args.d,
        repeats=args.repeats,
    )
    report = bench_mod.run_scaling(cfg, make_rng(derive_seed(args.seed, "bench")))
    bench_mod.write_bench_csv(report, args.out)
    for note in report.notes:
        print(f"note: {note}")
    if report.slope is None:
        print(f"wrote {args.out}; too few usable sizes for a slope")
    else:
        lo, hi = report.slope_ci
        print(f"wrote {args.out}; log-log slope {report.slope:.3f} (95% CI [{lo:.3f}, {hi:.3f}])")
    return 0


def _run_pipeline(args: argparse.Namespace) -> int:
    scenes_path = os.path.join(args.out_dir, "scenes.jsonl")
    dets_path = os.path.join(args.out_dir, "detections.jsonl")
    report_path = os.path.join(args.out_dir, "report.json")

    cfg = _scene_config(args)
    params, tparams, starts = _detect_params(args)
    _check_tp_threshold(args)
    frames = generate_sequence(
        cfg, args.frames, args.interval, make_rng(derive_seed(args.seed, "simulate"))
    )
    os.makedirs(args.out_dir, exist_ok=True)
    write_scenes(frames, scenes_path)
    _detect_over_scenes(args, params, tparams, starts, scenes_path, dets_path)

    report = evaluate_detections(
        read_detections(dets_path),
        read_scenes(scenes_path),
        tp_threshold=args.tp_threshold,
        # Everything the run depends on, echoed into its report.
        config={
            "seed": args.seed, "frames": args.frames, "interval": args.interval,
            "scene": {**asdict(cfg), "margin": _MARGIN, "min_separation": _MIN_SEPARATION},
            "detect": _json_settings(asdict(params)),
            "temporal": args.temporal, "tp_threshold": args.tp_threshold,
        },
    )
    write_report(report, report_path)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="qebev", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("simulate", help="write a synthetic scene JSONL")
    _add_common(p)
    _add_scene_args(p)
    p.add_argument("--out", required=True, help="output scene JSONL path")
    p.set_defaults(func=_run_simulate)
    registry["simulate"] = p

    p = subs.add_parser("detect", help="run query evolution over a scene file")
    _add_common(p)
    _add_detect_args(p)
    p.add_argument("--scenes", required=True, help="input scene JSONL")
    p.add_argument("--out", required=True, help="output detection JSONL")
    p.add_argument("--bounds", type=float, default=50.0, help="pillar grid half-extent")
    p.set_defaults(func=_run_detect)
    registry["detect"] = p

    p = subs.add_parser("eval", help="score detections against their scenes")
    _add_common(p)
    p.add_argument("--dets", required=True, help="detection JSONL")
    p.add_argument("--scenes", required=True, help="scene JSONL")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--tp-threshold", type=float, default=2.0)
    p.set_defaults(func=_run_eval)
    registry["eval"] = p

    p = subs.add_parser("gradcheck", help="finite-difference checks of the gradients")
    _add_common(p)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--fit-steps", type=int, default=3)
    p.set_defaults(func=_run_gradcheck)
    registry["gradcheck"] = p

    p = subs.add_parser("bench", help="scaling sweep of the refinement step")
    _add_common(p)
    p.add_argument("--n-min", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=128000)
    p.add_argument("--factor", type=int, default=2)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--kmeans-iters", type=int, default=20)
    p.add_argument("--out", default="scaling.csv", help="output CSV path")
    p.set_defaults(func=_run_bench)
    registry["bench"] = p

    p = subs.add_parser("pipeline", help="simulate, detect, and eval in one run")
    _add_common(p)
    _add_scene_args(p)
    _add_detect_args(p)
    p.add_argument("--out-dir", default="qebev-run", help="directory for the artifacts")
    p.add_argument("--tp-threshold", type=float, default=2.0)
    p.add_argument("--no-temporal", dest="temporal", action="store_false",
                   help="run every frame independently")
    p.set_defaults(func=_run_pipeline, temporal=True)
    registry["pipeline"] = p

    return parser, registry


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        command = next((a for a in argv if not a.startswith("-")), None)
        if command in registry:
            _apply_config(registry[command], argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
