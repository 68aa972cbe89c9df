"""Command-line front end: simulate, detect, eval, gradcheck, bench, pipeline.

Every command accepts --config pointing at a flat key=value file (# starts
a comment); any key can also be given as the flag of the same name, and
explicit flags win.  Exit codes: 0 success, 1 validation/usage error,
2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import bench as bench_mod
from .bevscene import Frame, SceneConfig, generate_sequence, read_scenes, write_scenes
from .bevscene import _MARGIN, _MIN_SEPARATION  # echoed in the pipeline's report
from .bevscene import _check_utf8
from .dqem import (
    DetectionFrame,
    DqemParams,
    _check_dedup_radius,
    dedup_detections,
    diversity_loss,
    diversity_loss_grad,
    fit_projections,
    init_pillars,
    read_detections,
    write_detections,
)
from .evalkit import TP_THRESHOLD, EvalReport, _check_tp_threshold, _json_values
from .evalkit import evaluate_detections, write_report
from .ltfm import TemporalParams, run_sequence
from .numerics import central_differences, derive_seed, make_rng

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
        # Bytes that are not UTF-8 come through as lone surrogates, so that
        # the line holding them is named below rather than by the decoder.
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    _check_utf8(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq or not key:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
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
    # A config file cannot name another.
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key in values:
        actions[key].required = False  # the file's value stands in for the flag
    sub.set_defaults(**{k: _coerce(v, actions[k], path, k) for k, v in values.items()})


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--config", help="flat key=value file with # comments; flags override")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="root seed for all randomness")


def _add_scene_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int, default=8, help="sequence length")
    p.add_argument("--interval", type=float, default=0.5, help="seconds between frames")
    p.add_argument("--bounds", type=float, default=SceneConfig.bounds,
                   help="scene half-extent in meters")
    p.add_argument("--objects", type=int, default=SceneConfig.n_objects, help="objects per scene")
    p.add_argument("--points-per-object", type=int, default=SceneConfig.points_per_object)
    p.add_argument("--background-points", type=int, default=SceneConfig.background_points)
    p.add_argument("--noise-sigma", type=float, default=SceneConfig.noise_sigma)
    p.add_argument("--d", type=int, default=SceneConfig.d, help="feature width (at least 9)")
    p.add_argument("--speed-min", type=float, default=SceneConfig.speed_min)
    # The one default SceneConfig does not set: the CLI simulates moving
    # objects, while SceneConfig()'s static scenes feed acceptance criteria 5 and 7.
    p.add_argument("--speed-max", type=float, default=3.0)


def _add_detect_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=DqemParams.k, help="clusters per neighborhood")
    p.add_argument("--topk", type=int, default=DqemParams.top_k, help="clusters kept by attention")
    p.add_argument("--beta", type=float, default=DqemParams.beta, help="query blend weight")
    p.add_argument("--radius", type=float, default=DqemParams.radius,
                   help="gather radius in meters")
    p.add_argument("--iters", type=int, default=DqemParams.iterations,
                   help="refinement rounds per frame")
    p.add_argument("--kmeans-iters", type=int, default=DqemParams.kmeans_iters,
                   help="Lloyd update cap")
    p.add_argument("--tau-bg", type=float, default=DqemParams.tau_bg,
                   help="background feature-norm gate")
    p.add_argument("--grid-nx", type=int, default=10)
    p.add_argument("--grid-ny", type=int, default=10)
    p.add_argument("--dedup-radius", type=float, default=2.0,
                   help="suppress lower-scored detections within this BEV radius; 0 disables")
    p.add_argument("--temporal", action="store_true", help="enable temporal fusion")
    p.add_argument("--alpha", type=float, default=TemporalParams.alpha, help="temporal blend weight")
    p.add_argument("--stride", type=int, default=TemporalParams.stride, help="frames between fusions")


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
    _check_dedup_radius(args.dedup_radius)
    return params, tparams, init_pillars(args.grid_nx, args.grid_ny, args.bounds)


def _detect_over_scenes(
    args: argparse.Namespace,
    params: DqemParams,
    tparams: TemporalParams,
    starts: np.ndarray,
    scenes_path: str,
    out_path: str,
) -> list[DetectionFrame]:
    """Detect over the scene file; write and return the deduped frames."""
    frames = read_scenes(scenes_path)
    if not frames:
        raise ValueError(f"{scenes_path}: no frames")
    try:
        result = run_sequence(
            frames, params, tparams if args.temporal else None,
            make_rng(derive_seed(args.seed, "detect")), starts,
        )
    except ValueError as exc:
        raise ValueError(f"{scenes_path}: {exc}") from exc
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
    write_detections(out_path, det_frames, _json_values(echo))
    return det_frames


def _simulate(args: argparse.Namespace, cfg: SceneConfig) -> list[Frame]:
    rng = make_rng(derive_seed(args.seed, "simulate"))
    return generate_sequence(cfg, args.frames, args.interval, rng)


def _check_out_dir(option: str, path: str) -> None:
    """Refuse an output path whose directory does not exist, before the
    command reads or computes anything."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"{option} {path}: directory {directory} does not exist")


def _report(report: EvalReport, path: str) -> int:
    """Write the report to ``path`` and print it."""
    write_report(report, path)
    print(json.dumps(report.as_dict(), sort_keys=True, allow_nan=False))
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    cfg = _scene_config(args)
    _check_out_dir("--out", args.out)
    frames = _simulate(args, cfg)
    write_scenes(frames, args.out)
    n_pts = sum(len(f.xy) for f in frames)
    print(f"wrote {len(frames)} frames ({n_pts} points) to {args.out}")
    return 0


def _run_detect(args: argparse.Namespace) -> int:
    settings = _detect_params(args)
    _check_out_dir("--out", args.out)
    _detect_over_scenes(args, *settings, args.scenes, args.out)
    print(f"wrote detections to {args.out}")
    return 0


def _run_eval(args: argparse.Namespace) -> int:
    _check_tp_threshold(args.tp_threshold)
    _check_out_dir("--report", args.report)
    det_frames, scene_frames = read_detections(args.dets), read_scenes(args.scenes)
    config = {"dets": args.dets, "scenes": args.scenes, "tp_threshold": args.tp_threshold}
    try:
        report = evaluate_detections(det_frames, scene_frames, args.tp_threshold, config)
    except ValueError as exc:  # the threshold is checked, so the frames do not pair up
        raise ValueError(f"{args.dets} vs {args.scenes}: {exc}") from None
    return _report(report, args.report)


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
            fd = central_differences(diversity_loss, scores, h)
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
    if len(sweep) < 2:
        raise ValueError(f"--n-min {args.n_min}, --n-max {args.n_max} and --factor "
                         f"{args.factor} give one size; the sweep needs at least two")
    cfg = bench_mod.BenchConfig(
        n_sweep=tuple(sweep),
        k=args.k,
        kmeans_iters=args.kmeans_iters,
        d=args.d,
        repeats=args.repeats,
    )
    _check_out_dir("--out", args.out)
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
    _check_tp_threshold(args.tp_threshold)
    frames = _simulate(args, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    write_scenes(frames, scenes_path)
    det_frames = _detect_over_scenes(args, params, tparams, starts, scenes_path, dets_path)
    # Everything the run depends on, echoed into its report.
    config = {
        "seed": args.seed, "frames": args.frames, "interval": args.interval,
        "scene": {**asdict(cfg), "margin": _MARGIN, "min_separation": _MIN_SEPARATION},
        "detect": _json_values(asdict(params)),
        "temporal": args.temporal, "tp_threshold": args.tp_threshold,
    }
    # Scored as detected, not parsed back; the scene file is read as eval reads it.
    report = evaluate_detections(det_frames, read_scenes(scenes_path), args.tp_threshold, config)
    return _report(report, report_path)


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="qebev", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("simulate", help="write a synthetic scene JSONL")
    _add_common(p)
    _add_scene_args(p)
    p.add_argument("--out", required=True, help="output scene JSONL path")
    p.set_defaults(func=_run_simulate)

    p = subs.add_parser("detect", help="run query evolution over a scene file")
    _add_common(p)
    _add_detect_args(p)
    p.add_argument("--scenes", required=True, help="input scene JSONL")
    p.add_argument("--out", required=True, help="output detection JSONL")
    p.add_argument("--bounds", type=float, default=SceneConfig.bounds,
                   help="pillar grid half-extent")
    p.set_defaults(func=_run_detect)

    p = subs.add_parser("eval", help="score detections against their scenes")
    _add_common(p, seed=False)
    p.add_argument("--dets", required=True, help="detection JSONL")
    p.add_argument("--scenes", required=True, help="scene JSONL")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--tp-threshold", type=float, default=TP_THRESHOLD)
    p.set_defaults(func=_run_eval)

    p = subs.add_parser("gradcheck", help="finite-difference checks of the gradients")
    _add_common(p)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--fit-steps", type=int, default=3)
    p.set_defaults(func=_run_gradcheck)

    p = subs.add_parser("bench", help="scaling sweep of the refinement step")
    _add_common(p)
    p.add_argument("--n-min", type=int, default=bench_mod.BenchConfig.n_sweep[0])
    p.add_argument("--n-max", type=int, default=bench_mod.BenchConfig.n_sweep[-1])
    p.add_argument("--factor", type=int, default=2)
    p.add_argument("--repeats", type=int, default=bench_mod.BenchConfig.repeats)
    p.add_argument("--d", type=int, default=bench_mod.BenchConfig.d)
    p.add_argument("--k", type=int, default=bench_mod.BenchConfig.k)
    p.add_argument("--kmeans-iters", type=int, default=bench_mod.BenchConfig.kmeans_iters)
    p.add_argument("--out", default="scaling.csv", help="output CSV path")
    p.set_defaults(func=_run_bench)

    p = subs.add_parser("pipeline", help="simulate, detect, and eval in one run")
    _add_common(p)
    _add_scene_args(p)
    _add_detect_args(p)
    p.add_argument("--out-dir", default="qebev-run", help="directory for the artifacts")
    p.add_argument("--tp-threshold", type=float, default=TP_THRESHOLD)
    p.add_argument("--no-temporal", dest="temporal", action="store_false",
                   help="run every frame independently")
    p.set_defaults(func=_run_pipeline, temporal=True)

    return parser, subs.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        sub = commands.get(next((a for a in argv if not a.startswith("-")), None))
        if sub is not None:
            _apply_config(sub, argv)
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
