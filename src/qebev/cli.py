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
from dataclasses import asdict, fields, replace

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


# The values a config file may give a switch such as --temporal.
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(sub: argparse.ArgumentParser, argv: list[str]) -> None:
    """Install config-file values as parser defaults so flags override them.
    Each line is checked and typed as it is read; a fault names its path:line."""
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is None:
        return
    # A config file cannot name another.
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    # Bytes that are not UTF-8 come through as lone surrogates, so that the
    # line holding them is named below rather than by the decoder.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                if not raw.isascii():
                    _check_utf8(raw)
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = (part.strip() for part in line.partition("="))
                if not eq or not key:
                    raise ValueError(f"expected key=value, got {line!r}")
                if (action := actions.get(key)) is None:
                    raise ValueError(f"unknown config key {key}")
                if action.nargs == 0:  # --temporal, --no-temporal
                    if value.lower() not in _BOOLEANS:
                        raise ValueError(f"key {key} expects a boolean, got {value!r}")
                    value = _BOOLEANS[value.lower()]
                elif action.type is not None:
                    value = action.type(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            action.required = False  # the file's value stands in for the flag
            sub.set_defaults(**{key: value})


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--config", help="flat key=value file with # comments; flags override")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="root seed for all randomness")


# The settings flags not named after their field.  A settings flag's dest,
# which is also its config key, is the field's name or the one given here.
_FLAG_NAMES = {"n_objects": "objects", "top_k": "topk", "iterations": "iters"}

# Help per settings owner and field; a field named nowhere here has none.
_FIELD_HELP = {
    SceneConfig: {"bounds": "scene half-extent in meters", "n_objects": "objects per scene",
                  "d": "feature width (at least 9)"},
    DqemParams: {"k": "clusters per neighborhood", "top_k": "clusters kept by attention",
                 "beta": "query blend weight", "radius": "gather radius in meters",
                 "iterations": "refinement rounds per frame", "kmeans_iters": "Lloyd update cap",
                 "tau_bg": "background feature-norm gate"},
    TemporalParams: {"alpha": "temporal blend weight", "stride": "frames between fusions"},
}


def _add_settings(p: argparse.ArgumentParser, owner: type, **defaults) -> None:
    """One flag per field of the settings dataclass ``owner``, in field
    order, taking its default and type from the field unless ``defaults``
    names it."""
    helps = _FIELD_HELP.get(owner, {})
    for f in fields(owner):
        default = defaults.get(f.name, f.default)
        p.add_argument("--" + _FLAG_NAMES.get(f.name, f.name).replace("_", "-"),
                       type=type(default), default=default, help=helps.get(f.name))


def _settings(owner: type, args: argparse.Namespace):
    """The ``owner`` dataclass built, and so checked, from the flags that
    ``_add_settings`` added for it."""
    return owner(**{f.name: getattr(args, _FLAG_NAMES.get(f.name, f.name))
                    for f in fields(owner)})


def _add_scene_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int, default=8, help="sequence length")
    p.add_argument("--interval", type=float, default=0.5, help="seconds between frames")
    # The one default SceneConfig does not set: the CLI simulates moving
    # objects, while SceneConfig()'s static scenes feed acceptance criteria 5 and 7.
    _add_settings(p, SceneConfig, speed_max=3.0)


def _add_detect_args(p: argparse.ArgumentParser) -> None:
    _add_settings(p, DqemParams)
    p.add_argument("--grid-nx", type=int, default=10)
    p.add_argument("--grid-ny", type=int, default=10)
    p.add_argument("--dedup-radius", type=float, default=2.0,
                   help="suppress lower-scored detections within this BEV radius; 0 disables")
    p.add_argument("--temporal", action="store_true", help="enable temporal fusion")
    _add_settings(p, TemporalParams)


def _detect_params(
    args: argparse.Namespace,
) -> tuple[DqemParams, TemporalParams, np.ndarray]:
    """The detection settings and the query grid's start boxes, every
    value checked before a run reads, draws or writes anything."""
    params = _settings(DqemParams, args)
    # Built even without --temporal, so that a bad --alpha or --stride fails.
    tparams = _settings(TemporalParams, args)
    _check_dedup_radius(args.dedup_radius)
    return params, tparams, init_pillars(args.grid_nx, args.grid_ny, args.bounds)


def _read_frames(path: str) -> list[Frame]:
    """The frames of a scene file; a file with none is refused."""
    frames = read_scenes(path)
    if not frames:
        raise ValueError(f"{path}: no frames")
    return frames


def _detect_over_scenes(
    args: argparse.Namespace,
    params: DqemParams,
    tparams: TemporalParams,
    starts: np.ndarray,
    scenes_path: str,
    out_path: str,
) -> list[DetectionFrame]:
    """Detect over the scene file; write and return the deduped frames."""
    frames = _read_frames(scenes_path)
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
        echo.update(asdict(tparams))
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
    cfg = _settings(SceneConfig, args)
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
    det_frames, scene_frames = read_detections(args.dets), _read_frames(args.scenes)
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
    cfg = _settings(bench_mod.BenchConfig, args)
    _check_out_dir("--out", args.out)
    report = bench_mod.run_scaling(cfg, make_rng(derive_seed(args.seed, "bench")))
    bench_mod.write_bench_csv(report, args.out)
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

    cfg = _settings(SceneConfig, args)
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
    report = evaluate_detections(det_frames, _read_frames(scenes_path), args.tp_threshold, config)
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
    _add_settings(p, bench_mod.BenchConfig)
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
