import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qebev
from _scene_lines import encode, old_format, points, set_points, set_value
from qebev.bench import BenchConfig
from qebev.bevscene import SceneConfig, read_scenes
from qebev.cli import build_parser, main
from qebev.dqem import DqemParams, read_detections
from qebev.ltfm import TemporalParams


def run(argv):
    return main(argv)


def simulate_args(out, seed=5, frames=3, objects=2):
    return [
        "simulate", "--seed", str(seed), "--frames", str(frames),
        "--objects", str(objects), "--points-per-object", "10",
        "--background-points", "15", "--bounds", "25",
        "--out", str(out),
    ]


def detect_args(scenes, out, extra=()):
    return [
        "detect", "--scenes", str(scenes), "--out", str(out),
        "--grid-nx", "4", "--grid-ny", "4", "--bounds", "25",
        "--radius", "10", "--iters", "1", *extra,
    ]


# ---------------------------------------------------------------- simulate


def test_simulate_writes_deterministic_scenes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(simulate_args(a)) == 0
    assert run(simulate_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    frames = read_scenes(a)
    assert len(frames) == 3
    assert len(frames[0].boxes) == 2


def test_simulate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(simulate_args(a, seed=5))
    run(simulate_args(b, seed=6))
    assert a.read_bytes() != b.read_bytes()


def test_over_packed_scene_exits_one_and_writes_nothing(tmp_path, capsys):
    # 60 objects 6 m apart do not fit in the [-5, 5] square that bounds 10
    # and the 5 m margin leave.
    packed = ("--objects", "60", "--bounds", "10")
    out, run_dir = tmp_path / "x.jsonl", tmp_path / "run"
    for argv in (
        ["simulate", *packed, "--out", str(out)],
        ["pipeline", *packed, "--out-dir", str(run_dir)],
    ):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: object "), err
        assert err.endswith(
            ": no center at least min_separation 6.0 m from the others in 200 draws; "
            "use fewer objects or larger bounds\n"
        ), err
    assert not out.exists() and not run_dir.exists()


@pytest.mark.filterwarnings("error")
def test_an_overflowing_noise_sigma_exits_one_and_writes_nothing(tmp_path, capsys):
    # simulate once exited 0 with two numpy overflow warnings and wrote
    # Infinity tokens that detect then refused; pipeline wrote that
    # scenes.jsonl before it failed.
    out, run_dir = tmp_path / "inf.jsonl", tmp_path / "run"
    for argv in (
        ["simulate", "--noise-sigma", "1e308", "--out", str(out)],
        ["pipeline", "--noise-sigma", "1e308", "--out-dir", str(run_dir)],
    ):
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: noise_sigma 1e+308 overflows the point features\n")
    assert not out.exists() and not run_dir.exists()


def test_bounds_whose_span_overflows_exit_one_and_write_nothing(tmp_path, capsys):
    # simulate and pipeline once ended as "runtime failure: OverflowError",
    # exit 2; detect exited 0 with every pillar center at inf and no
    # detection in any frame.
    scenes, out, run_dir = tmp_path / "s.jsonl", tmp_path / "out.jsonl", tmp_path / "run"
    assert run(simulate_args(scenes)) == 0
    for argv in (
        ["simulate", "--bounds", "1e308", "--out", str(out)],
        ["pipeline", "--bounds", "1e308", "--out-dir", str(run_dir)],
        detect_args(scenes, out, extra=("--bounds", "1e308")),
    ):
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: bounds 1e+308 overflows the scene span 2 * bounds\n")
    assert not out.exists() and not run_dir.exists()
    assert run(["simulate", "--bounds", "1e154", "--frames", "1", "--out", str(out)]) == 0
    assert run(detect_args(scenes, out, extra=("--bounds", "1e154"))) == 0


def test_an_interval_whose_timestamps_overflow_exits_one_and_writes_nothing(tmp_path, capsys):
    # The third frame's timestamp, 2 * 1e308, is inf: the scene writer once
    # refused it after writing part of scenes.jsonl, naming neither option.
    run_dir = tmp_path / "run"
    assert run(["pipeline", "--seed", "0", "--frames", "3", "--interval", "1e308",
                "--out-dir", str(run_dir)]) == 1
    assert capsys.readouterr().err == (
        "error: 3 frames at interval 1e+308 s stamp the last frame past the float range\n")
    assert not run_dir.exists()


def test_a_scene_without_objects_needs_no_margin(tmp_path, capsys):
    # Object centers keep 5 m off the scene edge, which bounds 5 leave no
    # room for; a background-only scene places no center.
    out = tmp_path / "bg.jsonl"
    assert run(["simulate", "--bounds", "5", "--objects", "0", "--frames", "2",
                "--out", str(out)]) == 0
    frames = read_scenes(out)
    assert len(frames) == 2
    for frame in frames:
        assert frame.boxes.shape == (0, 9) and len(frame.xy) == 60
        assert np.all(np.abs(frame.xy) <= 5.0)
    one = tmp_path / "one.jsonl"
    capsys.readouterr()
    assert run(["simulate", "--bounds", "5", "--objects", "1", "--out", str(one)]) == 1
    assert capsys.readouterr().err == (
        "error: bounds 5.0 m leave no room for object centers 5.0 m inside the scene "
        "edge; use bounds above 5.0 or no objects\n"
    )
    assert not one.exists()


# ---------------------------------------------------------------- detect


def test_detect_writes_detections_with_echo(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    dets = tmp_path / "dets.jsonl"
    run(simulate_args(scenes))
    assert run(detect_args(scenes, dets)) == 0
    frames = read_detections(dets)
    assert len(frames) == 3
    header = json.loads(dets.read_text().splitlines()[0])
    assert header["params"]["k"] == 6
    assert header["params"]["radius"] == 10.0


def test_detect_temporal_fuses_and_estimates_velocity(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    dets = tmp_path / "dets.jsonl"
    run(simulate_args(scenes, frames=5))
    assert run(detect_args(scenes, dets, extra=("--temporal", "--stride", "2"))) == 0
    frames = read_detections(dets)
    assert [f.fused for f in frames] == [False, False, True, False, True]
    for f in frames:
        for d in f.detections:
            assert d.velocity is not None


def test_detect_temporal_velocity_follows_uneven_timestamps(tmp_path):
    # Restamping frames 0, 0.5, 1, 1.5, 2 s as 0, 0.5, 2, 3.5, 5 s leaves every
    # box as it was, but a fused frame's motion term then spans 2 or 3 s
    # instead of 1 s, so its fused velocities change.
    even, uneven = tmp_path / "even.jsonl", tmp_path / "uneven.jsonl"
    run(simulate_args(even, frames=5))
    lines = even.read_text().splitlines()
    for i, ts in enumerate((0.0, 0.5, 2.0, 3.5, 5.0)):
        rec = json.loads(lines[i])
        rec["timestamp"] = ts
        lines[i] = json.dumps(rec)
    uneven.write_text("\n".join(lines) + "\n")
    runs = []
    for scenes in (even, uneven):
        dets = tmp_path / f"{scenes.stem}-dets.jsonl"
        assert run(detect_args(scenes, dets, extra=("--temporal", "--stride", "2"))) == 0
        runs.append(read_detections(dets))
    for fa, fb in zip(*runs):
        assert [d.box.tobytes() for d in fa.detections] == [d.box.tobytes() for d in fb.detections]
        same = [np.array_equal(a.velocity, b.velocity) for a, b in zip(fa.detections, fb.detections)]
        assert all(same) != fa.fused, (fa.timestamp, same)


# ---------------------------------------------------------------- eval


def test_eval_writes_report(tmp_path, capsys):
    scenes = tmp_path / "scenes.jsonl"
    dets = tmp_path / "dets.jsonl"
    report = tmp_path / "report.json"
    run(simulate_args(scenes))
    run(detect_args(scenes, dets))
    capsys.readouterr()  # drop the earlier status lines
    assert run(["eval", "--dets", str(dets), "--scenes", str(scenes),
                "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    for key in ("NDS", "mAP", "mATE", "mAVE", "per_threshold_AP", "config"):
        assert key in data
    printed = json.loads(capsys.readouterr().out)
    assert printed["NDS"] == data["NDS"]


def test_eval_mismatched_files_exit_one(tmp_path):
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    dets = tmp_path / "d.jsonl"
    run(simulate_args(s1, frames=3))
    run(simulate_args(s2, frames=4))
    run(detect_args(s1, dets))
    assert run(["eval", "--dets", str(dets), "--scenes", str(s2),
                "--report", str(tmp_path / "r.json")]) == 1


def test_eval_pairing_faults_name_both_files_and_the_frame(tmp_path, capsys):
    two, one, late = (tmp_path / f"{name}.jsonl" for name in ("two", "one", "late"))
    dets = tmp_path / "d.jsonl"
    run(simulate_args(two, frames=2))
    run(simulate_args(one, frames=1))
    run([*simulate_args(late, frames=2), "--interval", "0.7"])
    run(detect_args(two, dets))
    for scenes, fault in (
        (one, "frame count mismatch: 2 detection lines vs 1 scene frames; frame 1 has no pair"),
        (late, "frame 1: timestamp mismatch: detections at 0.5 vs scene at 0.7"),
    ):
        capsys.readouterr()
        assert run(["eval", "--dets", str(dets), "--scenes", str(scenes),
                    "--report", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {dets} vs {scenes}: {fault}\n"
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------- pipeline


def pipeline_args(out_dir, extra=()):
    return [
        "pipeline", "--seed", "11", "--frames", "4", "--objects", "2",
        "--points-per-object", "10", "--background-points", "15",
        "--bounds", "25", "--grid-nx", "4", "--grid-ny", "4",
        "--radius", "10", "--iters", "1", "--out-dir", str(out_dir), *extra,
    ]


def test_pipeline_reports_identically_across_directories(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(pipeline_args(d1)) == 0
    out1 = capsys.readouterr().out
    assert run(pipeline_args(d2)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "scenes.jsonl").read_bytes() == (d2 / "scenes.jsonl").read_bytes()
    assert (d1 / "detections.jsonl").read_bytes() == (d2 / "detections.jsonl").read_bytes()


def test_pipeline_echoes_run_config(tmp_path):
    d = tmp_path / "run"
    run(pipeline_args(d))
    data = json.loads((d / "report.json").read_text())
    cfg = data["config"]
    assert cfg["seed"] == 11
    assert cfg["frames"] == 4
    assert cfg["temporal"] is True
    assert "out_dir" not in cfg  # paths must not leak into the report


def test_pipeline_echoes_an_infinite_radius_as_a_string(tmp_path, capsys):
    # JSON has no infinity: the echo once wrote Infinity, a token strict
    # JSON readers refuse.
    d = tmp_path / "run"
    assert run(pipeline_args(d, extra=("--radius=inf", "--dedup-radius=inf"))) == 0

    def refuse(token):
        raise AssertionError(f"non-JSON token {token}")

    report = json.loads((d / "report.json").read_text(), parse_constant=refuse)
    assert report["config"]["detect"]["radius"] == "inf"
    for line in (d / "detections.jsonl").read_text().splitlines():
        params = json.loads(line, parse_constant=refuse)["params"]
        assert params["radius"] == params["dedup_radius"] == "inf"
    json.loads(capsys.readouterr().out, parse_constant=refuse)


def test_pipeline_no_temporal_flag(tmp_path):
    d = tmp_path / "run"
    run(pipeline_args(d, extra=("--no-temporal",)))
    data = json.loads((d / "report.json").read_text())
    assert data["config"]["temporal"] is False
    frames = read_detections(d / "detections.jsonl")
    assert not any(f.fused for f in frames)


@pytest.mark.parametrize("interval", ["nan", "inf", "0"])
def test_pipeline_bad_interval_writes_nothing(tmp_path, capsys, interval):
    d = tmp_path / "run"
    assert run(pipeline_args(d, extra=("--interval", interval))) == 1
    assert capsys.readouterr().err.startswith("error: frame interval must be positive")
    assert not d.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--tp-threshold", "nan", "tp_threshold must be positive and finite, got nan"),
    ("--tp-threshold", "0", "tp_threshold must be positive and finite, got 0.0"),
    ("--dedup-radius", "nan", "dedup radius must be non-negative"),
    ("--dedup-radius", "-1", "dedup radius must be non-negative"),
])
def test_pipeline_bad_threshold_or_radius_writes_nothing(tmp_path, capsys, flag, value, message):
    # Checked before the scene is simulated, so no output directory appears.
    d = tmp_path / "run"
    assert run(pipeline_args(d, extra=(flag, value))) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not d.exists()


def test_detect_bad_dedup_radius_fails_before_reading(tmp_path, capsys):
    # The scene file does not exist: a check made after reading would
    # report the missing file instead.
    out = tmp_path / "d.jsonl"
    assert run(detect_args(tmp_path / "missing.jsonl", out, extra=("--dedup-radius", "nan"))) == 1
    assert capsys.readouterr().err == "error: dedup radius must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-nx", "0", "grid dimensions must be at least 1"),
    ("--grid-ny", "0", "grid dimensions must be at least 1"),
])
def test_pipeline_bad_grid_writes_nothing(tmp_path, capsys, flag, value, message):
    # Checked before the scene is simulated, so no scenes.jsonl is left behind.
    d = tmp_path / "run"
    assert run(pipeline_args(d, extra=(flag, value))) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not d.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-nx", "0", "grid dimensions must be at least 1"),
    ("--bounds", "nan", "bounds must be positive and finite, got nan"),
])
def test_detect_bad_grid_or_bounds_fails_before_reading(tmp_path, capsys, flag, value, message):
    out = tmp_path / "d.jsonl"
    assert run(detect_args(tmp_path / "missing.jsonl", out, extra=(flag, value))) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_eval_bad_tp_threshold_fails_before_reading(tmp_path, capsys):
    # Both files are missing: a check made after reading would report them.
    report = tmp_path / "r.json"
    assert run(["eval", "--dets", str(tmp_path / "d.jsonl"),
                "--scenes", str(tmp_path / "s.jsonl"), "--report", str(report),
                "--tp-threshold", "nan"]) == 1
    assert capsys.readouterr().err == "error: tp_threshold must be positive and finite, got nan\n"
    assert not report.exists()


@pytest.mark.parametrize("argv, option, work", [
    (["simulate"], "--out", "qebev.cli.generate_sequence"),
    (["detect", "--scenes", "s.jsonl"], "--out", "qebev.cli.read_scenes"),
    (["eval", "--dets", "d.jsonl", "--scenes", "s.jsonl"], "--report",
     "qebev.cli.read_detections"),
    (["bench", "--n-min", "8", "--n-max", "16", "--repeats", "3"], "--out",
     "qebev.bench.run_scaling"),
])
def test_an_output_in_a_missing_directory_fails_before_any_work(
        tmp_path, capsys, monkeypatch, argv, option, work):
    # The command's first read or computation must not run: a detect-large
    # frame once ran in full before its output failed to open.
    calls = []
    monkeypatch.setattr(work, lambda *args, **kwargs: calls.append(args))
    missing = tmp_path / "no-dir"
    out = missing / "out"
    assert run([*argv, option, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {option} {out}: directory {missing} does not exist\n")
    assert calls == [] and not missing.exists()


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()


@pytest.mark.parametrize("flag, message", [
    ("--cases=0", "--cases must be at least 1"),
    ("--fit-steps=-1", "--fit-steps must be non-negative"),
])
def test_gradcheck_bad_count_fails_before_any_case(capsys, flag, message):
    # Nothing printed: no gradient case ran before the check.
    assert run(["gradcheck", flag]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ---------------------------------------------------------------- bench


def test_bench_tiny_sweep(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--n-min", "500", "--n-max", "2000",
                "--repeats", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,K,I,d,median_seconds,slope_running"
    assert len(lines) == 4  # 500, 1000, 2000


def test_bench_prints_no_slope_from_two_sizes(tmp_path, capsys):
    # Two sizes leave the slope's Student-t interval no degree of freedom.
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n-min", "1", "--n-max", "2", "--repeats", "3",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}; too few usable sizes for a slope\n"
    rows = out.read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    assert [row.split(",")[-1] for row in rows] == ["", ""]


def test_bench_accepts_fewer_clusters_than_attention_keeps(tmp_path):
    # Attention keeps 4 clusters, clamped to the clusters k-means returns.
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n-min", "200", "--n-max", "400", "--repeats", "3",
                "--k", "2", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["200", "2"], ["400", "2"]]


@pytest.mark.parametrize("n_min, n_max, factor", [(5, 5, 2), (5, 10, 4)])
def test_bench_sweep_of_one_size_names_its_flags(tmp_path, capsys, n_min, n_max, factor):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n-min", str(n_min), "--n-max", str(n_max),
                "--factor", str(factor), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --n-min {n_min}, --n-max {n_max} and --factor {factor} give one size; "
        "the sweep needs at least two\n")
    assert not out.exists()


# ---------------------------------------------------------------- config file


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nframes = 2\nobjects = 3\n")
    out = tmp_path / "s.jsonl"
    assert run(["simulate", "--config", str(cfg), "--seed", "5",
                "--out", str(out)]) == 0
    frames = read_scenes(out)
    assert len(frames) == 2
    assert len(frames[0].boxes) == 3


def test_config_file_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames = 2\n")
    out = tmp_path / "s.jsonl"
    assert run(["simulate", "--config", str(cfg), "--seed", "5",
                "--frames", "4", "--out", str(out)]) == 0
    assert len(read_scenes(out)) == 4


def test_config_file_values_satisfy_required_options(tmp_path):
    # simulate once exited 1 with "the following arguments are required:
    # --out" although its config file set out.
    scenes, dets, report = tmp_path / "s.jsonl", tmp_path / "d.jsonl", tmp_path / "r.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {scenes}\nframes = 2\npoints_per_object = 5\n")
    assert run(["simulate", "--config", str(cfg)]) == 0
    assert len(read_scenes(scenes)) == 2
    cfg.write_text(f"scenes = {scenes}\nout = {dets}\ngrid_nx = 2\ngrid_ny = 2\n")
    assert run(["detect", "--config", str(cfg)]) == 0
    cfg.write_text(f"dets = {dets}\nscenes = {scenes}\nreport = {report}\n")
    assert run(["eval", "--config", str(cfg)]) == 0
    assert report.exists()
    # A flag still wins over the file.
    other = tmp_path / "other.json"
    assert run(["eval", "--config", str(cfg), "--report", str(other)]) == 0
    assert other.read_bytes() == report.read_bytes()


def test_config_file_cannot_name_another(tmp_path, capsys):
    # A config key was once accepted and ignored: simulate wrote 8 frames
    # although the file it named set frames = 2.
    other, cfg = tmp_path / "other.cfg", tmp_path / "run.cfg"
    other.write_text("frames = 2\n")
    cfg.write_text(f"config = {other}\n")
    out = tmp_path / "s.jsonl"
    capsys.readouterr()
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: config\n"
    assert not out.exists()


def test_cli_defaults_are_the_dataclass_defaults():
    # Each default a dataclass owns is read from its field, type included,
    # since the run echoes it.  --speed-max is the one exception: the CLI
    # simulates moving objects, while SceneConfig()'s static scenes feed
    # acceptance criteria 5 and 7.
    _, commands = build_parser()

    def default(command, option):
        [value] = [a.default for a in commands[command]._actions if option in a.option_strings]
        return type(value), value

    def owned(obj, field):
        value = getattr(obj, field)
        return type(value), value

    scene, dqem, temporal, bench = SceneConfig(), DqemParams(), TemporalParams(), BenchConfig()
    for command in ("simulate", "pipeline"):
        for option, field in (("--bounds", "bounds"), ("--objects", "n_objects"),
                              ("--points-per-object", "points_per_object"),
                              ("--background-points", "background_points"),
                              ("--noise-sigma", "noise_sigma"), ("--d", "d"),
                              ("--speed-min", "speed_min")):
            assert default(command, option) == owned(scene, field), (command, option)
        assert default(command, "--speed-max") == (float, 3.0) != owned(scene, "speed_max")
    assert default("detect", "--bounds") == owned(scene, "bounds")
    for command in ("detect", "pipeline"):
        for option, obj, field in (("--k", dqem, "k"), ("--topk", dqem, "top_k"),
                                   ("--beta", dqem, "beta"), ("--radius", dqem, "radius"),
                                   ("--iters", dqem, "iterations"),
                                   ("--kmeans-iters", dqem, "kmeans_iters"),
                                   ("--tau-bg", dqem, "tau_bg"),
                                   ("--alpha", temporal, "alpha"),
                                   ("--stride", temporal, "stride")):
            assert default(command, option) == owned(obj, field), (command, option)
    for option, field in (("--k", "k"), ("--kmeans-iters", "kmeans_iters"), ("--d", "d"),
                          ("--repeats", "repeats")):
        assert default("bench", option) == owned(bench, field), option
    assert default("bench", "--n-min") == (int, bench.n_sweep[0])
    assert default("bench", "--n-max") == (int, bench.n_sweep[-1])


def test_config_file_unknown_key_exits_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_option = 1\n")
    assert run(["simulate", "--config", str(cfg), "--seed", "5",
                "--out", str(tmp_path / "s.jsonl")]) == 1


def test_config_file_malformed_line_exits_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames 2\n")
    assert run(["simulate", "--config", str(cfg), "--seed", "5",
                "--out", str(tmp_path / "s.jsonl")]) == 1


def test_config_file_line_with_no_key_exits_one_with_its_line(tmp_path, capsys):
    # This once failed as "unknown config keys: ", naming nothing.
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("frames = 2\n= 5\n")
    out = tmp_path / "s.jsonl"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got '= 5'\n"
    assert not out.exists()


def test_config_file_byte_that_is_not_utf8_exits_one_with_its_line(tmp_path, capsys):
    # The whole file was once decoded as strict UTF-8: "'utf-8' codec can't
    # decode byte 0xff in position 19", naming neither the file nor the line.
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"frames = 2\n# \xc3\xa9 \xff\n")
    out = tmp_path / "s.jsonl"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: byte 0xff at character 5 is not UTF-8\n"
    assert not out.exists()


# ---------------------------------------------------------------- exit codes


def test_unknown_flag_exits_one(tmp_path):
    assert run(["simulate", "--definitely-not-a-flag", "1",
                "--out", str(tmp_path / "s.jsonl")]) == 1


def test_unknown_subcommand_exits_one():
    assert run(["frobnicate"]) == 1


def test_missing_required_argument_exits_one():
    assert run(["simulate", "--seed", "5"]) == 1


def test_missing_input_file_exits_one(tmp_path):
    assert run(["detect", "--scenes", str(tmp_path / "absent.jsonl"),
                "--out", str(tmp_path / "d.jsonl")]) == 1


def _corrupt_second_frame(src, dst, edit):
    lines = src.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    dst.write_text("\n".join(lines) + "\n")


def test_detect_nan_feature_exits_one_with_location(tmp_path, capsys):
    scenes, bad = tmp_path / "s.jsonl", tmp_path / "bad.jsonl"
    run(simulate_args(scenes))
    _corrupt_second_frame(scenes, bad, set_value("feat", (3, 2), float("nan")))
    capsys.readouterr()
    assert run(detect_args(bad, tmp_path / "d.jsonl")) == 1
    assert f"{bad}:2: point 3: feature is not finite" in capsys.readouterr().err


def test_detect_narrow_features_exit_one_with_location(tmp_path, capsys):
    # A d below 9 once ran every gather and k-means of the file, then
    # failed naming no file or line.
    scenes, bad, out = tmp_path / "s.jsonl", tmp_path / "bad.jsonl", tmp_path / "d.jsonl"
    run(simulate_args(scenes, frames=2))
    recs = [json.loads(line) for line in scenes.read_text().splitlines()]
    for rec in recs:
        xy, feat = points(rec)
        set_points(rec, xy, feat[:, :4])
        rec["d"] = 4
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    capsys.readouterr()
    assert run(detect_args(bad, out)) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: malformed frame record (d must be at least 9, got 4)\n"
    )
    assert not out.exists()


def test_detect_and_eval_reject_mixed_feature_widths_with_location(tmp_path, capsys):
    # detect once refused them only after reading the whole file, naming no
    # line, and eval scored them.
    scenes, bad, dets = tmp_path / "s.jsonl", tmp_path / "bad.jsonl", tmp_path / "d.jsonl"
    run(simulate_args(scenes))
    assert run(detect_args(scenes, dets)) == 0

    def wider_features(rec):
        xy, feat = points(rec)
        set_points(rec, xy, np.hstack([feat, np.zeros((len(feat), 1))]))
        rec["d"] = 17

    _corrupt_second_frame(scenes, bad, wider_features)
    capsys.readouterr()
    message = f"error: {bad}:2: malformed frame record (d must be the first frame's 16, got 17)\n"
    assert run(detect_args(bad, tmp_path / "out.jsonl")) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out.jsonl").exists()
    assert run(["eval", "--dets", str(dets), "--scenes", str(bad),
                "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == message


def test_eval_infinite_point_exits_one(tmp_path, capsys):
    scenes, bad, dets = tmp_path / "s.jsonl", tmp_path / "bad.jsonl", tmp_path / "d.jsonl"
    run(simulate_args(scenes))
    assert run(detect_args(scenes, dets)) == 0
    _corrupt_second_frame(scenes, bad, set_value("xy", (0, 0), float("inf")))
    capsys.readouterr()
    assert run(["eval", "--dets", str(dets), "--scenes", str(bad),
                "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: point 0: xy is not finite\n"


@pytest.mark.filterwarnings("error")
def test_detect_overflowing_features_exits_one(tmp_path, capsys):
    # Finite features scaled up, refused without a numpy warning, with
    # fusion off and on, naming the scene file and the frame.  At 1e200 the
    # neighborhood mean overflows its norm before any decode.  At 1e3 a
    # decoded log-size channel overflows exp(), and at 1e4 another also
    # underflows it to 0.  Unscaled features blended with --beta 1e200
    # overflow the blend norm.
    scenes, bad = tmp_path / "s.jsonl", tmp_path / "bad.jsonl"
    run(simulate_args(scenes))
    for extra in (("--beta", "1e200"), ("--beta", "1e200", "--temporal", "--stride", "1")):
        capsys.readouterr()
        assert run(detect_args(scenes, tmp_path / "d.jsonl", extra)) == 1
        assert capsys.readouterr().err == (
            f"error: {scenes}: frame 0 (timestamp 0.0): "
            "blend norm is not finite (overflowing features or beta)\n")
    for factor, message in (
        (1e200, "neighborhood mean is not finite (non-finite or overflowing features)"),
        (1e3, "decoded box size over- or underflows (overflowing features)"),
        (1e4, "decoded box size over- or underflows (overflowing features)"),
    ):

        def scale(rec):
            xy, feat = points(rec)
            set_points(rec, xy, feat * factor)

        _corrupt_second_frame(scenes, bad, scale)
        for extra in ((), ("--temporal", "--stride", "1")):
            capsys.readouterr()
            assert run(detect_args(bad, tmp_path / "d.jsonl", extra)) == 1
            assert capsys.readouterr().err == f"error: {bad}: frame 1 (timestamp 0.5): {message}\n"


def test_eval_non_finite_score_exits_one_with_location(tmp_path, capsys):
    scenes, dets, bad = tmp_path / "s.jsonl", tmp_path / "d.jsonl", tmp_path / "bad.jsonl"
    run(simulate_args(scenes))
    assert run(detect_args(scenes, dets)) == 0
    lines = dets.read_text().splitlines()
    rec = json.loads(lines[1])
    assert rec["detections"], "the second frame needs a detection to corrupt"
    rec["detections"][0]["score"] = float("nan")
    lines[1] = json.dumps(rec)
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["eval", "--dets", str(bad), "--scenes", str(scenes),
                "--report", str(tmp_path / "r.json")]) == 1
    assert f"{bad}:2: detection 0: score is not finite" in capsys.readouterr().err


def test_eval_non_positive_box_size_exits_one_with_location(tmp_path, capsys):
    # Negated widths once scored as a mean scale error near 2 with exit 0.
    scenes, dets, bad = tmp_path / "s.jsonl", tmp_path / "d.jsonl", tmp_path / "bad.jsonl"
    run(simulate_args(scenes))
    assert run(detect_args(scenes, dets)) == 0
    lines = dets.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    assert recs[1]["detections"], "the second frame needs a detection to corrupt"
    for rec in recs:
        for det in rec["detections"]:
            det["box"][3] = -det["box"][3]
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    capsys.readouterr()
    assert run(["eval", "--dets", str(bad), "--scenes", str(scenes),
                "--report", str(tmp_path / "r.json")]) == 1
    first = next(i for i, rec in enumerate(recs, start=1) if rec["detections"])
    assert capsys.readouterr().err == (
        f"error: {bad}:{first}: detection 0: box size must be positive\n"
    )


def test_detect_and_eval_reject_a_timestamp_going_back(tmp_path, capsys):
    scenes, dets, bad = tmp_path / "s.jsonl", tmp_path / "d.jsonl", tmp_path / "bad.jsonl"
    run(simulate_args(scenes))
    assert run(detect_args(scenes, dets)) == 0
    lines = scenes.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["timestamp"] = 0.1  # frame 3 of 0.0, 0.5, 1.0
    lines[2] = json.dumps(rec)
    bad.write_text("\n".join(lines) + "\n")
    message = f"error: {bad}:3: timestamp 0.1 is not later than the previous frame's 0.5\n"
    capsys.readouterr()
    assert run(detect_args(bad, tmp_path / "d2.jsonl")) == 1
    assert capsys.readouterr().err == message
    assert run(["eval", "--dets", str(dets), "--scenes", str(bad),
                "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("file, key, value, message", [
    ("scenes", "xy", None, "malformed frame record (xy must be a base64 string, got None)"),
    ("scenes", "feat", 0, "malformed frame record (feat must be a base64 string, got 0)"),
    ("scenes", "gt", {}, "malformed frame record (gt must be an array, got {})"),
    ("dets", "detections", {}, "malformed detection record (detections must be an array, got {})"),
    ("dets", "timestamp", float("nan"), "timestamp nan is not finite"),
    ("scenes", "gt", [{"box": [1.0] * 9, "track_id": "x"}],
     "gt 0: track_id must be an integer, got 'x'"),
    ("scenes", "gt", [{"box": [1.0] * 9}], "gt 0: missing 'track_id'"),
    ("scenes", "gt", [{"track_id": 7}], "gt 0: missing 'box'"),
    ("scenes", "gt", [[1.0] * 9], f"gt 0: must be an object, got {[1.0] * 9}"),
    ("dets", "detections", [{"box": [1.0] * 9, "query_id": 0}], "detection 0: missing 'score'"),
    ("dets", "detections", [0.5], "detection 0: must be an object, got 0.5"),
])
def test_a_list_that_is_no_array_or_a_nan_timestamp_exits_one(tmp_path, capsys, file, key,
                                                               value, message):
    # Each of the first five was once read as an empty list or scored, with
    # exit 0 (the first two as a null or 0 "points", which two base64
    # strings have replaced).  A gt or detection entry with a missing key, a bad track_id or
    # no object was once reported as a malformed record naming no entry.
    _second_record_exits_one(tmp_path, capsys, file, lambda rec: {**rec, key: value}, message)


def _second_record_exits_one(tmp_path, capsys, file, replace, message):
    """Replace the second record of a scene file or its detections with
    ``replace(record)``: detect (scenes only) and eval exit 1 with
    ``path:2: message``."""
    paths = {"scenes": tmp_path / "s.jsonl", "dets": tmp_path / "d.jsonl"}
    run(simulate_args(paths["scenes"]))
    assert run(detect_args(paths["scenes"], paths["dets"])) == 0
    bad = tmp_path / "bad.jsonl"
    lines = paths[file].read_text().splitlines()
    lines[1] = json.dumps(replace(json.loads(lines[1])))
    bad.write_text("\n".join(lines) + "\n")
    paths[file] = bad
    capsys.readouterr()
    if file == "scenes":
        assert run(detect_args(bad, tmp_path / "out.jsonl")) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"
    assert run(["eval", "--dets", str(paths["dets"]), "--scenes", str(paths["scenes"]),
                "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"


# The second simulated line holds 35 points of d 16: 560 bytes of xy and
# 4,480 of feat.
@pytest.mark.parametrize("replace, message", [
    (old_format, 'old per-point scene format ("points"); simulate the scene again'),
    (lambda rec: {**rec, "feat": []}, "malformed frame record (feat must be a base64 string, got [])"),
    (lambda rec: {**rec, "xy": rec["xy"][:-1]},
     "malformed frame record (xy is not base64 (Incorrect padding))"),
    (lambda rec: {**rec, "xy": encode(points(rec)[0].ravel()[:-1])},
     "malformed frame record (xy holds 552 bytes, not 16 (two float64) per point)"),
    (lambda rec: {**rec, "feat": encode(points(rec)[1][:, :15])},
     "malformed frame record (feat holds 4200 bytes, not 4480 (n 35 points * d 16 * 8))"),
    (set_value("feat", (7, 0), -np.inf), "point 7: feature is not finite"),
])
def test_each_fault_of_the_point_fields_exits_one_with_its_line(tmp_path, capsys, replace,
                                                                message):
    _second_record_exits_one(tmp_path, capsys, "scenes", replace, message)


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


@pytest.mark.parametrize("file, replace, message", [
    ("scenes", lambda rec: [1, 2], "record must be a JSON object, got list"),
    ("scenes", lambda rec: "frame", "record must be a JSON object, got str"),
    ("dets", lambda rec: 3, "record must be a JSON object, got int"),
    ("dets", lambda rec: None, "record must be a JSON object, got NoneType"),
    ("scenes", _without("d"), "missing 'd'"),
    ("scenes", _without("timestamp"), "missing 'timestamp'"),
    ("dets", _without("timestamp"), "missing 'timestamp'"),
    ("dets", _without("detections"), "missing 'detections'"),
])
def test_a_line_that_is_no_object_or_lacks_a_key_exits_one(tmp_path, capsys, file, replace,
                                                           message):
    # Both were once reported with a Python internal as the reason, such as
    # "malformed frame record (list indices must be integers or slices, not
    # str)" or "malformed frame record ('d')".
    _second_record_exits_one(tmp_path, capsys, file, replace, message)


@pytest.mark.parametrize("file", ["scenes", "dets"])
def test_a_byte_that_is_not_utf8_exits_one_with_its_line(tmp_path, capsys, file):
    # The decoder once raised from the line iterator, outside the record
    # loop: "'utf-8' codec can't decode byte 0xff in position 1252", naming
    # no file or line.  The e-acute before it is valid UTF-8.
    paths = {"scenes": tmp_path / "s.jsonl", "dets": tmp_path / "d.jsonl"}
    run(simulate_args(paths["scenes"]))
    assert run(detect_args(paths["scenes"], paths["dets"])) == 0
    bad = tmp_path / "bad.jsonl"
    lines = paths[file].read_bytes().split(b"\n")
    lines[1] = b'{"note": "\xc3\xa9\xff", ' + lines[1][1:]
    bad.write_bytes(b"\n".join(lines))
    paths[file] = bad
    message = f"error: {bad}:2: byte 0xff at character 12 is not UTF-8\n"
    capsys.readouterr()
    if file == "scenes":
        assert run(detect_args(bad, tmp_path / "out.jsonl")) == 1
        assert capsys.readouterr().err == message
    assert run(["eval", "--dets", str(paths["dets"]), "--scenes", str(paths["scenes"]),
                "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == message


# ---------------------------------------------------------------- import weight


def test_import_simulate_and_detect_load_no_scipy(tmp_path):
    # The package runs on numpy alone: import, simulate, detect, eval,
    # pipeline and bench never load scipy, which would dominate start-up.
    # Nor do they load numpy.ma, which np.unique imports on first use.
    scenes, dets = tmp_path / "s.jsonl", tmp_path / "d.jsonl"
    eval_args = ["eval", "--dets", str(dets), "--scenes", str(scenes),
                 "--report", str(tmp_path / "r.json")]
    bench_args = ["bench", "--n-min", "200", "--n-max", "400", "--repeats", "3",
                  "--out", str(tmp_path / "b.csv")]
    loaded_now = (
        "loaded.append(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    code = (
        "import sys, qebev.cli\n"
        "loaded = []\n"
        + loaded_now
        + "".join(
            f"assert qebev.cli.main({argv!r}) == 0\n" + loaded_now
            for argv in (simulate_args(scenes), detect_args(scenes, dets), eval_args,
                         pipeline_args(tmp_path / "p"), bench_args)
        )
        + "print(loaded)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qebev.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[[], [], [], [], [], []]"


def _fresh_import_qebev(openblas_num_threads):
    """(OS threads, OPENBLAS_NUM_THREADS) right after ``import qebev`` in a
    fresh interpreter started with that variable set, or unset for None."""
    code = (
        "import os, qebev\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qebev.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if openblas_num_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_num_threads
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    threads, value = out.stdout.split()
    return int(threads), value


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_worker_and_leaves_the_environment_as_found():
    # OpenBLAS would start a worker per core for products of a few rows by
    # 16 columns; qebev loads it single-threaded unless the caller chose.
    assert _fresh_import_qebev(None) == (1, "None")
    assert _fresh_import_qebev("2")[1] == "2"


# ---------------------------------------------------------------- NaN knobs


@pytest.mark.parametrize("flag, message", [
    ("--radius", "radius must be positive"),
    ("--dedup-radius", "dedup radius must be non-negative"),
    ("--tau-bg", "tau_bg must be non-negative"),
    ("--beta", "beta must be non-negative"),
])
def test_detect_nan_hyperparameter_exits_one(tmp_path, capsys, flag, message):
    scenes = tmp_path / "scenes.jsonl"
    run(simulate_args(scenes))
    capsys.readouterr()
    assert run(detect_args(scenes, tmp_path / "d.jsonl", extra=(flag, "nan"))) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------- every float flag


def float_options():
    _, registry = build_parser()
    return [
        (command, action.option_strings[-1])
        for command, sub in registry.items()
        for action in sub._actions
        if action.type is float
    ]


@pytest.fixture(scope="module")
def scenes_and_dets(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    scenes, dets = d / "scenes.jsonl", d / "dets.jsonl"
    assert run(simulate_args(scenes)) == 0
    assert run(detect_args(scenes, dets)) == 0
    return scenes, dets


def command_args(command, tmp_path, scenes_and_dets):
    # Minimal valid inputs per subcommand; a subcommand that gains a float
    # flag and has no entry here fails with a KeyError.
    scenes, dets = scenes_and_dets
    return {
        "simulate": lambda: simulate_args(tmp_path / "s.jsonl"),
        "detect": lambda: detect_args(scenes, tmp_path / "d.jsonl"),
        "eval": lambda: ["eval", "--dets", str(dets), "--scenes", str(scenes),
                         "--report", str(tmp_path / "r.json")],
        "pipeline": lambda: pipeline_args(tmp_path / "run"),
    }[command]()


@pytest.mark.parametrize("command, option", float_options())
def test_every_float_flag_rejects_nan(tmp_path, capsys, scenes_and_dets, command, option):
    argv = command_args(command, tmp_path, scenes_and_dets)
    capsys.readouterr()
    assert run([*argv, option, "nan"]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err


# The infinities that are valid settings, each with the reason.  Both
# options exist on detect and pipeline only.
INFINITY_ALLOWED = {
    ("--radius", "inf"): "the whole-frame neighbourhood, which the gather oracle "
                         "in tests/test_dqem_oracles.py covers",
    ("--dedup-radius", "inf"): "keeps one detection per frame",
}


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("command, option", float_options())
def test_every_float_flag_rejects_infinity(
    tmp_path, capsys, scenes_and_dets, command, option, value
):
    # "--flag=-inf", since argparse takes a lone "-inf" for an option.
    argv = [*command_args(command, tmp_path, scenes_and_dets), f"{option}={value}"]
    capsys.readouterr()
    if (option, value) in INFINITY_ALLOWED:
        assert run(argv) == 0
        return
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err


# ---------------------------------------------------------------- deleted flags


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for flag, value, commands in (
        ("--no-dscale", None, ("detect", "pipeline")),
        ("--softmax-domain", "full", ("detect", "pipeline")),
        ("--fixed-neighborhood", None, ("detect", "pipeline")),
        ("--matcher", "greedy", ("eval", "pipeline")),
        ("--proj", "w.json", ("detect", "pipeline")),
        ("--seed", "1", ("eval",)),
    )
    for command in commands
])
def test_deleted_flags_are_unknown(tmp_path, capsys, scenes_and_dets, command, flag, value):
    # Attention always scales its scores and normalizes over the selected
    # clusters with identity projections, every round re-gathers, and eval
    # matches optimally and draws nothing, so it takes no seed.
    argv = command_args(command, tmp_path, scenes_and_dets)
    capsys.readouterr()
    assert run([*argv, flag, *([value] if value else [])]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    key = flag[2:].replace("-", "_")
    cfg.write_text(f"{key} = {value or 'true'}\n")
    assert run([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: {key}\n"


# ---------------------------------------------------------------- exit codes

# Valid and invalid values for each option.  The valid ones are small
# enough that a run stays quick.  The options in ALWAYS set how much work a
# run does or where it writes, so every call gives them.
CLI_VALUES = {
    "seed": (["0", "-1", "18446744073709551616"], ["x"]),
    "frames": (["1", "2"], ["0", "x"]),
    "interval": (["0.5", "2"], ["0", "nan", "-inf"]),
    "bounds": (["20", "12"], ["5", "0", "inf"]),
    "objects": (["2", "0"], ["-1"]),
    "points_per_object": (["5", "0"], ["-1"]),
    "background_points": (["10", "0"], ["-1"]),
    "noise_sigma": (["0.05", "0"], ["nan"]),
    "d": (["9", "12"], ["8"]),
    "speed_min": (["0", "1"], ["-1", "4"]),
    "speed_max": (["3", "1"], ["inf"]),
    "k": (["4", "1"], ["0"]),
    "topk": (["1"], ["0", "5"]),
    "beta": (["0.6", "0"], ["-1"]),
    "radius": (["8", "inf"], ["0"]),
    "iters": (["1", "2", "0"], ["-1"]),
    "kmeans_iters": (["5", "1"], ["0"]),
    "tau_bg": (["0", "0.5"], ["nan"]),
    "grid_nx": (["3", "1"], ["0"]),
    "grid_ny": (["3", "1"], ["0"]),
    "dedup_radius": (["2", "0"], ["-1"]),
    "alpha": (["0.4", "1"], ["2"]),
    "stride": (["2", "1"], ["0"]),
    "tp_threshold": (["2"], ["0", "nan"]),
    "cases": (["1"], ["0"]),
    "fit_steps": (["0"], ["-1"]),
    "n_min": (["8", "1"], ["0"]),
    "n_max": (["64", "16"], ["0"]),
    "factor": (["2", "4"], ["1"]),
    "repeats": (["3"], ["1"]),
    "temporal": (["true", "false"], ["maybe"]),
}
# Extremes every float option also draws when it is broken.
EXTREME_FLOATS = ["1e308", "-1e308", "5e-324", "-0.0", "inf", "nan"]
ALWAYS = {"frames", "objects", "points_per_object", "background_points", "grid_nx", "grid_ny",
          "cases", "fit_steps", "n_min", "n_max", "repeats", "out", "report", "out_dir"}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("small")
    scenes, dets = d / "scenes.jsonl", d / "dets.jsonl"
    assert run([*simulate_args(scenes), "--frames", "2"]) == 0
    assert run([*detect_args(scenes, dets), "--grid-nx", "2", "--grid-ny", "2"]) == 0
    return scenes, dets


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_exits_zero_one_or_two(tmp_path, capsys, small_inputs, data):
    # Any argv and --config file: 0 on success, else an exit code with a
    # message, and never a runtime failure (the unexpected exit 2).
    scenes, dets = small_inputs
    outs = [tmp_path / "out"], [tmp_path / "no-dir" / "out", tmp_path]
    values = {**CLI_VALUES, "scenes": ([scenes], [dets, tmp_path / "missing"]),
              "dets": ([dets], [scenes, tmp_path]), "out": outs, "report": outs,
              "out_dir": ([tmp_path / "run"], [scenes])}
    _, registry = build_parser()
    command = data.draw(st.sampled_from([*registry, "nope"]))
    argv, config = [command], []
    actions = [a for a in registry[command]._actions if a.dest in values] \
        if command in registry else []
    # A call breaks at most two options, so that every command also runs.
    broken = data.draw(st.sets(st.sampled_from([a.dest for a in actions] or [""]), max_size=2))
    for action in actions:
        valid, invalid = values[action.dest]
        if action.type is float:
            invalid = [*invalid, *EXTREME_FLOATS]
        choices = valid + invalid if action.dest in broken else valid
        pick = st.sampled_from([str(v) for v in choices])
        where = data.draw(st.sampled_from(
            ["argv", "config", "both", *(() if action.dest in ALWAYS else ("none",))]))
        if where in ("config", "both"):
            config.append(f"{action.dest} = {data.draw(pick)}")
        if where in ("argv", "both"):
            if action.nargs == 0:  # --temporal, --no-temporal
                argv += [action.option_strings[0]] * data.draw(st.booleans())
            else:
                argv.append(f"{action.option_strings[-1]}={data.draw(pick)}")
    if data.draw(st.integers(0, 3)) == 0:
        argv.append(data.draw(st.sampled_from(["--nope", "stray", "--help", "--config"])))
    if config or data.draw(st.booleans()):
        if data.draw(st.integers(0, 3)) == 0:
            config.append(data.draw(st.sampled_from(["no equals", "unknown_key = 1", "# note"])))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(config) + "\n")
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert code == 0 or err, argv
    assert "runtime failure:" not in err, (argv, config, err)


def strict_json(text):
    """``json.loads`` that refuses the non-JSON tokens Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


# A frame interval of 1e-200 once made a fused velocity of about 1e200 m/s,
# whose error overflowed in evaluation; 1e154 and 1e-300 sit at the edges of
# squaring and of division, and at bounds 8e307 two object centers can lie
# further apart than the largest float.
DEEP_FLOATS = [*EXTREME_FLOATS, "1e-200", "1e154", "1e-300", "8e307"]


PIPELINE_FLOATS = [a.option_strings[-1] for a in build_parser()[1]["pipeline"]._actions
                   if a.type is float]


@pytest.mark.parametrize("option", PIPELINE_FLOATS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.sampled_from(DEEP_FLOATS), seed=st.integers(0, 3), frames=st.integers(2, 3))
@example(value="8e307", seed=2, frames=2)  # --bounds: the spacing test overflowed
@example(value="1e308", seed=0, frames=3)  # --interval: the last timestamp overflowed
def test_pipeline_with_one_extreme_float_exits_zero_or_one(tmp_path, capsys, option, value,
                                                          seed, frames):
    # A small valid fused run with one float option at an extreme either
    # refuses it (exit 1) or finishes with a strict-JSON report and
    # stdout line; the extreme never ends a run deep inside numpy, and a
    # check, not a writer, is the first to see a non-finite value.
    out_dir = tmp_path / "run"
    argv = ["pipeline", "--seed", str(seed), "--frames", str(frames), "--stride", "1",
            "--grid-nx", "3", "--grid-ny", "3", f"{option}={value}", "--out-dir", str(out_dir)]
    capsys.readouterr()
    code = run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, err)
    assert "runtime failure:" not in err, (argv, err)
    if code == 0:
        assert strict_json(out) == strict_json((out_dir / "report.json").read_text())
    else:
        assert "not JSON compliant" not in err, (argv, err)


@pytest.mark.parametrize("extra, code", [
    (["--seed", "2", "--frames", "2", "--stride", "1", "--grid-nx", "3", "--grid-ny", "3",
      "--bounds", "8e307"], 0),
    (["--seed", "0", "--frames", "3", "--interval", "1e308"], 1),
])
def test_pipeline_at_an_extreme_float_as_a_child_process(tmp_path, extra, code):
    """The two extremes the property above once failed on, run as
    ``python -W error -m qebev``: every warning is an error there, not only
    a RuntimeWarning, and the shipped start-up path runs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qebev.__file__)))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qebev", "pipeline", *extra,
         "--out-dir", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert out.returncode == code, out.stderr
    assert "runtime failure:" not in out.stderr


def test_an_overflowing_fused_velocity_reports_an_infinite_mave(tmp_path, capsys):
    # At a 1e-200 s frame interval a fused velocity is finite but its error
    # against the ground truth overflows: mAVE is infinite, echoed as "inf",
    # and NDS caps the term at 1.
    argv = ["pipeline", "--seed", "1", "--frames", "3", "--grid-nx", "3", "--grid-ny", "3",
            "--interval", "1e-200", "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    report = strict_json((tmp_path / "report.json").read_text())
    assert strict_json(out) == report
    assert report["mAVE"] == "inf"
    assert 0.0 < report["NDS"] < 1.0


def test_eval_scores_a_detection_whose_distance_overflows_as_far_away(tmp_path, capsys):
    # A detection moved to x = 1e200, where every center distance overflows,
    # scores as one moved to a finite x beyond every threshold: a false
    # positive at each, matched by no ground truth.
    scenes, dets = tmp_path / "scenes.jsonl", tmp_path / "dets.jsonl"
    assert run(simulate_args(scenes)) == 0
    assert run(detect_args(scenes, dets)) == 0
    lines = dets.read_text().splitlines()
    rec = json.loads(lines[0])
    gt = read_scenes(scenes)[0].boxes[0]
    rec["detections"][0]["box"][:2] = gt[:2].tolist()
    capsys.readouterr()
    reports = []
    for x in (None, 1e6, 1e200):
        if x is not None:
            rec["detections"][0]["box"][0] = x
        moved = tmp_path / f"dets-{x}.jsonl"
        moved.write_text("\n".join([json.dumps(rec), *lines[1:]]) + "\n")
        report = tmp_path / f"report-{x}.json"
        assert run(["eval", "--dets", str(moved), "--scenes", str(scenes),
                    "--report", str(report)]) == 0
        assert strict_json(capsys.readouterr().out)["mAP"] is not None
        rep = strict_json(report.read_text())
        reports.append({k: v for k, v in rep.items() if k != "config"})
    on_gt, far, overflow = reports
    assert overflow == far
    assert far["mAP"] < on_gt["mAP"]
