"""Behaviour pin: ``pipeline --seed 42`` with all defaults.

The hashes are those recorded in ROADMAP.md (numpy 2.4, Python 3.11).  A
change that alters them on purpose says so and records the new values; on
another numpy or BLAS build, take them again.  On the same build they also
follow the OpenBLAS kernel and numpy's SIMD level: they were taken on an
AVX-512 Xeon where OpenBLAS picks its SkylakeX kernel, and forcing
OPENBLAS_CORETYPE=Haswell there fails four of these tests (ROADMAP.md,
State).  The detection and report
hashes cover the echoed run parameters too, so they moved when the
attention, re-gather and matcher switches left the echo, while every
detection and score stayed bit-identical.  The two scene hashes moved when
scene points became base64 float64 arrays, while every detection and
report byte stayed the same.  A numpy warning on either run fails its
test.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter

import pytest

import qebev
import qebev.cli as cli
import qebev.ltfm

BASELINE_SHA256 = {
    "report.json": "57063317bbb8dfc75074329896ad0fd8f0472b1c53481162d502b5096c98c89c",
    "detections.jsonl": "5443ec9ab55c9f3001d61ae0100db063e2ada0e9fb2ebd5e7588e1dbcf00b46c",
    "scenes.jsonl": "c39a2e9cac98276537cbca6eef2b019b8e499ca5f2f6a19d54f74d01bc2e956c",
}


@pytest.mark.filterwarnings("error")
def test_pipeline_seed_42_matches_baseline(tmp_path, monkeypatch, capsys):
    # One outcome per query-frame, counted where the kernel returns it.
    outcomes = Counter()
    evolve_single = qebev.ltfm._evolve_single

    def counting_evolve_single(*args, **kwargs):
        result = evolve_single(*args, **kwargs)
        outcomes[result[0].flag or "healthy"] += 1
        return result

    monkeypatch.setattr(qebev.ltfm, "_evolve_single", counting_evolve_single)
    # The pipeline scores the detection frames it made: it never parses
    # detections.jsonl back, and it reads its scene file twice (detect, eval).
    scene_reads = []
    read_scenes = cli.read_scenes

    def counting_read_scenes(path):
        scene_reads.append(path)
        return read_scenes(path)

    def no_read_detections(path):
        raise AssertionError(f"pipeline read {path} back")

    monkeypatch.setattr(cli, "read_scenes", counting_read_scenes)
    monkeypatch.setattr(cli, "read_detections", no_read_detections)
    assert cli.main(["pipeline", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert scene_reads == [str(tmp_path / "scenes.jsonl")] * 2

    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BASELINE_SHA256
    }
    assert got == BASELINE_SHA256
    assert outcomes == {"healthy": 438, "empty": 228, "empty-regather": 134}


def test_pipeline_seed_42_as_a_child_process_matches_baseline(tmp_path):
    """The pins in this file run under whatever BLAS thread pool the test
    process loaded; only a fresh ``python -m qebev`` runs the shipped
    start-up path, which loads numpy's OpenBLAS single-threaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qebev.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qebev", "pipeline", "--seed", "42",
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BASELINE_SHA256
    }
    assert got == BASELINE_SHA256


LARGE_SCENE_SHA256 = "2a8b146e19b03758f76d76d5b4db77fda95c450f1d16401d497f4cc943a79e69"
LARGE_DETECTIONS_SHA256 = "dc8e350a53d525780d959bf040ded5e041153e2c7d817fe9e865ae125eb39102"


@pytest.mark.filterwarnings("error")
def test_detect_large_frame_matches_baseline(tmp_path, capsys):
    """One 6000-point frame under 20x20 pillars: large neighbourhoods, so
    the gather, k-means and dedup paths all carry weight."""
    scenes, dets = tmp_path / "scenes.jsonl", tmp_path / "detections.jsonl"
    assert cli.main([
        "simulate", "--seed", "42", "--frames", "1", "--objects", "40",
        "--points-per-object", "100", "--background-points", "2000", "--out", str(scenes),
    ]) == 0
    assert hashlib.sha256(scenes.read_bytes()).hexdigest() == LARGE_SCENE_SHA256
    assert cli.main([
        "detect", "--seed", "42", "--grid-nx", "20", "--grid-ny", "20",
        "--scenes", str(scenes), "--out", str(dets),
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dets.read_bytes()).hexdigest() == LARGE_DETECTIONS_SHA256


TEMPORAL_NO_ROUNDS_SHA256 = "f55915c0e9b0ad7ab0c6c12dae4042c2bf8d92e6998b6e6a48fd8bc890f72104"


@pytest.mark.filterwarnings("error")
def test_temporal_detect_without_rounds_matches_baseline(tmp_path, capsys):
    """``detect --temporal --iters 0`` on the ``pipeline --seed 42`` scenes:
    every fused frame blends in previous queries that never clustered, so
    each carry holds a direction and no cluster set."""
    scenes, dets = tmp_path / "scenes.jsonl", tmp_path / "detections.jsonl"
    assert cli.main(["simulate", "--seed", "42", "--out", str(scenes)]) == 0
    assert hashlib.sha256(scenes.read_bytes()).hexdigest() == BASELINE_SHA256["scenes.jsonl"]
    assert cli.main([
        "detect", "--seed", "3", "--temporal", "--iters", "0",
        "--scenes", str(scenes), "--out", str(dets),
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dets.read_bytes()).hexdigest() == TEMPORAL_NO_ROUNDS_SHA256
