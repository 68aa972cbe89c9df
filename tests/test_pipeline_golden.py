"""Behaviour pin: ``pipeline --seed 42`` with all defaults.

The hashes are those recorded in ROADMAP.md (numpy 2.4, Python 3.11).  A
change that alters them on purpose says so and records the new values; on
another numpy or BLAS build, take them again.  The detection and report
hashes cover the echoed run parameters too, so they moved when the
attention, re-gather and matcher switches left the echo, while every
detection and score stayed bit-identical.  A numpy warning on either run
fails its test.
"""

import hashlib
from collections import Counter

import pytest

import qebev.cli as cli
import qebev.ltfm

BASELINE_SHA256 = {
    "report.json": "57063317bbb8dfc75074329896ad0fd8f0472b1c53481162d502b5096c98c89c",
    "detections.jsonl": "5443ec9ab55c9f3001d61ae0100db063e2ada0e9fb2ebd5e7588e1dbcf00b46c",
    "scenes.jsonl": "27572412d555dcdde3a61e3745689792729e4a8dfe1a76d4b8be7084d59bab32",
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
    assert cli.main(["pipeline", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BASELINE_SHA256
    }
    assert got == BASELINE_SHA256
    assert outcomes == {"healthy": 438, "empty": 228, "empty-regather": 134}


LARGE_SCENE_SHA256 = "e5ece011cb7493207554a4b677a1417d7aa972aa34fa7f0e2aeb22edde0e255d"
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
