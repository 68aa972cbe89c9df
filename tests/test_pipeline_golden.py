"""Behaviour pin: ``pipeline --seed 42`` with all defaults.

The hashes are those recorded in ROADMAP.md (numpy 2.4, Python 3.11).  A
change that alters them on purpose says so and records the new values; on
another numpy or BLAS build, take them again.
"""

import hashlib
from collections import Counter

import qebev.cli as cli

BASELINE_SHA256 = {
    "report.json": "c4b8211d605d3fb5b6ac63b14d1e83f7f6cd1f91bb943e3953393d603f501dde",
    "detections.jsonl": "1097382475fbdc3ac02539d236e06cb45f9aec89bb9074516c0ef88c8c6e522e",
    "scenes.jsonl": "27572412d555dcdde3a61e3745689792729e4a8dfe1a76d4b8be7084d59bab32",
}


def test_pipeline_seed_42_matches_baseline(tmp_path, monkeypatch, capsys):
    results = []
    run_sequence = cli.run_sequence

    def recording_run_sequence(*args, **kwargs):
        results.append(run_sequence(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_sequence", recording_run_sequence)
    assert cli.main(["pipeline", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BASELINE_SHA256
    }
    assert got == BASELINE_SHA256

    (result,) = results
    outcomes = Counter(p.flag or "healthy" for fr in result.frames for p in fr.queries.pillars)
    assert outcomes == {"healthy": 438, "empty": 228, "empty-regather": 134}
