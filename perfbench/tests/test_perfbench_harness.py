import json
import os
import shutil
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import qebev.dqem  # noqa: E402
import qebev.ltfm  # noqa: E402
from qebev import cli  # noqa: E402

from perfbench import calibrate, layers  # noqa: E402
from perfbench.harness import Child, Harness, Invocation  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.stats import failure_counts  # noqa: E402
from perfbench.workloads import SETUP_INPUTS, WORKLOADS, Workload  # noqa: E402

SMALL = Workload(
    "small", "pipeline",
    ("--frames", "2", "--bounds", "12", "--objects", "2", "--points-per-object", "10",
     "--background-points", "5"),
    ("--grid-nx", "2", "--grid-ny", "2"),
    2,
)


def _pipeline(out_dir, seed=3):
    assert cli.main(SMALL.timed_argv(seed, 0, "", str(out_dir))) == 0


def _child(rc=0):
    return Child(argv=[], spawned=0.0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, rc=rc, log="",
                 calibration_s=0.02)


def _rewrite_jsonl(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in edit(lines)))


def test_checks_count_one_failure_per_failed_invocation(tmp_path, capsys):
    harness = Harness(str(tmp_path), SMALL, 3, 1.0, str(tmp_path / "bench"))
    good = tmp_path / "good"
    _pipeline(good)
    for name in ("same", "drift", "short", "nan"):
        shutil.copytree(good, tmp_path / name)

    def bump_score(lines):
        rec = json.loads(lines[0])
        rec["detections"][0]["score"] += 0.5
        return [json.dumps(rec, sort_keys=True)] + lines[1:]

    _rewrite_jsonl(tmp_path / "drift" / "detections.jsonl", bump_score)
    _rewrite_jsonl(tmp_path / "short" / "detections.jsonl", lambda lines: lines[:1])
    report = json.loads((tmp_path / "nan" / "report.json").read_text())
    report["NDS"] = None
    (tmp_path / "nan" / "report.json").write_text(json.dumps(report))

    invs = [
        Invocation(0, 0, str(good), _child()),
        Invocation(1, 0, str(tmp_path / "same"), _child()),
        Invocation(2, 0, str(tmp_path / "drift"), _child()),   # same input, other bytes
        Invocation(3, 1, str(tmp_path / "short"), _child()),   # a frame missing
        Invocation(4, 2, str(tmp_path / "nan"), _child()),     # quality not finite
        Invocation(5, 3, str(good), _child(rc=1)),             # the CLI failed
    ]
    firsts = harness.check_all(invs)
    assert [bool(inv.problems) for inv in invs] == [False, False, True, True, True, True]
    assert "differ" in invs[2].problems[0]
    assert "frame counts" in invs[3].problems[0]
    assert "not finite" in invs[4].problems[0]
    assert failure_counts([inv.problems for inv in invs]) == (6, 4)
    assert firsts[0] is invs[0] and invs[0].nds == pytest.approx(report_nds(good))


def test_child_times_scale_to_the_reference_speed():
    child = _child()
    child.calibration_s = 2 * calibrate.REFERENCE_S  # a machine at half speed
    assert child.wall_s * child.speed == 0.5


def report_nds(out_dir):
    return json.loads((out_dir / "report.json").read_text())["NDS"]


def test_schedule_visits_the_setup_inputs_then_repeats_the_first():
    pipeline, detect = WORKLOADS["pipeline-default"], WORKLOADS["detect-large"]
    assert [pipeline.input_for(i) for i in range(7)] == [0, 1, 2, 0, 3, 4, 5]
    assert [detect.input_for(i) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]
    assert SETUP_INPUTS == 3
    assert pipeline.timed_argv(42, 0, "in", "out")[:3] == ["pipeline", "--seed", "42"]


@pytest.mark.parametrize("n, label", [(0, "0"), (1, "1"), (2, "2-3"), (3, "2-3"),
                                      (4, "4-7"), (140, "128-255")])
def test_size_bins_are_powers_of_two(n, label):
    assert layers.size_bin(n) == label


def test_install_traces_every_lookup_without_changing_outputs(tmp_path, capsys):
    originals = (qebev.dqem.kmeans, qebev.ltfm.kmeans, qebev.dqem.pairwise_sq_dist)
    _pipeline(tmp_path / "plain")
    tracer, peaks = Tracer("t"), {}
    undo = layers.install(tracer, peaks)
    try:
        assert qebev.ltfm.kmeans is qebev.dqem.kmeans is not originals[0]
        _pipeline(tmp_path / "traced")
    finally:
        undo()
    assert (qebev.dqem.kmeans, qebev.ltfm.kmeans, qebev.dqem.pairwise_sq_dist) == originals
    for name in ("scenes.jsonl", "detections.jsonl", "report.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()

    m = layers.metrics(tracer, peaks)
    counts = tracer.counts
    assert m["ltfm.query_frames"] == 2 * 4
    assert m["dqem.kmeans_calls"] == m["dqem.attention_calls"] == m["dqem.blend_calls"] > 0
    assert sum(v for k, v in counts.items() if k.startswith("dqem.outcome.")) == 8
    assert sum(v for k, v in counts.items() if k.startswith("dqem.gather_size_hist.")) \
        == m["dqem.gather_calls"]
    assert sum(v for k, v in counts.items() if k.startswith("dqem.k_eff_hist.")) \
        == m["dqem.kmeans_calls"]
    assert m["bevscene.read_scenes_calls"] == 2
    assert m["bevscene.scene_bytes"] == os.path.getsize(tmp_path / "traced" / "scenes.jsonl")
    assert m["ltfm.run_sequence_s"] >= m["ltfm.run_sequence_self_s"] > 0
    assert m["ltfm.run_sequence_peak_mb"] > 0 and m["bevscene.read_scenes_peak_mb"] > 0
