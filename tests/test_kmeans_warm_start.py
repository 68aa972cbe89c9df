"""``dqem.kmeans`` started from given centers, and where the kernel does so.

A run started (``init=``) from the centers of a run on the same rows that
stopped before its cap must return that run's clustering bit for bit,
after one Lloyd update and without drawing from its generator.
``ltfm._evolve_single`` relies on it when a round regathers the points of the
round before; a run that hit the cap is seeded again instead.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qebev.cli as cli
import qebev.ltfm
from qebev.bevscene import Frame
from qebev.dqem import DqemParams, kmeans
from qebev.ltfm import _evolve_single
from qebev.numerics import derive_seed, make_rng


def assert_restart_reproduces(cs, x, k, iters, restart_seed):
    rng = make_rng(restart_seed)
    state = rng.bit_generator.state
    warm = kmeans(x, k, iters, rng, init=cs.centers)
    assert warm.assignments.dtype == cs.assignments.dtype
    assert warm.assignments.tobytes() == cs.assignments.tobytes()
    assert warm.centers.shape == cs.centers.shape
    assert warm.centers.tobytes() == cs.centers.tobytes()
    assert warm.sizes.dtype == cs.sizes.dtype
    assert warm.sizes.tobytes() == cs.sizes.tobytes()
    assert warm.inertia_trace == cs.inertia_trace[-1:]
    assert rng.bit_generator.state == state


@st.composite
def neighbourhoods(draw):
    """Rows like a gathered neighbourhood's: a few modes plus noise, the
    same rows repeated, or rows whose entries differ only in signed zeros."""
    kind = draw(st.sampled_from(["modes", "repeats", "signed-zeros"]))
    if kind == "signed-zeros":
        return draw(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                           elements=st.sampled_from([0.0, -0.0, 1.0, -1.0])))
    r = make_rng(draw(st.integers(0, 2**32)))
    n, d = draw(st.integers(1, 150)), draw(st.sampled_from([2, 9, 16]))
    if kind == "repeats":
        rows = r.normal(size=(draw(st.integers(1, 4)), d))
        return rows[r.integers(0, rows.shape[0], size=n)]
    modes = r.normal(0.0, 3.0, size=(draw(st.integers(1, 6)), d))
    return modes[r.integers(0, modes.shape[0], size=n)] + 0.5 * r.normal(size=(n, d))


@settings(max_examples=300, deadline=None)
@given(x=neighbourhoods(), k=st.integers(1, 8), iters=st.integers(2, 25),
       seed=st.integers(0, 2**64 - 1), restart_seed=st.integers(0, 2**64 - 1))
def test_a_restart_from_converged_centers_reproduces_the_run(x, k, iters, seed, restart_seed):
    cs = kmeans(x, k, iters, make_rng(seed))
    assume(len(cs.inertia_trace) < iters)
    assert_restart_reproduces(cs, x, k, iters, restart_seed)


def test_a_restart_reproduces_a_run_whose_update_empties_a_cluster():
    # Acceptance criterion 3's instance where an update empties a cluster,
    # which is re-seeded at the farthest point (see test_kmeans_reference).
    rng = make_rng(derive_seed(35, "crit3b"))
    blob_centers = rng.normal(scale=3.0, size=(6, 4))
    x = blob_centers[rng.integers(0, 6, size=50)] + rng.normal(scale=0.5, size=(50, 4))
    cs = kmeans(x, 6, 25, make_rng(derive_seed(35 * 1000 + 89, "crit3b-oracle")))
    assert len(cs.inertia_trace) < 25
    assert_restart_reproduces(cs, x, 6, 25, 1)


def test_a_restart_needs_centers():
    x = np.ones((4, 2))
    for init in (np.zeros((0, 2)), np.zeros(2)):
        with pytest.raises(ValueError, match="init must be a non-empty"):
            kmeans(x, 2, 5, make_rng(0), init=init)


def recording_kmeans(monkeypatch):
    """Wrap ``ltfm.kmeans``; returns the list of (init, result) per call."""
    calls = []

    def recording(*args, **kwargs):
        result = kmeans(*args, **kwargs)
        calls.append((kwargs.get("init"), result))
        return result

    monkeypatch.setattr(qebev.ltfm, "kmeans", recording)
    return calls


def test_a_run_that_hit_its_cap_is_seeded_again(monkeypatch):
    # Every round gathers all 40 points, so round 1 sees round 0's points; but
    # round 0's run stopped at the cap, and a start from its centers would
    # continue its Lloyd updates.  The kernel rewinds and seeds again, as
    # it does for any new rows, and gets round 0's clustering back.
    r = make_rng(6)
    frame = Frame(0.0, np.zeros((0, 9)), [], r.uniform(-3.0, 3.0, size=(40, 2)),
                  r.normal(size=(40, 9)), 11)
    params = DqemParams(radius=50.0, iterations=2, kmeans_iters=2)
    start = np.array([0.0, 0.0, 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0])
    calls = recording_kmeans(monkeypatch)
    trace, _ = _evolve_single(start, frame, params, 3, 0.0, None)
    assert len(trace.decoded) == 1 + 2  # the start decode, then two rounds
    (init0, first), (init1, second) = calls
    assert init0 is None and init1 is None
    assert len(first.inertia_trace) == params.kmeans_iters
    for name in ("assignments", "centers", "sizes"):
        assert getattr(second, name).tobytes() == getattr(first, name).tobytes()
    assert second.inertia_trace == first.inertia_trace
    warm = kmeans(frame.feat, params.k, params.kmeans_iters, make_rng(0),
                  init=first.centers)
    assert warm.assignments.tobytes() != first.assignments.tobytes()


def test_the_restart_fires_on_the_default_pipeline(tmp_path, monkeypatch, capsys):
    # pipeline --seed 42: 397 of its 1,458 runs regather the points of a
    # converged run, with the ROADMAP's query outcomes.
    calls = recording_kmeans(monkeypatch)
    outcomes = Counter()
    evolve_single = qebev.ltfm._evolve_single

    def counting_evolve_single(*args, **kwargs):
        result = evolve_single(*args, **kwargs)
        outcomes[result[0].flag or "healthy"] += 1
        return result

    monkeypatch.setattr(qebev.ltfm, "_evolve_single", counting_evolve_single)
    assert cli.main(["pipeline", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1458
    assert sum(init is not None for init, _ in calls) == 397
    assert outcomes == {"healthy": 438, "empty": 228, "empty-regather": 134}


def test_the_restart_fires_on_the_large_frame(tmp_path, monkeypatch, capsys):
    # The 6000-point frame under 20x20 pillars: 26 of 1,200 runs.
    scenes = tmp_path / "scenes.jsonl"
    assert cli.main([
        "simulate", "--seed", "42", "--frames", "1", "--objects", "40",
        "--points-per-object", "100", "--background-points", "2000", "--out", str(scenes),
    ]) == 0
    calls = recording_kmeans(monkeypatch)
    assert cli.main([
        "detect", "--seed", "42", "--grid-nx", "20", "--grid-ny", "20",
        "--scenes", str(scenes), "--out", str(tmp_path / "detections.jsonl"),
    ]) == 0
    capsys.readouterr()
    assert len(calls) == 1200
    assert sum(init is not None for init, _ in calls) == 26
