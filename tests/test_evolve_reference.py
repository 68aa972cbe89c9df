"""``ltfm._evolve_single`` against the frozen per-query reference in
``_evolve_reference``: the same trace, field for field and bit for bit,
and the same carry, on frames with and without the previous frame's carry.
``ltfm.iter_sequence`` against the reference sequence loop: the same
traces, detections and ``fused`` on short fused sequences.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _evolve_reference as ref
from qebev.bevscene import Frame, SceneConfig, generate_sequence
from qebev.dqem import DqemParams
from qebev.ltfm import TemporalParams, _evolve_single, iter_sequence
from qebev.numerics import make_rng
from test_ltfm import assert_same_query, degenerate_frames, same_bits

# A start row: the pillar prior at the origin.
START = (0.0, 0.0, 0.8, 2.0, 4.5, 1.6, 0.0, 0.0, 0.0)


@st.composite
def scene_frames(draw, n_frames=2):
    """``n_frames`` frames of a small moving scene, its points snapped to a
    lattice so that a lattice start and radius put some points at exactly
    the radius."""
    cfg = SceneConfig(
        bounds=12.0, n_objects=draw(st.integers(1, 2)),
        points_per_object=draw(st.integers(1, 15)), background_points=draw(st.integers(0, 10)),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])), d=draw(st.sampled_from([9, 12])),
        speed_max=3.0,
    )
    step = draw(st.sampled_from([0.5, 1.0]))
    frames = generate_sequence(cfg, n_frames, 0.5, make_rng(draw(st.integers(0, 2**32))))
    return [Frame(fr.timestamp, fr.boxes, fr.track_ids, np.round(fr.xy / step) * step,
                  fr.feat, fr.encoder_seed) for fr in frames]


def params_of(draw, iterations):
    k = draw(st.integers(1, 5))
    return DqemParams(
        k=k, top_k=draw(st.integers(1, k)), beta=draw(st.sampled_from([0.0, 0.6, 2.0])),
        radius=draw(st.sampled_from([1.5, 2.5, 4.0, 8.0, 20.0])),
        iterations=draw(iterations), kmeans_iters=draw(st.sampled_from([1, 2, 3, 20])),
        tau_bg=draw(st.sampled_from([0.0, 0.5])),
    )


def start_of(draw, xy, r):
    """A start on the half-metre lattice, or most often at a point of ``xy``
    or one radius ``r`` from it along an axis, which puts that point at
    exactly the radius."""
    start = np.array(START)
    start[:2] = draw(st.tuples(*[st.integers(-16, 16).map(lambda i: i * 0.5)] * 2))
    if len(xy) and draw(st.integers(0, 3)):
        offset = draw(st.sampled_from([(0.0, 0.0), (r, 0.0), (0.0, -r)]))
        start[:2] = xy[draw(st.integers(0, len(xy) - 1))] + offset
    return start


@st.composite
def cases(draw):
    if draw(st.integers(0, 3)) == 0:
        frames = [draw(degenerate_frames())] * 2
    else:
        frames = draw(scene_frames())
    params = params_of(draw, st.integers(0, 3))
    start = start_of(draw, frames[0].xy, params.radius)
    alpha = draw(st.sampled_from([0.0, 0.4, 1.0]))
    return frames, start, params, alpha, draw(st.integers(0, 2**64 - 1))


def outcome(fn, *args):
    """The call's (trace, carry), or None when it refused the frame (the
    reference runs where overflowing numpy arithmetic raises)."""
    try:
        return fn(*args)
    except (ValueError, FloatingPointError):
        return None


def assert_same_carry(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert same_bits(a[0], b[0])
    assert (a[1] is None) == (b[1] is None)
    if a[1] is not None:
        for field in ("centers", "sizes", "assignments"):
            assert same_bits(getattr(a[1], field), getattr(b[1], field)), field


@settings(max_examples=400, deadline=None)
@given(cases())
@example(  # the second round gathers the first's points after a run that hit its cap
    ([generate_sequence(SceneConfig(bounds=12.0, n_objects=1, background_points=0, d=9),
                        2, 0.5, make_rng(3))[0]] * 2,
     np.array(START),
     DqemParams(k=3, top_k=2, radius=20.0, iterations=2, kmeans_iters=1), 0.4, 7),
)
def test_evolve_single_matches_the_reference(case):
    frames, start, params, alpha, seed = case
    got_carry = want_carry = None
    for frame in frames:
        got = outcome(_evolve_single, start, frame, params, seed, alpha, got_carry)
        with np.errstate(over="raise", invalid="raise"):
            want = outcome(ref.evolve_single, start, frame, params, seed, alpha, want_carry)
        assert (got is None) == (want is None)
        if got is None:
            return
        assert_same_query(got[0], want[0])
        assert_same_carry(got[1], want[1])
        got_carry, want_carry = got[1], want[1]



@st.composite
def sequences(draw):
    """A short sequence, a few starts, parameters, a fusion stride and
    blend weight, and a seed.  A degenerate sequence repeats one of
    ``test_ltfm``'s degenerate frames at rising timestamps."""
    n_frames = draw(st.integers(2, 5))
    if draw(st.integers(0, 3)) == 0:
        fr = draw(degenerate_frames())
        frames = [Frame(0.5 * t, fr.boxes, fr.track_ids, fr.xy, fr.feat, fr.encoder_seed)
                  for t in range(n_frames)]
    else:
        frames = draw(scene_frames(n_frames))
    params = params_of(draw, st.integers(1, 2))
    starts = np.array([start_of(draw, frames[0].xy, params.radius)
                       for _ in range(draw(st.integers(1, 5)))])
    tparams = TemporalParams(alpha=draw(st.sampled_from([0.0, 0.4, 1.0])),
                             stride=draw(st.integers(1, 3)))
    return frames, starts, params, tparams, draw(st.integers(0, 2**64 - 1))


def yielded(sequence):
    """The frames ``sequence`` yields before it refuses one, and whether it did."""
    out = []
    try:
        for item in sequence:
            out.append(item)
    except (ValueError, FloatingPointError):
        return out, True
    return out, False


def assert_same_detections(a, b):
    assert (a.timestamp, a.fused) == (b.timestamp, b.fused)
    assert len(a.detections) == len(b.detections)
    for da, db in zip(a.detections, b.detections):
        assert da.query_id == db.query_id
        assert same_bits(da.box, db.box)
        assert same_bits(da.score, db.score)
        assert same_bits(da.velocity, db.velocity)


@settings(max_examples=100, deadline=None)
@given(sequences())
def test_iter_sequence_matches_the_reference_loop(case):
    frames, starts, params, tparams, seed = case
    got, got_refused = yielded(iter_sequence(frames, params, tparams, make_rng(seed), starts))
    with np.errstate(over="raise", invalid="raise"):
        want, want_refused = yielded(
            ref.iter_sequence(frames, params, tparams, make_rng(seed), starts))
    assert (len(got), got_refused) == (len(want), want_refused)
    for (got_frame, got_traces), (want_frame, want_traces) in zip(got, want):
        assert_same_detections(got_frame, want_frame)
        assert len(got_traces) == len(want_traces) == len(starts)
        for a, b in zip(got_traces, want_traces):
            assert_same_query(a, b)
