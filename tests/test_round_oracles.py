"""Oracles for the per-round steps: decode, attention and blend.

Each compares the code with a frozen copy of the numpy form it replaced,
bit for bit: vector norms from ``np.linalg.norm``, a decoded box row from
an array inverse of ``standardize``, and the softmax and top-k helpers with
their numpy reductions.  Do not edit the copies to follow the code.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qebev.bevscene import (
    HEIGHT_SCALE,
    POSITION_SCALE,
    VELOCITY_SCALE,
    decode_feature,
    encoding_matrix,
)
from qebev.dqem import (
    AttentionResult,
    aggregate_over_centers,
    attention_scores,
    blend_and_rescale,
)
from qebev.numerics import softmax, top_k_indices

LOG_SIZE_MIN = math.log(2.2250738585072014e-308)
LOG_SIZE_MAX = math.log(1.7976931348623157e308)


# ---------------------------------------------------------------- frozen copies


def ref_destandardize(channels):
    c = np.asarray(channels, dtype=np.float64)
    out = np.empty_like(c)
    out[..., 0] = c[..., 0] * POSITION_SCALE
    out[..., 1] = c[..., 1] * POSITION_SCALE
    out[..., 2] = c[..., 2] * HEIGHT_SCALE
    out[..., 3:6] = np.exp(c[..., 3:6])
    out[..., 6] = (c[..., 6] * math.pi + math.pi) % (2.0 * math.pi) - math.pi
    out[..., 7] = c[..., 7] * VELOCITY_SCALE
    out[..., 8] = c[..., 8] * VELOCITY_SCALE
    return out


def ref_decode_feature(feat, encoder_seed, tau_bg=0.0):
    f = np.asarray(feat, dtype=np.float64)
    if float(np.linalg.norm(f)) <= tau_bg:
        return None
    channels = encoding_matrix(encoder_seed, f.shape[0]).T @ f
    if not all(LOG_SIZE_MIN <= v <= LOG_SIZE_MAX for v in channels[3:6].tolist()):
        raise ValueError("decoded box size over- or underflows (overflowing features)")
    return ref_destandardize(channels)


def ref_softmax(scores):
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax scores must be finite")
    z = np.exp(s - s.max())
    return z / z.sum()


def ref_top_k_indices(scores, k):
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:k]


def ref_aggregate_over_centers(q, centers, top_k):
    qv = np.asarray(q, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64).reshape(-1, qv.shape[0])
    if c.shape[0] == 0:
        return AttentionResult(np.zeros(0, dtype=np.int64), np.zeros(0), qv.copy())
    scores = attention_scores(qv, c)
    selected = ref_top_k_indices(scores, min(top_k, c.shape[0]))
    weights = ref_softmax(scores[selected])
    return AttentionResult(selected, weights, weights @ c[selected])


def ref_blend_and_rescale(q, scale, result, centers, beta, sizes):
    qp = result.aggregated
    u = qp + beta * q
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        return q, scale, "degenerate-zero-blend"
    q_new = u / nu
    if result.selected.size:
        norms = np.linalg.norm(centers[result.selected], axis=1)
        w = np.asarray(sizes, dtype=np.float64)[result.selected]
        tot = float(w.sum())
        anchor = float(w @ norms / tot) if tot > 0.0 else 0.0
        if anchor > 0.0:
            return q_new, anchor, ""
    npq = float(np.linalg.norm(qp))
    return q_new, (npq if npq > 0.0 else scale), ""


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("raised", str(exc))


# ---------------------------------------------------------------- decode

YAW_EDGES = [-1.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
             math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0), 0.0, -0.0, 3.0, -3.0]


@st.composite
def decode_cases(draw):
    d = draw(st.sampled_from([9, 12, 16]))
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        # Channels first: yaw at and around +-pi, sizes up to and past the
        # range whose exp() is a normal float.
        small = st.floats(-3.0, 3.0)
        log_size = st.one_of(small, st.floats(-800.0, 800.0),
                             st.sampled_from([LOG_SIZE_MIN, LOG_SIZE_MAX]))
        yaw = st.one_of(st.sampled_from(YAW_EDGES), st.floats(-4.0, 4.0))
        channels = [draw(small), draw(small), draw(small), draw(log_size), draw(log_size),
                    draw(log_size), draw(yaw), draw(small), draw(small)]
        feat = encoding_matrix(seed, d) @ np.array(channels)
    else:
        feat = draw(arrays(np.float64, d, elements=st.floats(-1e3, 1e3)))
    norm = float(np.linalg.norm(feat))
    tau_bg = draw(st.one_of(
        st.just(0.0), st.floats(0.0, 10.0),
        st.sampled_from([norm, math.nextafter(norm, 0.0), math.nextafter(norm, math.inf)]),
    ))
    return feat, seed, tau_bg


@settings(max_examples=400, deadline=None)
@given(decode_cases())
def test_decode_feature_matches_the_array_form(case):
    feat, seed, tau_bg = case
    got = outcome(decode_feature, feat, seed, tau_bg)
    want = outcome(ref_decode_feature, feat, seed, tau_bg)
    if want is None or isinstance(want, tuple):
        assert type(got) is type(want) and got == want
    else:
        assert same_bits(got, want)


def test_decode_feature_covers_the_tau_and_overflow_edges():
    e = encoding_matrix(3, 16)
    f = e @ np.array([0.1, -0.2, 0.1, 0.5, 1.4, 0.4, 1.0, 0.0, 0.0])
    norm = float(np.linalg.norm(f))
    assert decode_feature(f, 3, norm) is None
    assert decode_feature(f, 3, math.nextafter(norm, 0.0)) is not None
    assert same_bits(decode_feature(f, 3), ref_decode_feature(f, 3))
    big = e @ np.array([0.0, 0.0, 0.0, 710.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert outcome(decode_feature, big, 3) == outcome(ref_decode_feature, big, 3) == (
        "raised", "decoded box size over- or underflows (overflowing features)")


# ---------------------------------------------------------------- attention

# Few distinct values, so that scores tie.
TIED = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]), st.floats(-3.0, 3.0))


@st.composite
def attention_cases(draw):
    d = draw(st.integers(1, 16))
    q = draw(arrays(np.float64, d, elements=TIED))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), d), elements=TIED))
    rows = draw(st.lists(st.integers(0, pool.shape[0] - 1), max_size=12))
    return q, pool[rows].reshape(len(rows), d), draw(st.integers(1, 8))


@settings(max_examples=400, deadline=None)
@given(attention_cases())
def test_aggregate_over_centers_matches_the_numpy_form(case):
    q, centers, top_k = case
    got = aggregate_over_centers(q, centers, top_k)
    want = ref_aggregate_over_centers(q, centers, top_k)
    assert same_bits(got.selected, want.selected)
    assert same_bits(got.weights, want.weights)
    assert same_bits(got.aggregated, want.aggregated)
    assert (got.selected.size == 0) == (centers.shape[0] == 0)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 12), elements=st.one_of(
    TIED, st.floats(-700.0, 700.0), st.sampled_from([math.inf, -math.inf, math.nan]))),
    st.integers(1, 12))
def test_softmax_and_top_k_match_the_numpy_forms(scores, k):
    got, want = outcome(softmax, scores), outcome(ref_softmax, scores)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same_bits(got, want)
    k = min(k, scores.size)
    assert same_bits(top_k_indices(scores, k), ref_top_k_indices(scores, k))


# ---------------------------------------------------------------- blend


@st.composite
def blend_cases(draw):
    q, centers, top_k = draw(attention_cases())
    result = ref_aggregate_over_centers(q, centers, top_k)
    beta = draw(st.sampled_from([0.0, 0.6, 1.0, 2.0]))
    if draw(st.integers(0, 4)) == 0:
        # An aggregate that cancels the query exactly: a zero blend.
        result.aggregated = -beta * q
    sizes = draw(arrays(np.int64, centers.shape[0], elements=st.integers(0, 3)))  # zero weights
    scale = draw(st.sampled_from([0.0, 1.5]))
    return q, scale, result, centers, beta, sizes


@settings(max_examples=400, deadline=None)
@given(blend_cases())
def test_blend_and_rescale_matches_the_numpy_form(case):
    q, scale, result, centers, beta, sizes = case
    got_q, got_scale, got_flag = blend_and_rescale(q, scale, result, centers, beta, sizes=sizes)
    want_q, want_scale, want_flag = ref_blend_and_rescale(
        q, scale, result, centers, beta, sizes=sizes)
    assert same_bits(got_q, want_q)
    assert type(got_scale) is type(want_scale) and same_bits(got_scale, want_scale)
    assert got_flag == want_flag


def test_blend_covers_the_zero_blend_and_zero_anchor_edges():
    q = np.array([0.6, 0.8])
    zero_anchor = AttentionResult(np.array([0]), np.array([1.0]), np.array([0.3, 0.4]))
    centers = np.zeros((1, 2))  # every selected centre has norm 0
    for sizes in (np.array([1]), np.array([2])):
        got = blend_and_rescale(q, 1.5, zero_anchor, centers, 0.6, sizes=sizes)
        want = ref_blend_and_rescale(q, 1.5, zero_anchor, centers, 0.6, sizes=sizes)
        assert got[1] == want[1] == 0.5 and got[2] == want[2] == ""
    cancel = AttentionResult(np.array([0]), np.array([1.0]), -0.5 * q)
    assert blend_and_rescale(q, 1.5, cancel, centers, 0.5, np.array([1]))[1:] == (
        1.5, "degenerate-zero-blend")
