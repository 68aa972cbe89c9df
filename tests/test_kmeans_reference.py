"""``dqem.kmeans`` and ``numerics.pairwise_sq_dist`` against the frozen
reference in ``_kmeans_reference``.

Every output field must match bit for bit, and the generator must end in
the same state, because the pipeline and restarts (successive calls on one
generator) keep drawing from it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _kmeans_reference as ref
from qebev.dqem import kmeans
from qebev.numerics import derive_seed, make_rng, pairwise_sq_dist


def assert_same_run(x, k, iters, seed, n_init=1):
    # n_init calls on one generator, keeping the first lowest-inertia run,
    # against the reference's own n_init restarts.
    rng_new, rng_ref = make_rng(seed), make_rng(seed)
    got = min((kmeans(x, k, iters, rng_new) for _ in range(n_init)), key=lambda r: r.inertia_trace[-1])
    want = ref.kmeans(x, k, iters, rng_ref, n_init=n_init)
    assert got.assignments.dtype == want.assignments.dtype
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.sizes.tobytes() == want.sizes.tobytes()
    assert np.array(got.inertia_trace).tobytes() == np.array(want.inertia_trace).tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("case", range(60))
def test_matches_reference_on_random_inputs(case):
    r = make_rng(1000 + case)
    n = int(r.integers(1, 200))
    d = int(r.integers(1, 20))
    x = r.normal(size=(n, d))
    if case % 3 == 0:
        # Clustered, like a gathered neighbourhood.
        modes = r.normal(0.0, 3.0, size=(4, d))
        x = modes[r.integers(0, 4, size=n)] + 0.2 * x
    assert_same_run(x, int(r.integers(1, 10)), int(r.integers(1, 20)), 7 * case)


@pytest.mark.parametrize("distinct", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 6, 8, 12])
def test_matches_reference_with_few_distinct_rows(distinct, k):
    # With 2 distinct rows and k >= 3 the trial count drops from 3 to 2.
    r = make_rng(distinct * 100 + k)
    rows = r.normal(size=(distinct, 5))
    x = rows[r.permutation(np.arange(40) % distinct)]
    for seed in range(5):
        assert_same_run(x, k, 20, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_matches_reference_on_all_equal_rows(n):
    x = np.full((n, 4), 1.5)
    for k in (1, 2, 6):
        assert_same_run(x, k, 20, n + k)


def test_matches_reference_on_rows_differing_only_by_signed_zero():
    # np.unique counts 0.0 and -0.0 as one value, and so do the distances.
    x = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 2.0], [1.0, -0.0], [1.0, 2.0], [0.0, -1.0]])
    for k in (2, 3, 6):
        for seed in range(10):
            assert_same_run(x, k, 20, seed)
            assert_same_run(x[:3], k, 20, seed)


@pytest.mark.parametrize("n_init", [2, 3])
def test_matches_reference_over_restarts(n_init):
    r = make_rng(n_init)
    x = r.normal(size=(60, 6))
    for k in (1, 3, 6):
        assert_same_run(x, k, 20, k, n_init=n_init)
    few = np.repeat(r.normal(size=(2, 6)), 10, axis=0)
    for k in (2, 6):
        assert_same_run(few, k, 20, k, n_init=n_init)


def test_matches_reference_when_a_cluster_empties(monkeypatch):
    # One of acceptance criterion 3's instances: an update empties a cluster.
    rng = make_rng(derive_seed(35, "crit3b"))
    blob_centers = rng.normal(scale=3.0, size=(6, 4))
    x = blob_centers[rng.integers(0, 6, size=50)] + rng.normal(scale=0.5, size=(50, 4))
    seed = derive_seed(35 * 1000 + 89, "crit3b-oracle")
    # The reference recomputes a one-center distance column for each reseed.
    single_center_calls = []
    ref_distances = ref.pairwise_sq_dist

    def counting(points, centers):
        single_center_calls.append(np.atleast_2d(centers).shape[0] == 1)
        return ref_distances(points, centers)

    monkeypatch.setattr(ref, "pairwise_sq_dist", counting)
    assert_same_run(x, 6, 25, seed)
    # The first call seeds; any later one-center call is a reseed.
    assert any(single_center_calls[1:])


def test_nan_feature_raises_value_error():
    x = make_rng(0).normal(size=(20, 4))
    x[3, 1] = np.nan
    with pytest.raises(ValueError):
        kmeans(x, 6, 20, make_rng(1))


def test_overflowing_distances_raise_value_error():
    x = make_rng(0).normal(size=(20, 4)) * 1e200
    with pytest.raises(ValueError):
        kmeans(x, 6, 20, make_rng(1))


# ---------------------------------------------------------------- property oracles

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200]
VALUES = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3).map(float), st.sampled_from(SPECIAL))


@st.composite
def distance_inputs(draw):
    # Rows come from a small pool, so duplicates are common; the pool mixes
    # plain values with signed zeros, infinities, NaN and 1e200 magnitudes.
    d = draw(st.integers(1, 20))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=VALUES))
    rows = st.integers(0, pool.shape[0] - 1)
    points = pool[draw(arrays(np.int64, draw(st.integers(1, 300)), elements=rows))]
    centers = pool[draw(arrays(np.int64, draw(st.integers(0, 12)), elements=rows))]
    if draw(st.booleans()):
        points = points[0]  # one 1-D point
    if centers.shape[0] and draw(st.booleans()):
        centers = centers[0]  # one 1-D center
    return points, centers, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(distance_inputs())
def test_pairwise_sq_dist_matches_the_broadcast_form_bitwise(case):
    points, centers, fortran = case
    with np.errstate(all="ignore"):  # inf - inf and overflowing squares
        want = ref.pairwise_sq_dist(points, centers)
        # The broadcast form lays a difference of Fortran-ordered points out
        # in Fortran order and sums it in another order; the kernel's
        # difference is C-ordered whatever the input layout, so it gives the
        # C-ordered bits for both.
        got = pairwise_sq_dist(np.asfortranarray(points) if fortran else points, centers)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def neighbourhoods(draw):
    # A gathered neighbourhood: a few tight modes in feature space, sometimes
    # cut down to a handful of distinct rows, so that seeding stops early
    # and updates empty clusters.
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([2, 4, 9, 16]))
    n = draw(st.integers(1, 200))
    modes = r.normal(0.0, draw(st.sampled_from([0.5, 1.0, 3.0])), size=(draw(st.integers(1, 8)), d))
    x = modes[r.integers(0, modes.shape[0], size=n)]
    x = x + draw(st.sampled_from([0.0, 0.01, 0.2])) * r.normal(size=(n, d))
    if draw(st.booleans()):
        x = x[r.integers(0, min(n, draw(st.integers(1, 4))), size=n)]  # few distinct rows
    return x, draw(st.integers(1, 8)), draw(st.integers(1, 25)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(neighbourhoods())
def test_matches_reference_on_neighbourhood_like_rows(case):
    x, k, iters, seed = case
    assert_same_run(x, k, iters, seed)


# Neighbourhoods of six blobs, and the seeds at which the reference's Lloyd
# updates empty a cluster: (data seed, d, n, k-means seed).  Greedy k-means++
# seeding makes this rare, about once in 10^4 runs, so the instances were
# found by a search.  Scaling by a power of two scales every step exactly.
RESEEDING = [(29, 16, 140, 179), (30, 2, 50, 635)]


@pytest.mark.parametrize("exponent", [-30, 0, 7, 300])
@pytest.mark.parametrize("data_seed, d, n, seed", RESEEDING)
def test_matches_reference_on_reseeding_neighbourhoods(monkeypatch, data_seed, d, n, seed,
                                                       exponent):
    r = np.random.default_rng(data_seed)
    x = r.normal(0.0, 3.0, (6, d))[r.integers(0, 6, n)] + r.normal(0.0, 0.5, (n, d))
    x = np.ldexp(x, exponent)
    center_counts = []
    ref_distances = ref.pairwise_sq_dist

    def counting(points, centers):
        center_counts.append(np.atleast_2d(centers).shape[0])
        return ref_distances(points, centers)

    monkeypatch.setattr(ref, "pairwise_sq_dist", counting)
    assert_same_run(x, 6, 20, seed)
    # After the first seeding call, a one-center call is a reseed.
    assert 1 in center_counts[1:]
