import pytest

from perfbench.stats import failure_counts, summarize, tail_percentile


def test_summarize_reports_median_quartiles_and_sample_count():
    s = summarize([5.0, 1.0, 3.0])
    assert (s["n"], s["median"], s["min"], s["max"]) == (3, 3.0, 1.0, 5.0)
    even = summarize([4.0, 1.0, 2.0, 3.0])
    assert even["n"] == 4 and even["median"] == 2.5
    assert even["q1"] <= even["median"] <= even["q3"]
    assert summarize([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0,
                                "min": 7.0, "max": 7.0}
    with pytest.raises(ValueError):
        summarize([])


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50.0), (99, 50.0),
                                  (100, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, p):
    assert tail_percentile(n) == p


def test_summarize_adds_the_tail_only_with_enough_samples():
    assert not any(k.startswith("p") for k in summarize([1.0] * 19))
    s = summarize([float(i) for i in range(1, 101)])
    assert s["p90"] == 90.0 and "p99" not in s


def test_failure_counts_one_failure_per_attempt_with_any_problem():
    assert failure_counts([[], ["exit code 1"], [], ["a", "b"]]) == (4, 2)
    assert failure_counts([[]]) == (1, 0)
