import pytest

from perfbench.spans import Tracer, self_times, time_by_name, union_length


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_union_length_merges_overlap_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (5, 6)]) == 3
    assert union_length([(0, 4), (2, 6)]) == 6
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert union_length([(3, 4), (0, 1), (1, 2)]) == 3


def test_self_time_subtracts_nested_children_level_by_level():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 6.0, 7.0, 0],
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ["p", 0.0, 10.0, None],
        ["x", 1.0, 5.0, 0],
        ["y", 3.0, 7.0, 0],    # overlaps x: together they cover 1..7
        ["z", 8.0, 12.0, 0],   # runs past the parent: only 8..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert min(self_times(spans)) >= 0.0


def test_time_by_name_counts_a_recursive_name_once():
    spans = [
        ["f", 0.0, 10.0, None],
        ["f", 2.0, 5.0, 0],
        ["g", 6.0, 8.0, 0],
    ]
    by_name = time_by_name(spans)
    assert by_name["f"]["calls"] == 2
    assert by_name["f"]["inclusive_s"] == 10.0
    assert by_name["f"]["self_s"] == (10.0 - 3.0 - 2.0) + 3.0
    assert by_name["g"] == {"calls": 1, "self_s": 2.0, "inclusive_s": 2.0}


def test_wrap_records_parents_counts_and_observations():
    tracer = Tracer("t", clock=_ticks(0.0, 1.0, 2.0, 3.0))
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1,
                        observe=lambda t, args, kwargs, result: seen.append((args, result)))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 1}
    assert seen == [((1,), 2)]


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = Tracer("t", clock=_ticks(0.0, 1.0, 2.0, 3.0))

    def boom():
        raise ValueError("x")

    failing = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        failing()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans == [["boom", 0.0, 1.0, None], ["after", 2.0, 3.0, None]]
