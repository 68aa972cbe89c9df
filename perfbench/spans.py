"""Spans and counts recorded around calls, and the self-time arithmetic.

A span is one call of a traced function: its name, start and end on one
clock, and the span that was open when it started (its parent).  Spans stay
in memory and are written out once, when the traced run ends.  This module
uses the standard library only, so importing it before the program under
test adds nothing to that program's import time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Iterable

# Span record layout: [name, start, end, parent index or None].
NAME, START, END, PARENT = range(4)


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        sid = len(self.spans) - 1
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = self.clock()
        self._open.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable | None = None,
        memory: Callable | None = None,
    ) -> Callable:
        """``fn`` recording a span per call and a ``<name>.calls`` count.

        ``observe(tracer, args, kwargs, result)`` runs after the span closes
        and derives counts from the call's inputs and outputs.  ``memory``
        is a context-manager factory wrapped around the call inside the span
        (tracemalloc, in the memory run).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            sid = self.begin(name)
            try:
                if memory is None:
                    result = fn(*args, **kwargs)
                else:
                    with memory(self, name):
                        result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Append this run's spans to a JSON Lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                }))
                fh.write("\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so a self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - union_length(clipped))
    return out


def time_by_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time and self time.

    Inclusive time is the union of the name's spans, so a function that
    calls itself is not counted twice.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        rec = by_name.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "_iv": []})
        rec["calls"] += 1
        rec["self_s"] += self_s
        rec["_iv"].append((span[START], span[END]))
    for rec in by_name.values():
        rec["inclusive_s"] = union_length(rec.pop("_iv"))
    return by_name
