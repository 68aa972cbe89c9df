"""How the benchmark reports repeated samples and failures."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with TAIL_SAMPLES samples beyond it."""
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_SAMPLES:
            return p
    return None


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and, where enough samples exist, a tail."""
    if not values:
        raise ValueError("no samples to summarize")
    ordered = sorted(values)
    n = len(ordered)
    if n > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    out = {"n": n, "median": median, "q1": q1, "q3": q3,
           "min": ordered[0], "max": ordered[-1]}
    p = tail_percentile(n)
    if p is not None:
        # Nearest-rank percentile.
        out[f"p{p:g}"] = ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return out


def failure_counts(problems_per_attempt: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed): an attempt fails when any of its checks failed."""
    return len(problems_per_attempt), sum(1 for p in problems_per_attempt if p)
