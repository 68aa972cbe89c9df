"""Machine-speed calibration for the end-to-end times.

The speed of a small shared machine drifts by tens of percent over minutes,
which is more than any bound a benchmark could fix on a raw time.  So the
parent process runs one fixed piece of CPU work just before and just after
every child process it times, and the end-to-end times are reported at a
reference speed: a measured time ``t`` is reported as
``t * REFERENCE_S / c``, where ``c`` is the mean calibration time around that
child.  On a machine where the calibration takes ``REFERENCE_S``, reported
and measured times agree.  The raw times are recorded beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Duration of one calibration task on the reference machine.
REFERENCE_S = 0.018
# Calibration tasks per measurement; their median is the measurement.
REPEATS = 7


def _task() -> float:
    """Seconds one fixed task takes now: a pure-Python loop plus small numpy
    operations, the same mix of work the program's run time is made of."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.arange(64.0)
    for _ in range(1_500):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def measure() -> float:
    return statistics.median(_task() for _ in range(REPEATS))
