"""Scaling measurements for the per-query refinement step.

Times one full gather-free refinement (k-means over n feature vectors plus
attention aggregation) across a sweep of n, then fits a log-log slope.  The
step's cost is dominated by Lloyd updates, so the slope should sit near 1.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dqem import aggregate_over_centers, kmeans
from .numerics import derive_seed, draw_seed, make_rng

__all__ = ["BenchConfig", "BenchRow", "ScalingReport", "run_scaling", "write_bench_csv"]

# Clusters attention keeps (clamped to the clusters k-means returns), and
# untimed steps before each size's timed repeats.
_TOP_K = 4
_WARMUP = 1


@dataclass
class BenchConfig:
    n_sweep: tuple[int, ...] = (1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000)
    k: int = 6
    kmeans_iters: int = 20
    d: int = 16
    repeats: int = 5

    def __post_init__(self) -> None:
        self.n_sweep = tuple(int(n) for n in self.n_sweep)
        if len(self.n_sweep) < 2 or any(n < 1 for n in self.n_sweep):
            raise ValueError("n_sweep needs at least two positive sizes")
        if list(self.n_sweep) != sorted(set(self.n_sweep)):
            raise ValueError("n_sweep must be strictly increasing")
        if self.repeats < 3:
            raise ValueError("repeats must be at least 3 for a stable median")
        if self.k < 1 or self.d < 1 or self.kmeans_iters < 1:
            raise ValueError("k, d and kmeans_iters must be at least 1")


@dataclass
class BenchRow:
    n: int
    median_seconds: float
    slope_running: float | None


@dataclass
class ScalingReport:
    config: BenchConfig
    rows: list[BenchRow]
    slope: float | None
    slope_ci: tuple[float, float] | None
    notes: list[str] = field(default_factory=list)


def _make_workload(n: int, cfg: BenchConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blob features (k modes) and a unit query vector."""
    rng = make_rng(seed)
    centers = rng.normal(0.0, 2.0, size=(cfg.k, cfg.d))
    labels = rng.integers(0, cfg.k, size=n)
    feats = centers[labels] + 0.3 * rng.standard_normal((n, cfg.d))
    q = rng.standard_normal(cfg.d)
    q /= np.linalg.norm(q)
    return feats, q


def _t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom.

    For integer df the two-sided CDF A(t | df) is a finite cosine series in
    theta = atan(t / sqrt(df)) (Abramowitz & Stegun 26.7.3-26.7.4); the
    quantile solves A = 0.95 by bisection on theta.
    """

    def two_sided(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        term = total = 1.0
        for j in range(1 + df % 2, df - 2, 2):
            term *= c * c * j / (j + 1)
            total += term
        if df % 2 == 0:
            return s * total
        return 2.0 / math.pi * (theta + (s * c * total if df > 1 else 0.0))

    lo, hi = 0.0, math.pi / 2
    for _ in range(64):  # halves the bracket below one ulp of theta
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if two_sided(mid) < 0.95 else (lo, mid)
    return math.sqrt(df) * math.tan(lo)


def _fit_slope(ns: list[int], ts: list[float]) -> tuple[float, tuple[float, float]] | None:
    """OLS slope of log t on log n and its 95% confidence interval; None
    from fewer than three sizes, which leave the interval no degree of
    freedom."""
    if len(ns) < 3:
        return None
    x = np.log(ns)
    y = np.log(ts)
    x -= x.mean()
    y -= y.mean()
    sxx = float(x @ x)
    slope = float(x @ y) / sxx
    resid = y - slope * x
    stderr = math.sqrt(float(resid @ resid) / (len(ns) - 2) / sxx)
    half = _t_quantile_975(len(ns) - 2) * stderr
    return slope, (slope - half, slope + half)


def run_scaling(cfg: BenchConfig, rng: np.random.Generator) -> ScalingReport:
    """Median step times over the sweep plus the fitted log-log slope.

    The same seed produces the same feature sets, so medians differ only by
    machine noise.  Sizes whose median lands inside 100x the timer
    resolution are excluded from the fit (noted in the report).  The slope,
    and a row's running slope, are None until three sizes are usable.
    """
    base_seed = draw_seed(rng)
    resolution = time.get_clock_info("perf_counter").resolution
    rows: list[BenchRow] = []
    notes: list[str] = []
    fit_ns: list[int] = []
    fit_ts: list[float] = []

    for n in cfg.n_sweep:
        work_seed = derive_seed(base_seed, f"bench:{n}")
        feats, q = _make_workload(n, cfg, work_seed)

        def step() -> None:
            cs = kmeans(feats, cfg.k, cfg.kmeans_iters, make_rng(work_seed))
            aggregate_over_centers(q, cs.centers, _TOP_K)

        for _ in range(_WARMUP):
            step()
        times = []
        for _ in range(cfg.repeats):
            t0 = time.perf_counter()
            step()
            times.append(time.perf_counter() - t0)
        # np.median's value, without the numpy.ma import np.median makes.
        times.sort()
        median = 0.5 * (times[(cfg.repeats - 1) // 2] + times[cfg.repeats // 2])

        if median < 100.0 * resolution:
            notes.append(
                f"n={n}: median {median:.3e}s within 100x timer resolution, excluded from fit"
            )
            slope_running = None
        else:
            fit_ns.append(n)
            fit_ts.append(median)
            fit = _fit_slope(fit_ns, fit_ts)
            slope_running = fit[0] if fit is not None else None
        rows.append(BenchRow(n=n, median_seconds=median, slope_running=slope_running))

    slope, ci = _fit_slope(fit_ns, fit_ts) or (None, None)
    return ScalingReport(config=cfg, rows=rows, slope=slope, slope_ci=ci, notes=notes)


def write_bench_csv(report: ScalingReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "K", "I", "d", "median_seconds", "slope_running"])
        cfg = report.config
        for row in report.rows:
            writer.writerow([
                row.n, cfg.k, cfg.kmeans_iters, cfg.d,
                f"{row.median_seconds:.9e}",
                "" if row.slope_running is None else f"{row.slope_running:.6f}",
            ])
