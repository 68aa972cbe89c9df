"""Scaling measurements for the per-query refinement step.

Times one full gather-free refinement (k-means over n feature vectors plus
attention aggregation) across a sweep of n, then fits a log-log slope.  The
step's cost is dominated by Lloyd updates, so the slope should sit near 1.
"""

from __future__ import annotations

import csv
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .dqem import aggregate_over_centers, kmeans
from .numerics import derive_seed, make_rng

__all__ = ["BenchConfig", "BenchRow", "ScalingReport", "run_scaling", "write_bench_csv"]


def _default_sweep() -> tuple[int, ...]:
    return (1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000)


@dataclass
class BenchConfig:
    n_sweep: tuple[int, ...] = field(default_factory=_default_sweep)
    k: int = 6
    top_k: int = 4
    kmeans_iters: int = 20
    d: int = 16
    repeats: int = 5
    warmup: int = 1

    def __post_init__(self) -> None:
        self.n_sweep = tuple(int(n) for n in self.n_sweep)
        if len(self.n_sweep) < 2 or any(n < 1 for n in self.n_sweep):
            raise ValueError("n_sweep needs at least two positive sizes")
        if list(self.n_sweep) != sorted(set(self.n_sweep)):
            raise ValueError("n_sweep must be strictly increasing")
        if self.repeats < 3:
            raise ValueError("repeats must be at least 3 for a stable median")
        if self.k < 1 or self.top_k < 1 or self.top_k > self.k:
            raise ValueError("need 1 <= top_k <= k")
        if self.d < 1 or self.kmeans_iters < 1 or self.warmup < 0:
            raise ValueError("d, kmeans_iters must be >= 1 and warmup >= 0")


@dataclass
class BenchRow:
    n: int
    k: int
    iters: int
    d: int
    median_seconds: float
    slope_running: float | None


@dataclass
class ScalingReport:
    rows: list[BenchRow]
    slope: float | None
    slope_ci: tuple[float, float] | None
    machine: dict
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


def _fit_slope(ns: list[int], ts: list[float]) -> tuple[float, tuple[float, float]]:
    from scipy import stats  # deferred: slow to import, and only the fit needs it

    res = stats.linregress(np.log(ns), np.log(ts))
    half = float(stats.t.ppf(0.975, len(ns) - 2)) * res.stderr if len(ns) > 2 else float("inf")
    return float(res.slope), (float(res.slope) - half, float(res.slope) + half)


def run_scaling(cfg: BenchConfig, rng: np.random.Generator) -> ScalingReport:
    """Median step times over the sweep plus the fitted log-log slope.

    The same seed produces the same feature sets, so medians differ only by
    machine noise.  Sizes whose median lands inside 100x the timer
    resolution are excluded from the fit (noted in the report).
    """
    base_seed = int(rng.integers(0, 2**64, dtype=np.uint64))
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
            aggregate_over_centers(q, cs.centers, cfg.top_k)

        for _ in range(cfg.warmup):
            step()
        times = []
        for _ in range(cfg.repeats):
            t0 = time.perf_counter()
            step()
            times.append(time.perf_counter() - t0)
        median = float(np.median(times))

        if median < 100.0 * resolution:
            notes.append(
                f"n={n}: median {median:.3e}s within 100x timer resolution, excluded from fit"
            )
            slope_running = None
        else:
            fit_ns.append(n)
            fit_ts.append(median)
            slope_running = _fit_slope(fit_ns, fit_ts)[0] if len(fit_ns) >= 2 else None
        rows.append(
            BenchRow(
                n=n, k=cfg.k, iters=cfg.kmeans_iters, d=cfg.d,
                median_seconds=median, slope_running=slope_running,
            )
        )

    slope, ci = (None, None)
    if len(fit_ns) >= 2:
        slope, ci = _fit_slope(fit_ns, fit_ts)
    machine = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return ScalingReport(rows=rows, slope=slope, slope_ci=ci, machine=machine, notes=notes)


def write_bench_csv(report: ScalingReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "K", "I", "d", "median_seconds", "slope_running"])
        for row in report.rows:
            writer.writerow(
                [
                    row.n,
                    row.k,
                    row.iters,
                    row.d,
                    f"{row.median_seconds:.9e}",
                    "" if row.slope_running is None else f"{row.slope_running:.6f}",
                ]
            )
