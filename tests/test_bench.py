import math

import numpy as np
import pytest

from qebev.bench import (
    BenchConfig,
    ScalingReport,
    _fit_slope,
    _t_quantile_975,
    run_scaling,
    write_bench_csv,
)
from qebev.numerics import make_rng


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(n_sweep=(4000, 2000, 8000))
    with pytest.raises(ValueError):
        BenchConfig(n_sweep=(1000,))
    with pytest.raises(ValueError):
        BenchConfig(repeats=2)


def test_fit_slope_exact_power_law():
    ns = [1000, 2000, 4000, 8000, 16000]
    ts = [2.5e-6 * n for n in ns]
    slope, (lo, hi) = _fit_slope(ns, ts)
    assert slope == pytest.approx(1.0, abs=1e-9)
    # exact fit collapses the interval onto the slope
    assert lo == pytest.approx(slope, abs=1e-9)
    assert hi == pytest.approx(slope, abs=1e-9)
    # quadratic scaling fits slope 2
    slope2, _ = _fit_slope(ns, [1e-9 * n * n for n in ns])
    assert slope2 == pytest.approx(2.0, abs=1e-9)


def test_fit_slope_ci_tightens_on_clean_data():
    ns = [1000, 2000, 4000, 8000]
    clean = [1e-6 * n for n in ns]
    noisy = [1e-6 * n * f for n, f in zip(ns, (1.0, 1.6, 0.7, 1.3))]
    _, (clo, chi) = _fit_slope(ns, clean)
    _, (nlo, nhi) = _fit_slope(ns, noisy)
    assert (chi - clo) < (nhi - nlo)


def test_t_quantile_matches_scipy():
    # scipy is only the oracle here; the package computes the quantile itself.
    from scipy import stats

    for df in range(1, 201):
        want = float(stats.t.ppf(0.975, df))
        assert _t_quantile_975(df) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ns, ts", [
    ([1000, 2000, 4000], [3.1e-4, 5.9e-4, 1.3e-3]),
    ([500, 1000, 2000, 4000, 8000], [2.0e-4, 3.7e-4, 8.1e-4, 1.5e-3, 3.4e-3]),
    ([16, 64, 256, 1024, 4096, 16384, 65536], [1e-5, 3e-5, 9e-5, 4e-4, 2e-3, 6e-3, 3e-2]),
])
def test_fit_slope_matches_scipy_linregress(ns, ts):
    from scipy import stats

    res = stats.linregress(np.log(ns), np.log(ts))
    half = float(stats.t.ppf(0.975, len(ns) - 2)) * res.stderr
    slope, (lo, hi) = _fit_slope(ns, ts)
    assert slope == pytest.approx(res.slope, rel=0.0, abs=1e-10)
    assert lo == pytest.approx(res.slope - half, rel=0.0, abs=1e-10)
    assert hi == pytest.approx(res.slope + half, rel=0.0, abs=1e-10)


def test_fit_slope_needs_three_sizes():
    # Two sizes leave the Student-t interval no degree of freedom.
    assert _fit_slope([1000, 2000], [1e-3, 2e-3]) is None
    slope, (lo, hi) = _fit_slope([1000, 2000, 4000], [1e-3, 2e-3, 4e-3])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert math.isfinite(lo) and math.isfinite(hi)


def test_run_scaling_tiny_sweep():
    cfg = BenchConfig(n_sweep=(500, 1000, 2000), repeats=3)
    rep = run_scaling(cfg, make_rng(0))
    assert len(rep.rows) == 3
    assert [r.n for r in rep.rows] == [500, 1000, 2000]
    for row in rep.rows:
        assert row.median_seconds > 0
        assert math.isfinite(row.median_seconds)
    assert rep.config is cfg
    assert math.isfinite(rep.slope)
    assert rep.slope_ci[0] <= rep.slope <= rep.slope_ci[1]


def test_run_scaling_fits_no_slope_from_two_sizes():
    rep = run_scaling(BenchConfig(n_sweep=(500, 1000), repeats=3), make_rng(2))
    assert len(rep.rows) == 2 and not rep.notes
    assert rep.slope is None and rep.slope_ci is None
    assert [row.slope_running for row in rep.rows] == [None, None]


def test_bench_csv_layout(tmp_path):
    cfg = BenchConfig(n_sweep=(500, 1000), repeats=3)
    rep = run_scaling(cfg, make_rng(1))
    path = tmp_path / "bench.csv"
    write_bench_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,K,I,d,median_seconds,slope_running"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 500
    assert float(first[4]) > 0
