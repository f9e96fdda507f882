"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Tolerances are fixed here, not
calibrated elsewhere. Criterion 8 needs the public full dataset and is
skipped unless POLAB_FIGSHARE_DIR points at it; criterion 9 is a reported
throughput figure, not a gate.
"""

import datetime as dt
import functools
import math
import os
import time

import numpy as np
import pytest

from polab import coupling, flips, tailfit
from polab.panel import PolarityPanel
from polab.synth import generate_causal_days, sample_discrete_power_law
from polab.verify import run_oracle_suite


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                label = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
                print(f"\nACCEPTANCE {num} {name}: {label}")
                raise
            print(f"\nACCEPTANCE {num} {name}: PASS")
            return result

        return wrapper

    return deco


@criterion(1, "oracle equivalence of the counting pipeline")
def test_oracle_equivalence_100_scenarios():
    report = run_oracle_suite(n_scenarios=100, seed=20150504)
    assert report.n_scenarios == 100
    for failure in report.failures:
        print("  ", failure)
    assert report.ok
    print(f"  {report.n_rows} rows recounted in {report.seconds:.1f}s")
    assert report.seconds < 60.0


@criterion(2, "worked five-minute flip example")
def test_worked_example_exact():
    row = [0.2, -0.3, -0.4, -0.2, 0.3]
    stats = flips.flip_stats(flips.build_flip_series(row))
    assert stats.flip_count == 2
    assert stats.standardized_flips == 0.4
    assert stats.depth == 1.0
    runs = flips.run_lengths(row)
    sign_names = {1: "positive", -1: "negative"}
    assert [(sign_names[s], n) for _, s, n in runs.tolist()] == [("negative", 3)]


@criterion(3, "discrete power-law recovery at n=1e5")
@pytest.mark.parametrize("alpha,xmin", [(2.0, 1), (3.5, 2), (4.5, 1)])
def test_power_law_recovery(alpha, xmin):
    rng = np.random.default_rng(int(alpha * 100))
    sample = sample_discrete_power_law(alpha, xmin, 100_000, rng)
    started = time.perf_counter()
    fit = tailfit.fit_power_law(sample)
    elapsed = time.perf_counter() - started
    print(f"  alpha={alpha}: estimate {fit.alpha:.4f} +/- {fit.stderr_alpha:.4f} in {elapsed:.1f}s")
    assert abs(fit.alpha - alpha) <= 0.1
    reference = (fit.alpha - 1) / math.sqrt(fit.n_tail)
    assert reference / 2 <= fit.stderr_alpha <= reference * 2
    assert elapsed < 30.0


@criterion(4, "burstiness anchors")
def test_burstiness_anchors():
    assert tailfit.burstiness([7, 7, 7, 7]).b == -1.0
    rng = np.random.default_rng(20150704)
    exp_sample = rng.exponential(1.0, 100_000)
    b = tailfit.burstiness(exp_sample).b
    print(f"  exponential B = {b:+.4f}")
    assert abs(b) <= 0.02


@criterion(5, "divergence identities")
def test_kl_properties():
    d = dt.date(2015, 6, 1)
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = coupling.build_corr_dist(d, rng.uniform(-1, 1, rng.integers(1, 500)))
        assert coupling.kl_divergence(q, q) == 0.0
    for _ in range(1000):
        a = coupling.build_corr_dist(d, rng.uniform(-1, 1, rng.integers(1, 400)))
        b = coupling.build_corr_dist(d, rng.uniform(-1, 1, rng.integers(1, 400)))
        assert coupling.kl_divergence(a, b) >= 0.0
    # two bins, one point mass on each side: smoothed masses (.75,.25) vs
    # (.25,.75), so the divergence is .75*ln3 - .25*ln3 = ln(3)/2
    today = coupling.build_corr_dist(d, [-0.5], bins=2)
    yesterday = coupling.build_corr_dist(d, [0.5], bins=2)
    assert coupling.kl_divergence(today, yesterday) == pytest.approx(
        0.5 * math.log(3.0), abs=1e-12
    )


@criterion(6, "Granger test calibration over 200 synthetic days")
def test_granger_calibration():
    started = time.perf_counter()
    planted = coupling.granger_pass_rates(
        generate_causal_days(200, lag=1, coef=0.8, seed=201)
    )
    noise = coupling.granger_pass_rates(
        generate_causal_days(200, coupled=False, seed=202)
    )
    elapsed = time.perf_counter() - started
    xy = planted.pass_rate["polarity->return"]
    yx = planted.pass_rate["return->polarity"]
    print(
        f"  planted: x->y {xy:.3f}, y->x {yx:.3f}; "
        f"noise: {noise.pass_rate['polarity->return']:.3f} / "
        f"{noise.pass_rate['return->polarity']:.3f}; {elapsed:.1f}s"
    )
    assert xy >= 0.95
    assert yx <= 0.10
    assert noise.pass_rate["polarity->return"] <= 0.10
    assert noise.pass_rate["return->polarity"] <= 0.10
    assert elapsed < 120.0


@criterion(7, "Pearson machinery")
def test_pearson_machinery():
    v = np.linspace(-1, 1, 500) ** 3
    assert coupling.pearson(v, v) == pytest.approx(1.0, abs=1e-12)
    assert coupling.pearson(v, -v) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(7)
    n = 15_000
    rho = -0.7
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    r = coupling.pearson(x, y)
    print(f"  planted rho=-0.7: r = {r:.4f}")
    assert -0.72 <= r <= -0.68


@criterion(8, "full-dataset reproduction (externally gated)")
def test_full_dataset_reproduction():
    root = os.environ.get("POLAB_FIGSHARE_DIR")
    if not root:
        pytest.skip("set POLAB_FIGSHARE_DIR to the downloaded public dataset to enable")
    import json

    from polab.cli import main
    from polab.tables import read_table

    out = os.path.join(root, "polab-out")
    cfg_path = os.path.join(root, "polab-config.json")
    if not os.path.exists(cfg_path):
        pytest.skip(
            "place polab-config.json beside the dataset naming transactions/eod/"
            "intraday paths (README: full-data run)"
        )
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["out_dir"] = out
    patched = os.path.join(root, "polab-config-resolved.json")
    with open(patched, "w") as fh:
        json.dump(cfg, fh)

    assert main(["polarity", "--config", patched]) == 0
    _, cols, rows = read_table(os.path.join(out, "polarity_moments.csv"))
    overall = dict(zip(cols, rows[0]))
    mean, std, kurt = (float(overall[k]) for k in ("mean", "std", "kurtosis_excess"))
    print(f"  moments: mean {mean:.4f}, std {std:.4f}, kurtosis {kurt:.4f}")
    assert abs(mean - 0.08) <= 0.005
    assert abs(std - 0.34) <= 0.01
    assert abs(kurt - -0.12) <= 0.05

    assert main(["market", "--config", patched]) == 0
    _, _, rows = read_table(os.path.join(out, "market_summary.csv"))
    r = float(dict(rows)["pearson_r"])
    print(f"  market polarity vs index return: r = {r:.4f}")
    assert abs(r - -0.72) <= 0.02

    # reported for comparison only: test configuration is under-specified
    assert main(["granger", "--config", patched]) == 0
    _, _, rows = read_table(os.path.join(out, "granger_summary.csv"))
    print(f"  granger pass rates (not asserted): {rows}")
    if cfg.get("emotion"):
        assert main(["emotion", "--config", patched]) == 0
        _, _, rows = read_table(os.path.join(out, "emotion_correlation.csv"))
        print(f"  emotion correlations (not asserted): {rows}")


@criterion(9, "cache-path throughput (reported, non-binding)")
def test_throughput_report(tmp_path):
    from polab.marketdata.cache import write_cache
    from polab.marketdata.parse import iter_transactions
    from polab.marketdata.schema import ParseReport
    from polab.synth import RegimeSpec, generate

    regime = RegimeSpec("dense", buy_rate=11.0, sell_rate=11.0)
    dates = [dt.date(2015, 5, 4), dt.date(2015, 5, 5)]
    files, _ = generate(regime, n_stocks=165, dates=dates, seed=9, out_dir=tmp_path)

    report = ParseReport()
    cache_path = tmp_path / "cache.plab"
    started = time.perf_counter()
    n = write_cache(cache_path, iter_transactions(files.transactions, report=report))
    parse_elapsed = time.perf_counter() - started
    assert n >= 1_000_000  # the synthetic file really is about a million rows
    assert report.malformed_rows == 0
    assert report.parsed_rows == n

    started = time.perf_counter()
    panel = PolarityPanel.from_cache(cache_path)
    cache_elapsed = time.perf_counter() - started
    rate = n / cache_elapsed
    print(
        f"  {n} rows: text parse+cache build {n / parse_elapsed:,.0f} rows/s, "
        f"cache->panel {rate:,.0f} rows/s/core "
        f"({'meets' if rate >= 1e6 else 'misses'} the 1M rows/s/core target)"
    )
    assert panel.buy.sum() > 0
