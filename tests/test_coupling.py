import datetime as dt

import numpy as np
import pytest

from polab.config import Periods
from polab.coupling import (
    build_corr_dist,
    emotion_correlation,
    five_number_summary,
    kl_divergence,
    market_correlation,
    pearson,
    price_impact_groups,
    stock_day_correlation,
)
from polab.errors import DataError, NumericError

D = dt.date(2015, 6, 1)


class TestFiveNumberSummary:
    def test_quartiles_and_fences(self):
        s = five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.q1 == 2.0 and s.median == 3.0 and s.q3 == 4.0
        assert s.lower_fence == pytest.approx(2.0 - 3.0)
        assert s.upper_fence == pytest.approx(4.0 + 3.0)
        assert s.n == 5 and s.n_outliers == 0

    def test_outliers_counted_not_dropped(self):
        values = list(np.linspace(0, 1, 99)) + [50.0]
        s = five_number_summary(values)
        assert s.n == 100
        assert s.n_outliers == 1

    def test_empty_is_none(self):
        assert five_number_summary([]) is None

    def test_non_finite_values_are_left_out(self):
        values = np.array([5.0, np.nan, 1.0, np.inf, 3.0, -np.inf, 2.0, 4.0])
        kept = values.copy()
        assert five_number_summary(values) == five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(values, kept)
        assert five_number_summary([np.nan, np.inf]) is None


class TestPriceImpactGroups:
    def test_all_zero_returns_collapse(self):
        pol = np.array([-0.5, 0.0, 0.5, 0.2, -0.2, 0.0])
        ret = np.zeros(6)
        groups = price_impact_groups(pol, ret)
        for g in ("negative", "zero", "positive"):
            assert groups[g].median == 0.0
            assert groups[g].q3 - groups[g].q1 == 0.0

    def test_single_positive_pair(self):
        groups = price_impact_groups([0.5], [0.01])
        assert groups["positive"].n == 1
        assert groups["positive"].median == pytest.approx(0.01)
        assert groups["negative"] is None and groups["zero"] is None

    def test_group_sizes_conserve_observations(self):
        rng = np.random.default_rng(0)
        pol = rng.choice([-0.4, 0.0, 0.4], 10_000)
        ret = rng.standard_normal(10_000)
        groups = price_impact_groups(pol, ret)
        assert sum(g.n for g in groups.values()) == 10_000
        for sign, mask in (("negative", pol < 0), ("zero", pol == 0), ("positive", pol > 0)):
            assert groups[sign].n == int(mask.sum())

    def test_planted_variance_ratio(self):
        # positive minutes carry twice the return noise of zero minutes
        rng = np.random.default_rng(1)
        n = 100_000
        pol = rng.choice([0.0, 0.5], n)
        sigma = np.where(pol > 0, 2.0, 1.0)
        ret = sigma * rng.standard_normal(n)
        groups = price_impact_groups(pol, ret)
        iqr_pos = groups["positive"].q3 - groups["positive"].q1
        iqr_zero = groups["zero"].q3 - groups["zero"].q1
        assert iqr_pos / iqr_zero == pytest.approx(2.0, rel=0.10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            price_impact_groups([0.1, 0.2], [0.1])


class TestStockDayCorrelation:
    def test_identical_series(self):
        v = np.linspace(-0.5, 0.5, 237)
        assert stock_day_correlation(v, v) == pytest.approx(1.0)

    def test_negated_series(self):
        v = np.linspace(-0.5, 0.5, 237)
        assert stock_day_correlation(v, -v) == pytest.approx(-1.0)

    def test_below_floor_is_missing(self):
        v = np.full(237, np.nan)
        v[:29] = np.linspace(0, 1, 29)
        assert stock_day_correlation(v, v) is None
        v[:30] = np.linspace(0, 1, 30)
        assert stock_day_correlation(v, v) == pytest.approx(1.0)

    def test_constant_series_is_missing(self):
        v = np.linspace(0, 1, 237)
        assert stock_day_correlation(np.full(237, 0.3), v) is None

    def test_alignment_uses_shared_minutes_only(self):
        p = np.full(237, np.nan)
        r = np.full(237, np.nan)
        p[:100] = np.linspace(0, 1, 100)
        r[50:150] = np.linspace(0, 1, 100)
        got = stock_day_correlation(p, r, min_bars=10)
        assert got == pytest.approx(1.0)  # both linear on the 50 shared minutes

    def test_null_distribution(self):
        rng = np.random.default_rng(2)
        rs = []
        for _ in range(10_000):
            r = stock_day_correlation(rng.standard_normal(237), rng.standard_normal(237))
            rs.append(r)
        rs = np.array(rs)
        assert abs(rs.mean()) < 0.01
        assert rs.std() == pytest.approx(1 / np.sqrt(235), rel=0.1)


class TestCorrDist:
    def test_histogram_is_probability_vector(self):
        rng = np.random.default_rng(3)
        dist = build_corr_dist(D, rng.uniform(-1, 1, 500))
        assert abs(dist.histogram.sum() - 1.0) < 1e-12
        assert (dist.histogram > 0).all()

    def test_extreme_coefficients_binned(self):
        dist = build_corr_dist(D, [-1.0, 1.0])
        assert dist.n_stocks == 2
        assert abs(dist.histogram.sum() - 1.0) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            build_corr_dist(D, [1.5])

    def test_none_coefficients_dropped(self):
        dist = build_corr_dist(D, [0.1, None, -0.2])
        assert dist.n_stocks == 2


class TestKlDivergence:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dist = build_corr_dist(D, rng.uniform(-1, 1, 100))
            assert kl_divergence(dist, dist) == 0.0

    def test_two_point_masses_match_reference(self):
        today = build_corr_dist(D, np.full(1000, -0.49))
        yesterday = build_corr_dist(D, np.full(1000, 0.49))

        def reference(counts_d, counts_y, pseudo=0.5):
            qd = counts_d + pseudo
            qd = qd / qd.sum()
            qy = counts_y + pseudo
            qy = qy / qy.sum()
            return float(np.sum(qd * np.log(qd / qy)))

        counts_d = np.zeros(40)
        counts_d[np.digitize(-0.49, today.bin_edges) - 1] = 1000
        counts_y = np.zeros(40)
        counts_y[np.digitize(0.49, today.bin_edges) - 1] = 1000
        assert kl_divergence(today, yesterday) == pytest.approx(
            reference(counts_d, counts_y), abs=1e-12
        )

    def test_concentrated_vs_uniform_strictly_positive(self):
        rng = np.random.default_rng(5)
        concentrated = build_corr_dist(D, np.full(500, 0.0))
        uniform = build_corr_dist(D, rng.uniform(-1, 1, 500))
        assert kl_divergence(concentrated, uniform) > 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = build_corr_dist(D, rng.uniform(-1, 1, rng.integers(1, 300)))
            b = build_corr_dist(D, rng.uniform(-1, 1, rng.integers(1, 300)))
            assert kl_divergence(a, b) >= 0.0

    def test_grid_mismatch_rejected(self):
        a = build_corr_dist(D, [0.1], bins=40)
        b = build_corr_dist(D, [0.1], bins=20)
        with pytest.raises(DataError, match="grid"):
            kl_divergence(a, b)


class TestPearsonMachinery:
    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        base = pearson(x, y)
        assert pearson(3.0 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.5 * y - 7.0) == pytest.approx(base, abs=1e-12)
        assert pearson(-x, y) == pytest.approx(-base, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(NumericError):
            pearson([1.0], [2.0])
        with pytest.raises(NumericError):
            pearson(np.ones(10), np.arange(10))


class TestMarketCorrelation:
    def test_exact_negative_affine_relation(self):
        mp = np.linspace(-0.2, 0.4, 1000)
        idx = -0.05 * mp + 0.001
        assert market_correlation(mp, idx) == pytest.approx(-1.0)

    def test_planted_rho(self):
        rng = np.random.default_rng(8)
        n = 15_000
        rho = -0.7
        x = rng.standard_normal(n)
        y = rho * x + np.sqrt(1 - rho**2) * rng.standard_normal(n)
        r = market_correlation(x, y)
        assert -0.72 <= r <= -0.68

    def test_nan_minutes_dropped_pairwise(self):
        mp = np.array([0.1, np.nan, 0.3, 0.5])
        idx = np.array([-0.1, -0.2, np.nan, -0.5])
        assert market_correlation(mp, idx) == pytest.approx(-1.0)

    def test_degenerate(self):
        with pytest.raises(NumericError):
            market_correlation(np.ones(100), np.arange(100.0))


class TestEmotionCorrelation:
    def make_daily(self, values, start=dt.date(2015, 5, 4)):
        return {start + dt.timedelta(days=i): v for i, v in enumerate(values)}

    def test_monotone_negative_relation(self):
        rng = np.random.default_rng(9)
        pol = rng.uniform(-0.5, 0.5, 64)
        daily = self.make_daily(pol)
        rjf = {d: float(np.exp(-p)) for d, p in daily.items()}
        r, n_days = emotion_correlation(daily, rjf)["overall"]
        assert r < -0.9 and n_days == 64

    def test_planted_linear_relation_at_n60(self):
        rng = np.random.default_rng(10)
        pol = rng.standard_normal(60)
        noise = rng.standard_normal(60)
        rho = -0.4
        emo = rho * pol + np.sqrt(1 - rho**2) * noise
        daily = self.make_daily(pol)
        rjf = {d: float(v) + 10.0 for d, v in zip(sorted(daily), emo)}
        r, n_days = emotion_correlation(daily, rjf)["overall"]
        assert -0.6 <= r <= -0.2 and n_days == 60

    def test_period_split_and_small_period_missing(self):
        periods = Periods(dt.date(2015, 6, 12), dt.date(2015, 7, 7))
        daily = {}
        d = dt.date(2015, 5, 4)
        rng = np.random.default_rng(11)
        while d <= dt.date(2015, 6, 12):
            daily[d] = float(rng.uniform(-0.5, 0.5))
            d += dt.timedelta(days=1)
        daily[dt.date(2015, 6, 15)] = 0.1  # a lone crash-period day
        rjf = {day: float(np.exp(-v)) for day, v in daily.items()}
        out = emotion_correlation(daily, rjf, periods)
        assert out["pre-crash"][0] < 0 and out["pre-crash"][1] == 40
        assert out["crash"] == (None, 1)  # fewer than 3 joined days
        assert out["post-crash"] == (None, 0)
        assert out["overall"][1] == 41

    def test_join_ignores_unmatched_dates(self):
        daily = self.make_daily([0.1, 0.2, 0.3, 0.4])
        rjf = {list(daily)[0]: 1.0}  # single overlapping day
        assert emotion_correlation(daily, rjf) == {"overall": (None, 1)}

    def test_non_finite_polarity_is_left_out_of_the_join(self):
        daily = self.make_daily([0.1, float("nan"), 0.3, 0.4, 0.2])
        rjf = {d: 1.0 + v for d, v in zip(daily, (0.5, 0.1, 0.4, 0.2, 0.3))}
        r, n_days = emotion_correlation(daily, rjf)["overall"]
        assert n_days == 4
        kept = [d for d, v in daily.items() if np.isfinite(v)]
        want = np.corrcoef([daily[d] for d in kept], [rjf[d] for d in kept])[0, 1]
        assert r == pytest.approx(want)
