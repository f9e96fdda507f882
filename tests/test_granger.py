import datetime as dt

import numpy as np
import pytest

from polab.coupling import _granger_f, granger_day, granger_pass_rates
from polab.synth import generate_causal_days

D = dt.date(2015, 5, 4)


def reference_granger(x, y, lag):
    """Granger's (1969) F test that x's lags add nothing to y's own lags.

    An independent check of ``_granger_f``: both regressions are solved from
    their normal equations, with the design matrices written out row by row,
    and the p-value comes from ``scipy.stats.f``.
    """
    from scipy import stats

    T = len(y)
    target = np.array([y[t] for t in range(lag, T)])

    def ssr(with_x):
        rows = []
        for t in range(lag, T):
            row = [1.0] + [y[t - k] for k in range(1, lag + 1)]
            if with_x:
                row += [x[t - k] for k in range(1, lag + 1)]
            rows.append(row)
        X = np.array(rows)
        beta = np.linalg.solve(X.T @ X, X.T @ target)
        resid = target - X @ beta
        return float(resid @ resid)

    df = (T - lag) - (2 * lag + 1)
    f = ((ssr(False) - ssr(True)) / lag) / (ssr(True) / df)
    return f, float(stats.f.sf(f, lag, df))


REFERENCE_DAYS = {
    "coupled lag 1": generate_causal_days(3, lag=1, coef=0.8, seed=11),
    "coupled lag 2": generate_causal_days(3, lag=2, coef=0.5, seed=12),
    "white noise": generate_causal_days(6, coupled=False, seed=13),
}


class TestGrangerDay:
    def test_planted_coupling_detected(self):
        days = generate_causal_days(1, lag=1, coef=0.8, seed=0)
        (x, y), = days.values()
        results, reason = granger_day(D, x, y)
        assert reason is None
        by_dir = {r.direction: r for r in results}
        assert by_dir["polarity->return"].reject_at_5pct
        assert by_dir["polarity->return"].p_value < 1e-6

    def test_constant_series_skipped(self):
        results, reason = granger_day(D, np.ones(237), np.arange(237.0))
        assert results == [] and reason == "constant"

    def test_short_day_skipped(self):
        rng = np.random.default_rng(1)
        results, reason = granger_day(D, rng.standard_normal(50), rng.standard_normal(50))
        assert results == [] and reason == "short"

    def test_interior_missing_minute_skips_day(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(237)
        y = rng.standard_normal(237)
        x[100] = np.nan
        results, reason = granger_day(D, x, y)
        assert results == [] and reason == "missing"

    def test_structural_edge_nans_are_trimmed(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(237)
        y = rng.standard_normal(237)
        x[0] = np.nan  # first-minute return is structurally absent
        y[-1] = np.nan
        results, reason = granger_day(D, x, y)
        assert reason is None and len(results) == 2

    def test_rescaling_leaves_f_statistic_unchanged(self):
        days = generate_causal_days(1, lag=2, coef=0.5, seed=4)
        (x, y), = days.values()
        base, _ = granger_day(D, x, y)
        scaled, _ = granger_day(D, 1000.0 * x, 0.001 * y)
        for a, b in zip(base, scaled):
            assert a.f_stat == pytest.approx(b.f_stat, rel=1e-9)
            assert a.lag == b.lag

    def test_matches_statsmodels_ssr_ftest(self):
        import warnings

        sm = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(5)
        x = rng.standard_normal(237)
        y = np.roll(x, 1) * 0.5 + rng.standard_normal(237)
        y[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FutureWarning)
            table = sm.grangercausalitytests(np.column_stack([y, x]), maxlag=3, verbose=False)
        for lag in (1, 2, 3):
            f, p = _granger_f(x, y, lag)
            want_f, want_p, _, _ = table[lag][0]["ssr_ftest"]
            assert f == pytest.approx(want_f, rel=1e-9)
            assert p == pytest.approx(want_p, rel=1e-9)


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_DAYS))
    def test_f_and_p_match_normal_equations(self, name):
        for x, y in REFERENCE_DAYS[name].values():
            for cause, effect in ((x, y), (y, x)):
                for lag in (1, 2, 3, 5):
                    f, p = _granger_f(cause, effect, lag)
                    want_f, want_p = reference_granger(cause, effect, lag)
                    assert f == pytest.approx(want_f, rel=1e-9)
                    assert p == pytest.approx(want_p, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DAYS))
    def test_granger_day_reports_the_reference_test(self, name):
        for day, (x, y) in REFERENCE_DAYS[name].items():
            results, reason = granger_day(day, x, y)
            assert reason is None and len(results) == 2
            by_dir = {r.direction: r for r in results}
            for direction, (cause, effect) in (
                ("polarity->return", (x, y)),
                ("return->polarity", (y, x)),
            ):
                got = by_dir[direction]
                want_f, want_p = reference_granger(cause, effect, got.lag)
                assert got.f_stat == pytest.approx(want_f, rel=1e-9)
                assert got.p_value == pytest.approx(want_p, rel=1e-9, abs=1e-300)
                assert got.reject_at_5pct == (want_p < 0.05)

    def test_reference_sees_the_planted_coupling(self):
        # guards the reference itself: it must find the planted direction
        (x, y), = generate_causal_days(1, lag=1, coef=0.8, seed=0).values()
        assert reference_granger(x, y, 1)[1] < 1e-6
        assert reference_granger(y, x, 1)[1] > 1e-3


class TestPassRates:
    def test_planted_direction_dominates(self):
        days = generate_causal_days(60, lag=1, coef=0.8, seed=6)
        summary = granger_pass_rates(days)
        assert summary.n_tested == 60
        assert summary.pass_rate["polarity->return"] >= 0.95
        assert summary.pass_rate["return->polarity"] <= 0.10

    def test_white_noise_calibrates_to_size(self):
        days = generate_causal_days(100, coupled=False, seed=7)
        summary = granger_pass_rates(days)
        assert summary.pass_rate["polarity->return"] <= 0.10
        assert summary.pass_rate["return->polarity"] <= 0.10

    def test_skipped_days_reported_not_failed(self):
        days = generate_causal_days(5, lag=1, coef=0.8, seed=8)
        bad_day = dt.date(2015, 4, 1)
        days[bad_day] = (np.ones(237), np.ones(237))
        summary = granger_pass_rates(days)
        assert summary.n_tested == 5
        assert (bad_day, "constant") in summary.skipped

    def test_lag_two_coupling_found_by_bic(self):
        days = generate_causal_days(40, lag=2, coef=0.9, seed=9)
        summary = granger_pass_rates(days, max_lag=5)
        lags = [r.lag for r in summary.results if r.direction == "polarity->return"]
        assert np.median(lags) == 2
        assert summary.pass_rate["polarity->return"] >= 0.9
