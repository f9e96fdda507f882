import datetime as dt

import numpy as np
import pytest

from polab.coupling import _granger_f, granger_day, granger_pass_rates
from polab.special import _f_survival
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


# -- the F tail against mpmath ---------------------------------------------------
# _f_survival is computed in decimal and rounded once, so it must give the
# float nearest the exact tail; mpmath at 60 digits is the oracle for that.


def _f_triples(n=5000, seed=20261018):
    """Half with f log-uniform on [1e-8, 1e6], half drawn from F(dfn, dfd)
    and scaled up by up to e^3.5, as Granger statistics land."""
    rng = np.random.default_rng(seed)
    dfn = rng.integers(1, 11, n)
    dfd = rng.integers(1, 401, n)
    f = np.where(
        np.arange(n) % 2 == 0,
        10.0 ** rng.uniform(-8.0, 6.0, n),
        rng.f(dfn, dfd) * np.exp(rng.uniform(0.0, 3.5, n)),
    )
    return list(zip(dfn.tolist(), dfd.tolist(), f.tolist()))


F_TRIPLES = _f_triples()


def mpmath_f_survival(dfn, dfd, f):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(dfd) / (dfd + dfn * mpmath.mpf(f))
        p = mpmath.betainc(mpmath.mpf(dfd) / 2, mpmath.mpf(dfn) / 2, 0, x, regularized=True)
        return float(p)


@pytest.fixture(scope="module")
def f_tails():
    return [_f_survival(*t) for t in F_TRIPLES]


class TestFSurvival:
    def test_triples_reach_the_far_tail(self, f_tails):
        # the set covers the whole range, subnormal tails included
        assert sum(0.0 < p < 1e-300 for p in f_tails) >= 20
        assert sum(p == 0.0 for p in f_tails) and sum(p == 1.0 for p in f_tails)
        assert sum(1e-6 < p < 0.5 for p in f_tails) >= 1000

    def test_correctly_rounded_against_mpmath(self, f_tails):
        want = [mpmath_f_survival(*t) for t in F_TRIPLES]
        wrong = [(t, got, w) for t, got, w in zip(F_TRIPLES, f_tails, want) if got != w]
        assert wrong == []

    def test_more_digits_give_the_same_floats(self, f_tails):
        assert [_f_survival(*t, digits=80) for t in F_TRIPLES] == f_tails

    @pytest.mark.parametrize("dfn", [1, 2, 3, 10])
    @pytest.mark.parametrize("dfd", [1, 2, 57, 230])
    def test_edges_follow_scipy(self, dfn, dfd):
        assert _f_survival(dfn, dfd, 0.0) == 1.0
        assert _f_survival(dfn, dfd, -1e-17) == 1.0
        assert np.isnan(_f_survival(dfn, dfd, float("nan")))
        assert _f_survival(dfn, dfd, float("inf")) == 0.0

    def test_close_to_scipy(self, f_tails):
        # scipy is only the oracle here: Boost's incomplete beta is off by a
        # few ulp (up to a few hundred), and loses the subnormal tail
        special = pytest.importorskip("scipy.special")
        dfn, dfd, f = (np.array(c) for c in zip(*F_TRIPLES))
        want = special.fdtrc(dfn, dfd, f)
        np.testing.assert_allclose(f_tails, want, rtol=1e-12, atol=1e-300)
