"""Polarity-return coupling statistics.

Covers the minute-level price-impact summaries grouped by polarity sign,
per-stock-day Pearson correlations and their day-over-day distribution
divergence, the market-level polarity-return correlation, per-day Granger
tests with their pass rates, and the join against an external daily
emotion series.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .special import _f_survival

# -- five-number summaries and sign-grouped price impact ----------------------


@dataclass(frozen=True)
class FiveNumberSummary:
    """Box-plot summary: quartiles plus 1.5*IQR fences.

    Observations beyond the fences are excluded from the whiskers but
    counted in ``n_outliers``; nothing is dropped from ``n``.
    """

    q1: float
    median: float
    q3: float
    lower_fence: float
    upper_fence: float
    n: int
    n_outliers: int


def five_number_summary(values) -> FiveNumberSummary | None:
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    if not finite.all():
        v = v[finite]
    if len(v) == 0:
        return None
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    h = q3 - q1
    lo, hi = q1 - 1.5 * h, q3 + 1.5 * h
    outliers = int(((v < lo) | (v > hi)).sum())
    return FiveNumberSummary(float(q1), float(med), float(q3), float(lo), float(hi), len(v), outliers)


GROUPS = ("negative", "zero", "positive")


def price_impact_groups(polarity, log_return) -> dict:
    """Five-number summaries of minute returns, grouped by polarity sign.

    Inputs are aligned arrays with missing minutes already excluded; the
    three groups partition the observations exactly. An empty group maps
    to None.
    """
    p = np.asarray(polarity, dtype=np.float64)
    r = np.asarray(log_return, dtype=np.float64)
    if p.shape != r.shape:
        raise DataError(f"polarity and return lengths differ: {p.shape} vs {r.shape}")
    keep = np.isfinite(p) & np.isfinite(r)
    if not keep.all():
        p, r = p[keep], r[keep]
    return {
        "negative": five_number_summary(r[p < 0]),
        "zero": five_number_summary(r[p == 0]),
        "positive": five_number_summary(r[p > 0]),
    }


# -- Pearson machinery ---------------------------------------------------------


def pearson(x, y) -> float:
    """Plain Pearson r; raises NumericError on degenerate input."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise NumericError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise NumericError(f"need at least 2 observations, got {len(x)}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise NumericError("constant series has no correlation")
    return float(np.corrcoef(x, y)[0, 1])


def stock_day_correlation(polarity_row, return_row, min_bars: int = 30) -> float | None:
    """Pearson r of one stock-day's polarity and log-return, or None.

    Missing when fewer than ``min_bars`` aligned minutes survive or either
    aligned series is constant; below that floor the coefficient is noise.
    """
    p = np.asarray(polarity_row, dtype=np.float64)
    r = np.asarray(return_row, dtype=np.float64)
    keep = np.isfinite(p) & np.isfinite(r)
    if keep.sum() < min_bars:
        return None
    try:
        return pearson(p[keep], r[keep])
    except NumericError:
        return None


def market_correlation(market_polarity, index_pct) -> float:
    """Pearson r over all aligned one-minute market observations."""
    mp = np.asarray(market_polarity, dtype=np.float64).ravel()
    ip = np.asarray(index_pct, dtype=np.float64).ravel()
    if mp.shape != ip.shape:
        raise NumericError(f"series lengths differ: {mp.shape} vs {ip.shape}")
    keep = np.isfinite(mp) & np.isfinite(ip)
    return pearson(mp[keep], ip[keep])


# -- correlation distributions and their divergence ---------------------------


@dataclass(frozen=True)
class CorrDist:
    """One day's per-stock correlation coefficients and smoothed histogram."""

    trade_date: dt.date
    coefficients: np.ndarray
    histogram: np.ndarray
    bin_edges: np.ndarray
    n_stocks: int


def build_corr_dist(
    trade_date: dt.date, coefficients, bins: int = 40, pseudo_count: float = 0.5
) -> CorrDist:
    """Bin coefficients on a fixed [-1, 1] grid with additive smoothing.

    The pseudo-count keeps every bin strictly positive, which the
    divergence below requires to stay finite.
    """
    c = np.asarray([v for v in coefficients if v is not None], dtype=np.float64)
    c = c[np.isfinite(c)]
    if np.any((c < -1) | (c > 1)):
        raise DataError("correlation coefficient outside [-1, 1]")
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(c, bins=edges)
    smoothed = counts + pseudo_count
    return CorrDist(
        trade_date=trade_date,
        coefficients=c,
        histogram=smoothed / smoothed.sum(),
        bin_edges=edges,
        n_stocks=len(c),
    )


def kl_divergence(today: CorrDist, yesterday: CorrDist) -> float:
    """Kullback-Leibler divergence of today's histogram from yesterday's.

    Natural logarithm, summed over bins; grids must match exactly.
    """
    if today.bin_edges.shape != yesterday.bin_edges.shape or not np.array_equal(
        today.bin_edges, yesterday.bin_edges
    ):
        raise DataError("histograms built on different bin grids")
    q_d = today.histogram
    q_y = yesterday.histogram
    mask = q_d > 0
    return float(np.sum(q_d[mask] * np.log(q_d[mask] / q_y[mask])))


# -- per-day Granger tests ------------------------------------------------------

DIRECTIONS = ("polarity->return", "return->polarity")


@dataclass(frozen=True)
class GrangerDayResult:
    trade_date: dt.date
    direction: str
    lag: int
    f_stat: float
    p_value: float
    reject_at_5pct: bool


@dataclass
class GrangerSummary:
    pass_rate: dict = field(default_factory=dict)
    n_tested: int = 0
    results: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def passing(self, direction: str) -> int:
        return sum(1 for r in self.results if r.direction == direction and r.reject_at_5pct)


def _lag_matrix(a: np.ndarray, lag: int) -> np.ndarray:
    T = len(a)
    return np.column_stack([a[lag - i : T - i] for i in range(1, lag + 1)])


def _ols_ssr(X: np.ndarray, y: np.ndarray) -> float | None:
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        return None
    resid = y - X @ coef
    return float(resid @ resid)


def _granger_f(x: np.ndarray, y: np.ndarray, lag: int):
    """F test that x's lags are jointly zero in the y equation."""
    T = len(y)
    df = (T - lag) - (2 * lag + 1)
    if df < 1:
        return None
    yt = y[lag:]
    ones = np.ones((T - lag, 1))
    unrestricted = np.hstack([ones, _lag_matrix(y, lag), _lag_matrix(x, lag)])
    restricted = unrestricted[:, : lag + 1]
    ssr_u = _ols_ssr(unrestricted, yt)
    ssr_r = _ols_ssr(restricted, yt)
    if ssr_u is None or ssr_r is None or ssr_u <= 0:
        return None
    f = ((ssr_r - ssr_u) / lag) / (ssr_u / df)
    # a negative f (ssr_r below ssr_u by rounding) has an upper tail of 1;
    # max keeps a NaN, which gives a NaN p-value
    return float(f), _f_survival(lag, df, max(f, 0.0))


def _bic_lag(x: np.ndarray, y: np.ndarray, max_lag: int) -> int | None:
    """VAR order minimizing the BIC, fitted on the common max_lag sample."""
    T = len(y)
    n = T - max_lag
    ylags = _lag_matrix(y, max_lag)
    xlags = _lag_matrix(x, max_lag)
    yt, xt = y[max_lag:], x[max_lag:]
    ones = np.ones((n, 1))
    best = None
    for lag in range(1, max_lag + 1):
        X = np.hstack([ones, ylags[:, :lag], xlags[:, :lag]])
        resid = []
        singular = False
        for target in (yt, xt):
            coef, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
            if rank < X.shape[1]:
                singular = True
                break
            resid.append(target - X @ coef)
        if singular:
            continue
        cov = np.cov(np.vstack(resid), bias=True)
        det = float(np.linalg.det(cov))
        if det <= 0:
            continue
        k = 2 * (2 * lag + 1)
        bic = np.log(det) + k * np.log(n) / n
        if best is None or bic < best[0]:
            best = (bic, lag)
    return None if best is None else best[1]


def granger_day(
    trade_date: dt.date,
    mp: np.ndarray,
    ret: np.ndarray,
    *,
    max_lag: int = 5,
    alpha: float = 0.05,
    min_minutes: int = 60,
):
    """Both-direction Granger tests for one day.

    Returns (results, skip_reason); a skipped day has results == [] and a
    reason among 'missing', 'short', 'constant', 'collinear'.
    """
    mp = np.asarray(mp, dtype=np.float64)
    ret = np.asarray(ret, dtype=np.float64)
    keep = np.isfinite(mp) & np.isfinite(ret)
    idx = np.nonzero(keep)[0]
    if len(idx) == 0:
        return [], "missing"
    lo, hi = idx[0], idx[-1] + 1
    if not keep[lo:hi].all():
        # interior holes would change the lag structure; edge minutes that
        # are structurally missing (first-minute returns) may be trimmed
        return [], "missing"
    mp, ret = mp[lo:hi], ret[lo:hi]
    if len(mp) - max_lag < min_minutes:
        return [], "short"
    if np.all(mp == mp[0]) or np.all(ret == ret[0]):
        return [], "constant"
    lag = _bic_lag(mp, ret, max_lag)
    if lag is None:
        return [], "collinear"
    results = []
    for direction, (cause, effect) in (
        ("polarity->return", (mp, ret)),
        ("return->polarity", (ret, mp)),
    ):
        out = _granger_f(cause, effect, lag)
        if out is None:
            return [], "collinear"
        f, p = out
        results.append(GrangerDayResult(trade_date, direction, lag, f, p, p < alpha))
    return results, None


def granger_pass_rates(
    days: dict,
    *,
    max_lag: int = 5,
    alpha: float = 0.05,
    min_minutes: int = 60,
) -> GrangerSummary:
    """Per-direction share of days rejecting the Granger null at 5%.

    ``days`` maps date -> (market_polarity, return) minute arrays. Days that
    are too short, constant or collinear are skipped and reported, not
    failed.
    """
    summary = GrangerSummary()
    for date in sorted(days):
        mp, ret = days[date]
        results, reason = granger_day(
            date, mp, ret, max_lag=max_lag, alpha=alpha, min_minutes=min_minutes
        )
        if reason is not None:
            summary.skipped.append((date, reason))
            continue
        summary.n_tested += 1
        summary.results.extend(results)
    for direction in DIRECTIONS:
        summary.pass_rate[direction] = (
            summary.passing(direction) / summary.n_tested if summary.n_tested else float("nan")
        )
    return summary


# -- external emotion series ----------------------------------------------------


def emotion_correlation(daily_polarity: dict, rjf: dict, periods=None) -> dict:
    """Pearson r between daily polarity and the joy-to-fear ratio.

    Joins on dates present in both series with finite values; returns
    {'overall': (r, n_days)}, plus one entry per period label when ``periods``
    (a config Periods) is given. r is None for fewer than 3 joined days.
    """
    joined = sorted(set(daily_polarity) & set(rjf))
    pol = np.array([daily_polarity[d] for d in joined])
    emo = np.array([rjf[d] for d in joined])
    keep = np.isfinite(pol) & np.isfinite(emo)
    pol, emo = pol[keep], emo[keep]
    joined = [d for d, k in zip(joined, keep) if k]

    def corr_and_days(mask) -> tuple:
        n_days = int(mask.sum())
        if n_days < 3:
            return None, n_days
        try:
            return pearson(pol[mask], emo[mask]), n_days
        except NumericError:
            return None, n_days

    out = {"overall": corr_and_days(np.ones(len(joined), dtype=bool))}
    if periods is not None:
        labels = np.array([periods.label(d) for d in joined])
        for name in periods.names():
            out[name] = corr_and_days(labels == name)
    return out
