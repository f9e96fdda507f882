"""Discrete power-law fits and burstiness of run-length samples.

The fit follows the standard tail-estimation recipe for integer data
(Clauset, Shalizi & Newman 2009): for each candidate lower cutoff, estimate
the exponent by maximizing the discrete likelihood (Hurwitz-zeta
normalization), then keep the cutoff whose fitted tail is closest to the
empirical one in Kolmogorov-Smirnov distance. Run lengths are integer
minutes, so the continuous-support variant is never used here.

Burstiness is computed on the raw empirical lengths; a tail-only variant
(restricted to the fitted cutoff) exists for sensitivity checks.

The Hurwitz zeta and the bounded 1-D minimiser the fit needs are scalar
ports of scipy's in ``polab.special``; they give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitRefusedError
from .special import _minimize_bounded, _zeta

_ALPHA_LO = 1.000001
_ALPHA_HI = 25.0


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    xmin: int
    stderr_alpha: float
    ks_distance: float
    n_tail: int
    n_total: int


@dataclass(frozen=True)
class BurstinessResult:
    b: float
    mean_tau: float
    std_tau: float
    n: int


def _alpha_mle(tail: np.ndarray, xmin: int) -> float:
    n = len(tail)
    slog = float(np.log(tail).sum())

    def nll(a):
        return float(n * np.log(_zeta(a, xmin)) + a * slog)

    return _minimize_bounded(nll, _ALPHA_LO, _ALPHA_HI, xatol=1e-8)


def _ks_distance(tail_sorted: np.ndarray, alpha: float, xmin: int) -> float:
    """Sup distance between empirical and fitted tail CDFs on integer support.

    The empirical CDF is flat between observed values while the fitted one
    rises, so on each flat stretch the sup is attained at its ends: at an
    observed value or just below the next one. Only those points are
    evaluated, however long the range.
    """
    vals = np.unique(tail_sorted)
    xs = np.unique(np.concatenate([vals, vals - 1]))
    xs = xs[xs >= xmin].astype(np.float64)
    z = _zeta(alpha, xmin)
    fitted = 1.0 - np.array([_zeta(alpha, x + 1.0) for x in xs.tolist()]) / z
    empirical = np.searchsorted(tail_sorted, xs, side="right") / len(tail_sorted)
    return float(np.abs(empirical - fitted).max())


def _stderr_alpha(alpha: float, xmin: int, n_tail: int) -> float:
    """Asymptotic MLE standard error from the observed information."""
    h = 1e-4
    lz = lambda a: np.log(_zeta(a, xmin))
    d2 = (lz(alpha + h) - 2.0 * lz(alpha) + lz(alpha - h)) / (h * h)
    if d2 <= 0:
        return float("nan")
    return float(1.0 / np.sqrt(n_tail * d2))


def fit_power_law(
    lengths,
    *,
    min_samples: int = 50,
    min_tail: int = 10,
    xmin_quantile: float = 90.0,
) -> PowerLawFit:
    """Fit a discrete power law to a multiset of positive integer lengths.

    The cutoff scan covers the distinct observed values up to the given
    percentile; candidates whose tail is too small or degenerate are
    skipped. Ties in KS distance resolve to the smaller cutoff. Raises
    FitRefusedError with the reason when no sound fit exists.
    """
    x = np.asarray(lengths, dtype=np.int64)
    n_total = len(x)
    if n_total < min_samples:
        raise FitRefusedError(f"too few samples: {n_total} < {min_samples}")
    if np.any(x < 1):
        raise FitRefusedError("lengths must be positive integers")
    distinct = np.unique(x)
    if len(distinct) == 1:
        raise FitRefusedError(f"degenerate input: all values equal {distinct[0]}")

    x_sorted = np.sort(x)
    cap = np.percentile(x_sorted, xmin_quantile)
    candidates = distinct[distinct <= cap]
    if len(candidates) == 0:
        candidates = distinct[:1]

    best = None
    for xm in candidates:
        lo = np.searchsorted(x_sorted, xm, side="left")
        tail = x_sorted[lo:]
        if len(tail) < min_tail or tail[0] == tail[-1]:
            continue
        alpha = _alpha_mle(tail, int(xm))
        ks = _ks_distance(tail, alpha, int(xm))
        if best is None or ks < best[0]:
            best = (ks, int(xm), alpha, len(tail))
    if best is None:
        raise FitRefusedError(
            f"no viable cutoff: every candidate tail is below {min_tail} samples or degenerate"
        )
    ks, xmin, alpha, n_tail = best
    return PowerLawFit(
        alpha=alpha,
        xmin=xmin,
        stderr_alpha=_stderr_alpha(alpha, xmin, n_tail),
        ks_distance=ks,
        n_tail=n_tail,
        n_total=n_total,
    )


def burstiness(lengths) -> BurstinessResult | None:
    """B = (std - mean) / (std + mean) of the raw lengths; None when empty.

    Uses the sample standard deviation (n-1 denominator); a single sample
    has zero spread, hence B = -1 like any constant sequence.
    """
    x = np.asarray(lengths, dtype=np.float64)
    n = len(x)
    if n == 0:
        return None
    mean = float(x.mean())
    std = float(x.std(ddof=1)) if n > 1 else 0.0
    return BurstinessResult(b=(std - mean) / (std + mean), mean_tau=mean, std_tau=std, n=n)
