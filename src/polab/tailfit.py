"""Discrete power-law fits and burstiness of run-length samples.

The fit follows the standard tail-estimation recipe for integer data
(Clauset, Shalizi & Newman 2009): for each candidate lower cutoff, estimate
the exponent by maximizing the discrete likelihood (Hurwitz-zeta
normalization), then keep the cutoff whose fitted tail is closest to the
empirical one in Kolmogorov-Smirnov distance. Run lengths are integer
minutes, so the continuous-support variant is never used here.

Burstiness is computed on the raw empirical lengths; a tail-only variant
(restricted to the fitted cutoff) exists for sensitivity checks.

The fit needs one special function and one bounded 1-D minimiser, so both
live here as scalar ports of scipy's: ``_zeta`` of the cephes Hurwitz zeta
behind ``scipy.special.zeta`` and ``_minimize_bounded`` of
``scipy.optimize.minimize_scalar(method="bounded")``. They give the same
bits, and a ``fit`` run does not pay the half second that importing
``scipy.optimize`` takes. The zeta port raises Python floats to powers with
``**`` (the C library's ``pow``), as cephes does: NumPy's vectorised
``power`` may round differently in the last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitRefusedError

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


#: machine epsilon of cephes (2**-53) and the Euler-Maclaurin coefficients
#: (2k)! / B_2k of its Hurwitz zeta
_MACHEP = 1.11022302462515654042e-16
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k + q)**-x for x > 1 and q >= 1.

    A line-for-line port of cephes ``zeta``: direct summation until the
    terms vanish or pass q + 9, then the Euler-Maclaurin tail; above
    q = 1e8 the leading terms of the asymptotic expansion (DLMF 25.11.43).
    """
    x, q = float(x), float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    nx = -x
    s = q**nx
    a = q
    b = 0.0
    i = 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**nx
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _minimize_bounded(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> float:
    """Brent's bounded minimisation of ``func`` on [lo, hi]: golden-section
    steps with parabolic interpolation where it is acceptable. A port of
    scipy's ``_minimize_scalar_bounded`` that returns only the minimiser."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def _sign_or_one(v: float) -> int:
    """sign(v), with 1 at zero (scipy's ``np.sign(v) + (v == 0)``)."""
    return -1 if v < 0 else 1


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
