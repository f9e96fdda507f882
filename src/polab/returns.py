"""Return series used throughout the pipeline.

Three measures per instrument: the daily percentage change of the close
versus the prior close (what trading boards display), the within-day
one-minute log-return, and the intraday percentage change versus the prior
close (the index-style board change). The first trading day of a sample has
no daily return; an intraday return is missing whenever either price it
needs is missing.
"""

from __future__ import annotations

import datetime as dt
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .marketdata.grid import BARS_PER_DAY

#: Mainland A-shares move at most 10% a day; values this close to the band
#: are treated as limit hits (flagged, never rejected).
LIMIT_BAND_LOW = 0.0995
LIMIT_BAND_HIGH = 0.1005


@dataclass
class ReturnSeries:
    series_id: str
    dates: list
    daily_pct: dict = field(default_factory=dict)
    at_limit: frozenset = frozenset()
    intraday_log: dict = field(default_factory=dict)
    intraday_pct_vs_prev_close: dict = field(default_factory=dict)


def log_returns_in_place(prices: np.ndarray) -> np.ndarray:
    """Overwrite last prices (NaN where untraded), one day of 237 bars
    along the last axis, with their one-minute log-returns; returns
    ``prices``. Bar 1 and every bar next to an untraded minute are NaN."""
    with np.errstate(invalid="ignore"):
        np.log(prices, out=prices)
    # numpy buffers the overlapping operands, so each bar sees the
    # previous bar's log price, not its log-return
    np.subtract(prices[..., 1:], prices[..., :-1], out=prices[..., 1:])
    prices[..., 0] = np.nan
    return prices


def build_return_series(series_id: str, eod: dict, intraday: dict | None = None) -> ReturnSeries:
    """Assemble a ReturnSeries from close prices and optional intraday lasts.

    ``eod`` maps date -> close; ``intraday`` maps date -> ndarray(237) of
    last prices with NaN for untraded minutes. A non-positive price, or an
    intraday day of another shape, is a hard error naming the record.
    """
    for d, close in eod.items():
        if not close > 0:
            raise DataError(f"non-positive close for {series_id} on {d}: {close}")
    intraday = {
        d: np.asarray(arr, dtype=np.float64) for d, arr in (intraday or {}).items()
    }
    for d, arr in intraday.items():
        if arr.shape != (BARS_PER_DAY,):
            raise DataError(
                f"intraday series for {series_id} on {d} has shape {arr.shape}, "
                f"expected ({BARS_PER_DAY},)"
            )
        bad = np.nonzero(~np.isnan(arr) & (arr <= 0))[0]
        if len(bad):
            raise DataError(
                f"non-positive last price for {series_id} on {d} bar {bad[0] + 1}"
            )
    intraday_log = {d: log_returns_in_place(arr.copy()) for d, arr in intraday.items()}

    eod_dates = sorted(eod)
    all_dates = sorted(set(eod) | set(intraday))

    daily_pct: dict[dt.date, float] = {}
    at_limit = set()
    for prev, cur in zip(eod_dates, eod_dates[1:]):
        pct = eod[cur] / eod[prev] - 1.0
        daily_pct[cur] = pct
        if abs(pct) >= LIMIT_BAND_LOW:
            at_limit.add(cur)
            if abs(pct) > LIMIT_BAND_HIGH:
                print(
                    f"{series_id} moved {pct:.4f} on {cur}, beyond the +/-10% daily band",
                    file=sys.stderr,
                )

    prev_close: dict[dt.date, float] = {}
    for prev, cur in zip(eod_dates, eod_dates[1:]):
        prev_close[cur] = eod[prev]
    # intraday-only dates still get a prior close when one exists before them
    for d in intraday:
        if d not in prev_close:
            earlier = [e for e in eod_dates if e < d]
            if earlier:
                prev_close[d] = eod[earlier[-1]]

    intraday_pct: dict[dt.date, np.ndarray] = {}
    for d, arr in intraday.items():
        base = prev_close.get(d, math.nan)
        intraday_pct[d] = arr / base - 1.0 if not math.isnan(base) else np.full(BARS_PER_DAY, np.nan)

    return ReturnSeries(
        series_id=series_id,
        dates=all_dates,
        daily_pct=daily_pct,
        at_limit=frozenset(at_limit),
        intraday_log=intraday_log,
        intraday_pct_vs_prev_close=intraday_pct,
    )
