"""Per-stock, per-minute trading polarity from man-times counts.

A man-times count is the number of distinct order serials on one side of
the trades inside one bar: the minimal trading decision unit the feed can
resolve without trader identities. Polarity is the normalized difference
(buy - sell) / (buy + sell), so a minute with no trades has no polarity
(missing), while balanced non-zero activity gives exactly zero. The panel
holds the counts alone, in the narrowest unsigned type that holds its
largest count (uint8, uint16 or uint32): each reader derives polarity from
them where it reads it, one stock (or one column) at a time, with
``derive_polarity``, which widens them to float64 first.

By default a serial trading in several minutes counts once in each
(``serial_scope="bar"``). The alternative ``"day"`` scope counts each
serial once per day, in the earliest on-grid minute it traded in, which is
the minute of its first fill; it exists for sensitivity analysis only.

A feed reaches the panel only through a cache: ``from_transactions`` writes
the feed to a temporary one and builds from that. The cache's writer makes
the counts of both scopes, and a cache block holds, for each bar of its
(stock, day) with any on-grid row, that bar and its counts (see
``polab.marketdata.cache``). ``from_cache`` reads the blocks, which checks
the cache against its CRC-32, keeps the chosen scope's counts of each, and
scatters them into the dense panel once the axes are known.
"""

from __future__ import annotations

import datetime as dt
import os
import tempfile
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .marketdata import cache as cache_mod
from .marketdata.grid import BARS_PER_DAY
from .marketdata.parse import iter_transactions
from .marketdata.schema import DEFAULT_SCHEMA, ParseReport
from .tables import quote

#: grid cells per slice of stocks that ``write_text`` formats at once
_WRITE_CELLS = 1 << 12

#: days whose cells ``_grid`` gathers into one slice of flat arrays; a day
#: waiting to be gathered holds its whole block, a few hundred bytes of
#: objects on a thin day, so slices stay short
_GRID_DAYS = 1 << 8


def polarity(buy: int, sell: int) -> float | None:
    """(buy - sell) / (buy + sell); None when the minute had no activity."""
    total = buy + sell
    if total == 0:
        return None
    return (buy - sell) / total


def _count_dtype(largest: int) -> np.dtype:
    """The type a panel holds its counts in: the narrowest unsigned type
    that holds ``largest``, its largest count (uint8 for an empty panel)."""
    return np.min_scalar_type(largest)


def derive_polarity(buy: np.ndarray, sell: np.ndarray) -> np.ndarray:
    """``polarity`` over count arrays: float64, NaN where both counts are 0."""
    # in float64, where counts and their sum are exact: a narrow buy + sell
    # wraps past the type's largest value
    total = buy.astype(np.float64)
    total += sell
    p = buy.astype(np.float64)
    p -= sell
    with np.errstate(invalid="ignore", divide="ignore"):
        p /= total
    p[total == 0] = np.nan
    return p


@dataclass(frozen=True)
class DirectionRatios:
    """Shares of positive / negative / zero polarity minutes for one stock."""

    stock_id: str
    period: str
    pos_ratio: float
    neg_ratio: float
    zero_ratio: float
    n: int


class PolarityPanel:
    """Dense (stock, date, bar) man-times counts.

    ``buy`` and ``sell`` are arrays of shape (n_stocks, n_dates, 237), and
    they are all the panel holds. A built panel holds them in the narrowest
    unsigned type that holds its largest count (``_count_dtype``), so every
    reader widens them before it adds or divides. Polarity is derived where
    it is read, a stock at a time (``stock_polarity``), so no reader holds a
    float copy of the whole panel. Read-only once built; queries are safe to
    run concurrently.
    """

    def __init__(self, stocks, dates, buy, sell):
        self.stocks = list(stocks)
        self.dates = list(dates)
        self.buy = buy
        self.sell = sell
        self._stock_idx = {s: i for i, s in enumerate(self.stocks)}
        self._date_idx = {d: j for j, d in enumerate(self.dates)}

    def stock_index(self, stock_id: str) -> int:
        try:
            return self._stock_idx[stock_id]
        except KeyError:
            raise KeyError(f"stock {stock_id!r} not in panel") from None

    def date_index(self, date: dt.date) -> int:
        try:
            return self._date_idx[date]
        except KeyError:
            raise KeyError(f"date {date} not in panel") from None

    def cell(self, stock_id: str, date: dt.date, bar: int):
        """(buy, sell, polarity-or-None) for one minute."""
        i, j = self.stock_index(stock_id), self.date_index(date)
        b = int(self.buy[i, j, bar - 1])
        s = int(self.sell[i, j, bar - 1])
        return b, s, polarity(b, s)

    def stock_polarity(self, i: int, cols=slice(None)) -> np.ndarray:
        """Stock ``i``'s polarity on the dates ``cols``, NaN where missing."""
        return derive_polarity(self.buy[i, cols], self.sell[i, cols])

    def row(self, stock_id: str, date: dt.date) -> np.ndarray:
        """One stock-day of polarity values, shape (237,), NaN where missing."""
        return self.stock_polarity(self.stock_index(stock_id), self.date_index(date))

    def iter_stock_days(self) -> Iterator[tuple[str, dt.date, np.ndarray]]:
        """(stock, date, polarity row) in stock, then date order; each
        stock's rows are derived together."""
        for i, stock in enumerate(self.stocks):
            for date, row in zip(self.dates, self.stock_polarity(i)):
                yield stock, date, row

    def active_cells(self) -> dict:
        """{(stock, date, bar): (buy, sell)} over minutes with any activity."""
        out = {}
        idx = np.nonzero((self.buy != 0) | (self.sell != 0))
        for i, j, k in zip(*idx):
            out[(self.stocks[i], self.dates[j], int(k) + 1)] = (
                int(self.buy[i, j, k]),
                int(self.sell[i, j, k]),
            )
        return out

    def equals(self, other: "PolarityPanel") -> bool:
        """Cell-for-cell equality of active cells (axis order may differ)."""
        return self.active_cells() == other.active_cells()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_transactions(
        cls,
        path,
        schema=DEFAULT_SCHEMA,
        *,
        serial_scope: str = "bar",
        malformed_threshold: float = 0.001,
        report: ParseReport | None = None,
    ) -> "PolarityPanel":
        """The panel of a text feed, by way of a cache in a temporary directory."""
        chunks = iter_transactions(
            path, schema, report=report, malformed_threshold=malformed_threshold
        )
        with tempfile.TemporaryDirectory(prefix="polab-") as tmp:
            cache = os.path.join(tmp, "feed.plab")
            cache_mod.write_cache(cache, chunks)
            return cls.from_cache(cache, serial_scope=serial_scope)

    @classmethod
    def from_cache(cls, path, *, serial_scope: str = "bar") -> "PolarityPanel":
        """The panel of the cache at ``path``, in ``serial_scope``'s counts."""
        if serial_scope not in ("bar", "day"):
            raise ValueError(f"serial_scope must be 'bar' or 'day', got {serial_scope!r}")
        side = slice(2, 4) if serial_scope == "day" else slice(0, 2)
        return _grid((blk.stock_id, blk.trade_date, blk.bar, blk.counts[:, side])
                     for blk in cache_mod.iter_blocks(path))

    # -- export ------------------------------------------------------------

    def write_text(self, path) -> None:
        """Minutes with activity as comma-separated (stock, date, bar, buy,
        sell, polarity); a no-trade minute has no row. A stock id is quoted
        as ``tables.quote`` quotes it."""
        days = [f"{quote(stock)},{date.isoformat()}," for stock in self.stocks for date in self.dates]
        bars = [f"{k + 1}," for k in range(BARS_PER_DAY)]
        # what follows a cell's bar depends only on its (buy, sell) pair, so
        # each distinct pair is formatted once
        tails = {}
        n_dates = len(self.dates)
        # stocks go out in slices of about _WRITE_CELLS grid cells, which
        # bounds the per-cell strings held at once
        step = max(1, _WRITE_CELLS // max(1, n_dates * BARS_PER_DAY))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("stock_id,date,bar,buy,sell,polarity\n")
            for lo in range(0, len(self.stocks), step):
                buy, sell = self.buy[lo : lo + step], self.sell[lo : lo + step]
                i, j, k = np.nonzero((buy != 0) | (sell != 0))
                pairs = (buy[i, j, k].astype(np.int64) << 32 | sell[i, j, k]).tolist()
                for pair in set(pairs).difference(tails):
                    b, s = pair >> 32, pair & 0xFFFFFFFF
                    p = polarity(b, s)
                    tails[pair] = f"{b},{s},{'NA' if p is None else format(p, '.12g')}\n"
                rows = zip(((i + lo) * n_dates + j).tolist(), k.tolist(), pairs)
                fh.write("".join([f"{days[day]}{bars[bar]}{tails[pair]}" for day, bar, pair in rows]))


def _grid(days) -> PolarityPanel:
    """The panel of ``days``, each a distinct (stock, date) with the bars of
    the day that have activity and their buy and sell counts, shape
    (bars, 2). As they arrive, every ``_GRID_DAYS`` days' cells are gathered
    into flat arrays, so nothing of a day outlives its slice. Once the axes
    are known and sorted, each slice is scattered into place in
    ``_count_dtype`` of the largest count."""
    keys, slices, days = [], [], iter(days)
    while part := list(islice(days, _GRID_DAYS)):
        keys += [(stock, date) for stock, date, _, _ in part]
        slices.append((np.concatenate([bar for _, _, bar, _ in part]),
                       np.concatenate([count for _, _, _, count in part]),
                       [len(bar) for _, _, bar, _ in part]))
    stocks = sorted({stock for stock, _ in keys})
    dates = sorted({date for _, date in keys})
    sidx = {s: i for i, s in enumerate(stocks)}
    didx = {d: j for j, d in enumerate(dates)}
    # each day's place in the flat (stock, date, bar) grid, less bar 1's
    base = np.array([(sidx[s] * len(dates) + didx[d]) * BARS_PER_DAY - 1 for s, d in keys], np.intp)
    largest = max((int(count.max(initial=0)) for _, count, _ in slices), default=0)
    grid = np.zeros((2, len(stocks) * len(dates) * BARS_PER_DAY), _count_dtype(largest))
    lo = 0
    for bar, count, sizes in slices:
        at = np.repeat(base[lo : lo + len(sizes)], sizes)
        at += bar
        grid[:, at] = count.T
        lo += len(sizes)
    return PolarityPanel(stocks, dates, *grid.reshape(2, len(stocks), len(dates), BARS_PER_DAY))


# -- aggregate statistics ----------------------------------------------------


def direction_ratios(
    stock_id: str, pol: np.ndarray, period: str = "all"
) -> DirectionRatios | None:
    """Positive/negative/zero minute shares over the finite values of ``pol``,
    the stock's polarity over the period.

    Returns None when the stock has no non-missing cell in the period.
    """
    vals = pol[np.isfinite(pol)]
    n = len(vals)
    if n == 0:
        return None
    pos = int((vals > 0).sum())
    neg = int((vals < 0).sum())
    zero = n - pos - neg
    return DirectionRatios(stock_id, period, pos / n, neg / n, zero / n, n)


def market_polarity_series(panel: PolarityPanel) -> np.ndarray:
    """Market polarity for every (date, bar); shape (n_dates, 237), NaN if no stock."""
    counts = np.zeros((len(panel.dates), BARS_PER_DAY), dtype=np.int64)
    sums = np.zeros(counts.shape)
    # stock by stock, as np.nansum over the stock axis adds them
    for i in range(len(panel.stocks)):
        pol = panel.stock_polarity(i)
        finite = np.isfinite(pol)
        counts += finite
        pol[~finite] = 0.0
        sums += pol
    return np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)


def daily_polarity_at_index_min(mp: np.ndarray, dates, index_returns) -> list:
    """(date, bar, market polarity) for each of ``dates`` on which the index
    has a finite change vs prior close, read from ``mp``, the
    ``market_polarity_series`` of the panel whose dates those are.

    ``bar`` is the minute of the day's lowest index change, the earliest on
    ties; a date with no finite change is left out.
    """
    rows = []
    for j, date in enumerate(dates):
        pct = index_returns.intraday_pct_vs_prev_close.get(date)
        if pct is None or not np.isfinite(pct).any():
            continue
        bar = int(np.nanargmin(pct)) + 1
        rows.append((date, bar, mp[j, bar - 1]))
    return rows
