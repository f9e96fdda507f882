"""Per-stock, per-minute trading polarity from man-times counts.

A man-times count is the number of distinct order serials on one side of
the trades inside one bar: the minimal trading decision unit the feed can
resolve without trader identities. Polarity is the normalized difference
(buy - sell) / (buy + sell), so a minute with no trades has no polarity
(missing), while balanced non-zero activity gives exactly zero.

By default a serial trading in several minutes counts once in each
(``serial_scope="bar"``). The alternative ``"day"`` scope counts each
serial once per day, in the earliest on-grid minute it traded in, which is
the minute of its first fill; it exists for sensitivity analysis only.

A feed and its cache reach the panel as the same stream of cache blocks
(``marketdata.cache.blocks_from_chunks`` and ``iter_blocks``), and one
reducer counts both scopes.

Building the panel from a cache costs far more than any analysis of it, so
``PolarityPanel.from_cache_memo`` keeps the built panel beside the cache as
an uncompressed ``<cache>.panel-<scope>.npz`` and loads it from there while
the cache's CRC-32, size and the scope still match the memo's key.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError
from .marketdata import cache as cache_mod
from .marketdata.grid import BARS_PER_DAY
from .marketdata.parse import iter_transactions
from .marketdata.schema import DEFAULT_SCHEMA, ParseReport, TransactionRecord

# A row's key on each side is serial << 9 | side | bar, where side is 0 for
# the buyer and _SELL for the seller. Bars run 1..237 and serials are u32,
# so keys fit an int64 and sort by serial and side, then bar.
_BAR_BITS = 8
_SELL = 1 << _BAR_BITS

#: bumped whenever the arrays a memo holds, or how a panel is built, change
_MEMO_VERSION = 1

#: grid cells per slice of stocks that ``write_text`` formats at once
_WRITE_CELLS = 1 << 12


def count_mantimes(records: Iterable[TransactionRecord]) -> tuple[int, int]:
    """Distinct buy and sell serials in one (stock, day, bar) batch.

    Order-independent by construction; an empty batch is (0, 0).
    """
    buys = set()
    sells = set()
    for rec in records:
        buys.add(rec.buy_serial)
        sells.add(rec.sell_serial)
    return len(buys), len(sells)


def polarity(buy: int, sell: int) -> float | None:
    """(buy - sell) / (buy + sell); None when the minute had no activity."""
    total = buy + sell
    if total == 0:
        return None
    return (buy - sell) / total


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
    """Dense (stock, date, bar) man-times counts with derived polarity.

    ``buy`` and ``sell`` are int32 arrays of shape (n_stocks, n_dates, 237);
    ``polarity`` is float64 with NaN in minutes without activity. Read-only
    once built; queries are safe to run concurrently.
    """

    def __init__(self, stocks, dates, buy, sell):
        self.stocks = list(stocks)
        self.dates = list(dates)
        self.buy = buy
        self.sell = sell
        self._stock_idx = {s: i for i, s in enumerate(self.stocks)}
        self._date_idx = {d: j for j, d in enumerate(self.dates)}
        self._polarity = None

    @property
    def polarity(self) -> np.ndarray:
        if self._polarity is None:
            total = (self.buy + self.sell).astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                p = (self.buy - self.sell) / total
            p[total == 0] = np.nan
            self._polarity = p
        return self._polarity

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

    def row(self, stock_id: str, date: dt.date) -> np.ndarray:
        """One stock-day of polarity values, shape (237,), NaN where missing."""
        return self.polarity[self.stock_index(stock_id), self.date_index(date)]

    def iter_stock_days(self) -> Iterator[tuple[str, dt.date, np.ndarray]]:
        for i, stock in enumerate(self.stocks):
            for j, date in enumerate(self.dates):
                yield stock, date, self.polarity[i, j]

    def active_cells(self) -> dict:
        """{(stock, date, bar): (buy, sell)} over minutes with any activity."""
        out = {}
        idx = np.nonzero((self.buy + self.sell) > 0)
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
        chunks = iter_transactions(
            path, schema, report=report, malformed_threshold=malformed_threshold
        )
        return _panel_from_blocks(cache_mod.blocks_from_chunks(chunks), serial_scope)

    @classmethod
    def from_cache(cls, path, *, serial_scope: str = "bar") -> "PolarityPanel":
        return _panel_from_blocks(cache_mod.iter_blocks(path), serial_scope)

    @classmethod
    def from_cache_memo(cls, path, *, serial_scope: str = "bar") -> "PolarityPanel":
        """``from_cache``, built once per cache and kept beside it.

        The cache is first checked against its recorded checksum, so a
        damaged cache raises DataError whether or not a memo exists. A
        memo is used only when its key matches the cache and its arrays
        are well formed; otherwise the panel is built and the memo
        rewritten. Failing to write the memo leaves the result unchanged.
        """
        before = _file_identity(path)
        crc, size = cache_mod.verified_crc32(path)
        key = np.array([_MEMO_VERSION, crc, size], dtype=np.int64)
        memo = cache_mod.panel_memo_path(path, serial_scope)
        panel = _load_memo(memo, key, serial_scope)
        if panel is None:
            panel = cls.from_cache(path, serial_scope=serial_scope)
            # a cache replaced while it was read must not key the panel
            if _file_identity(path) == before:
                _save_memo(memo, panel, key, serial_scope)
        return panel

    # -- export ------------------------------------------------------------

    def write_text(self, path, delimiter: str = ",", include_empty: bool = False) -> None:
        """Cells as (stock, date, bar, buy, sell, polarity|NA).

        By default only minutes with activity are written; ``include_empty``
        adds the no-trade minutes with polarity NA, one row per grid cell.
        """
        d = delimiter
        days = [f"{stock}{d}{date.isoformat()}{d}" for stock in self.stocks for date in self.dates]
        bars = [f"{k + 1}{d}" for k in range(BARS_PER_DAY)]
        # what follows a cell's bar depends only on its (buy, sell) pair, so
        # each distinct pair is formatted once
        tails = {}
        n_dates = len(self.dates)
        # stocks go out in slices of about _WRITE_CELLS grid cells, which
        # bounds the per-cell strings held at once
        step = max(1, _WRITE_CELLS // max(1, n_dates * BARS_PER_DAY))
        with open(path, "w", newline="") as fh:
            fh.write(d.join(("stock_id", "date", "bar", "buy", "sell", "polarity")))
            fh.write("\n")
            for lo in range(0, len(self.stocks), step):
                buy, sell = self.buy[lo : lo + step], self.sell[lo : lo + step]
                cells = np.ones(buy.shape, bool) if include_empty else (buy + sell) > 0
                i, j, k = np.nonzero(cells)
                pairs = (buy[i, j, k].astype(np.int64) << 32 | sell[i, j, k]).tolist()
                for pair in set(pairs).difference(tails):
                    b, s = pair >> 32, pair & 0xFFFFFFFF
                    p = polarity(b, s)
                    tails[pair] = f"{b}{d}{s}{d}{'NA' if p is None else format(p, '.12g')}\n"
                rows = zip(((i + lo) * n_dates + j).tolist(), k.tolist(), pairs)
                fh.write("".join([f"{days[day]}{bars[bar]}{tails[pair]}" for day, bar, pair in rows]))

    @classmethod
    def read_text(cls, path, delimiter: str = ",") -> "PolarityPanel":
        import csv

        cells = {}
        with open(path, "r", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header = next(reader)
            if header[:5] != ["stock_id", "date", "bar", "buy", "sell"]:
                raise DataError(f"not a panel export: {path}")
            for row in reader:
                if not row:
                    continue
                d = dt.date.fromisoformat(row[1])
                cells[(row[0], d, int(row[2]))] = (int(row[3]), int(row[4]))
        return _panel_from_cells(cells)


def _panel_from_cells(cells: dict) -> PolarityPanel:
    stocks = sorted({k[0] for k in cells})
    dates = sorted({k[1] for k in cells})
    sidx = {s: i for i, s in enumerate(stocks)}
    didx = {d: j for j, d in enumerate(dates)}
    buy = np.zeros((len(stocks), len(dates), BARS_PER_DAY), dtype=np.int32)
    sell = np.zeros_like(buy)
    for (stock, date, bar), (b, s) in cells.items():
        buy[sidx[stock], didx[date], bar - 1] = b
        sell[sidx[stock], didx[date], bar - 1] = s
    return PolarityPanel(stocks, dates, buy, sell)


def _file_identity(path) -> tuple | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _save_memo(memo, panel: PolarityPanel, key: np.ndarray, serial_scope: str) -> None:
    ids = [s.encode("utf-8") for s in panel.stocks]
    tmp = memo.with_name(f"{memo.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                key=key,
                scope=np.array(serial_scope),
                buy=panel.buy,
                sell=panel.sell,
                # UTF-8 bytes and end offsets keep any id exactly; a numpy
                # string array would drop trailing NULs
                stock_bytes=np.frombuffer(b"".join(ids), dtype=np.uint8),
                stock_ends=np.cumsum([len(b) for b in ids], dtype=np.int64),
                dates=np.array([cache_mod.date_to_int(d) for d in panel.dates], dtype=np.int32),
            )
        os.replace(tmp, memo)
    except OSError:
        tmp.unlink(missing_ok=True)


def _load_memo(memo, key: np.ndarray, serial_scope: str) -> PolarityPanel | None:
    """The memo's panel, or None when it is absent, stale or malformed."""
    try:
        with np.load(memo, allow_pickle=False) as z:
            if not (np.array_equal(z["key"], key) and z["scope"].item() == serial_scope):
                return None
            arrays = {k: z[k] for k in ("buy", "sell", "stock_bytes", "stock_ends", "dates")}
        return _panel_from_memo(**arrays)
    except FileNotFoundError:
        return None
    except Exception as exc:
        # damage surfaces as any of a dozen zipfile, numpy and decode errors;
        # whichever it is, the panel is rebuilt and the run goes on
        print(f"polab: rebuilding the panel, memo {memo} is unusable: {exc!r}", file=sys.stderr)
        return None


def _panel_from_memo(buy, sell, stock_bytes, stock_ends, dates) -> PolarityPanel:
    """Raises ValueError unless the arrays form a panel ``from_cache`` could build."""
    if (stock_bytes.dtype, stock_ends.dtype, dates.dtype) != (np.uint8, np.int64, np.int32):
        raise ValueError("memo axes have the wrong dtype")
    if stock_bytes.ndim != 1 or dates.ndim != 1 or stock_ends.ndim != 1:
        raise ValueError("memo axes are not vectors")
    bounds = np.concatenate([[0], stock_ends])
    if np.any(np.diff(bounds) < 0) or bounds[-1] != len(stock_bytes):
        raise ValueError("memo stock offsets do not cover its id bytes")
    raw = stock_bytes.tobytes()
    stocks = [raw[a:b].decode("utf-8") for a, b in zip(bounds[:-1], bounds[1:])]
    days = [cache_mod.int_to_date(int(v)) for v in dates]
    for axis in (stocks, days):
        if any(a >= b for a, b in zip(axis, axis[1:])):
            raise ValueError("memo axis is not strictly increasing")
    shape = (len(stocks), len(days), BARS_PER_DAY)
    if any(c.dtype != np.int32 or c.shape != shape for c in (buy, sell)):
        raise ValueError("memo counts have the wrong dtype or shape")
    return PolarityPanel(stocks, days, buy, sell)


def _serial_keys(keys: np.ndarray, day_scope: bool) -> np.ndarray:
    """The sorted distinct keys among ``keys``; in day scope only the first
    of each serial on each side, which holds its earliest bar."""
    keys = np.sort(keys)
    ids = keys >> _BAR_BITS if day_scope else keys  # (serial, side) or the whole key
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return keys[first]


def _panel_from_blocks(blocks, serial_scope: str) -> PolarityPanel:
    builder = PanelBuilder(serial_scope=serial_scope)
    for blk in blocks:
        builder.add_arrays(blk.stock_id, blk.trade_date, blk.bar, blk.buy_serial, blk.sell_serial)
    return builder.build()


class PanelBuilder:
    """Accumulates man-times evidence per (stock, day), then builds the panel.

    Each call's on-grid rows are reduced at once to their distinct
    (serial, side, bar) keys, so memory scales with participant counts
    rather than fills. Bar scope counts every key. Day scope keeps each
    serial's earliest on-grid bar on each side; bars rise with time of day,
    so that is the minute of the serial's first fill. Keys from several
    calls for one (stock, day) are merged by the same rule, so splitting a
    stock-day across calls, in any order, gives the same panel.
    """

    def __init__(self, serial_scope: str = "bar"):
        if serial_scope not in ("bar", "day"):
            raise ValueError(f"serial_scope must be 'bar' or 'day', got {serial_scope!r}")
        self.serial_scope = serial_scope
        self._keys: dict[tuple[str, dt.date], list] = {}

    def add_arrays(self, stock, date, bar, buy_serial, sell_serial) -> None:
        bar = np.asarray(bar)
        on = bar > 0
        b = bar[on].astype(np.int64)
        buy = np.asarray(buy_serial)[on].astype(np.int64) << (_BAR_BITS + 1) | b
        sell = np.asarray(sell_serial)[on].astype(np.int64) << (_BAR_BITS + 1) | _SELL | b
        keys = _serial_keys(np.concatenate((buy, sell)), self.serial_scope == "day")
        self._keys.setdefault((stock, date), []).append(keys)

    def build(self) -> PolarityPanel:
        stocks = sorted({k[0] for k in self._keys})
        dates = sorted({k[1] for k in self._keys})
        sidx = {s: i for i, s in enumerate(stocks)}
        didx = {d: j for j, d in enumerate(dates)}
        buy = np.zeros((len(stocks), len(dates), BARS_PER_DAY), dtype=np.int32)
        sell = np.zeros_like(buy)
        day = self.serial_scope == "day"
        for (stock, date), parts in self._keys.items():
            keys = parts[0] if len(parts) == 1 else _serial_keys(np.concatenate(parts), day)
            counts = np.bincount(keys & (2 * _SELL - 1), minlength=2 * _SELL)
            i, j = sidx[stock], didx[date]
            buy[i, j] = counts[1 : BARS_PER_DAY + 1]
            sell[i, j] = counts[_SELL + 1 : _SELL + BARS_PER_DAY + 1]
        return PolarityPanel(stocks, dates, buy, sell)


# -- aggregate statistics ----------------------------------------------------


def direction_ratios(
    panel: PolarityPanel, stock_id: str, dates=None, period: str = "all"
) -> DirectionRatios | None:
    """Positive/negative/zero minute shares over non-missing cells.

    Returns None when the stock has no non-missing cell in the period.
    """
    i = panel.stock_index(stock_id)
    if dates is None:
        rows = panel.polarity[i]
    else:
        cols = [panel.date_index(d) for d in dates]
        rows = panel.polarity[i, cols]
    vals = rows[np.isfinite(rows)]
    n = len(vals)
    if n == 0:
        return None
    pos = int((vals > 0).sum())
    neg = int((vals < 0).sum())
    zero = n - pos - neg
    return DirectionRatios(stock_id, period, pos / n, neg / n, zero / n, n)


def market_polarity(panel: PolarityPanel, date: dt.date, bar: int) -> float:
    """Equal-weighted mean polarity over stocks active at (date, bar); NaN if none."""
    col = panel.polarity[:, panel.date_index(date), bar - 1]
    finite = col[np.isfinite(col)]
    if len(finite) == 0:
        return math.nan
    return float(finite.mean())


def market_polarity_series(panel: PolarityPanel) -> np.ndarray:
    """Market polarity for every (date, bar); shape (n_dates, 237), NaN if no stock."""
    with np.errstate(invalid="ignore"):
        counts = np.isfinite(panel.polarity).sum(axis=0)
        sums = np.nansum(panel.polarity, axis=0)
        out = np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)
    return out


def daily_polarity_at_index_min(panel: PolarityPanel, index_returns, date: dt.date) -> float:
    """Market polarity at the minute the index return hits its daily minimum.

    The index return is the intraday percentage change versus the prior
    close; ties resolve to the earliest bar. Raises DataError when the index
    series has no values for the date.
    """
    series = index_returns.intraday_pct_vs_prev_close.get(date)
    if series is None or not np.isfinite(series).any():
        raise DataError(f"index return series missing for {date}")
    bar = int(np.nanargmin(series)) + 1
    return market_polarity(panel, date, bar)
