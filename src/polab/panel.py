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
the feed to a temporary one and builds from that. A cache holds exactly one
block per (stock, day), which carries only what the count reads: each row's
bar and its buy and sell serials. So one reducer, for both scopes, turns
each block into its day's counts as it is read and keeps none of its
serials: a build holds the panel, each day's counts until the axes are
known, and one block.

Building the panel from a cache costs far more than any analysis of it, so
``PolarityPanel.from_cache_memo`` keeps the built panel beside the cache as
an uncompressed ``<cache>.panel-<scope>.npz`` and loads it from there while
the CRC-32 and size that the cache's checksum file records, and the scope,
still match the memo's key. A cache without that record is refused.
"""

from __future__ import annotations

import datetime as dt
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .marketdata import cache as cache_mod
from .marketdata.grid import BARS_PER_DAY
from .marketdata.parse import int_to_date, iter_transactions
from .marketdata.schema import DEFAULT_SCHEMA, ParseReport

# A row's key on each side is serial << 9 | side | bar, where side is 0 for
# the buyer and _SELL for the seller. Bars run 1..237 and serials are u32,
# so keys fit an int64 and sort by serial and side, then bar.
_BAR_BITS = 8
_SELL = 1 << _BAR_BITS

#: bumped whenever the arrays a memo holds, or how a panel is built, change;
#: 2 since the cache's version 2, so no memo of a version-1 cache is loaded;
#: 3 since a panel holds its counts in ``_count_dtype`` of the largest
_MEMO_VERSION = 3

#: grid cells per slice of stocks that ``write_text`` formats at once
_WRITE_CELLS = 1 << 12


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
        if serial_scope not in ("bar", "day"):
            raise ValueError(f"serial_scope must be 'bar' or 'day', got {serial_scope!r}")
        day_scope = serial_scope == "day"
        return _grid(
            {(blk.stock_id, blk.trade_date): _day_counts(blk, day_scope)
             for blk in cache_mod.iter_blocks(path)}
        )

    @classmethod
    def from_cache_memo(cls, path, *, serial_scope: str = "bar") -> "PolarityPanel":
        """``from_cache``, built once per cache and kept beside it.

        A memo is keyed by the CRC-32 and size that the cache's checksum
        file records. It is used only when its key matches and its arrays
        are well formed; a hit still checks the cache against that record,
        so a damaged cache raises DataError whether or not a memo exists.
        On a miss the panel is built, which checks the cache in the same
        read, and the memo rewritten. Failing to write the memo leaves the
        result unchanged.
        """
        before = _file_identity(path)
        crc, size, _ = cache_mod.read_checksum(path)
        key = np.array([_MEMO_VERSION, crc, size], dtype=np.int64)
        memo = cache_mod.panel_memo_path(path, serial_scope)
        panel = _load_memo(memo, key, serial_scope)
        # a cache replaced since its record was read fails the comparison
        if panel is not None and cache_mod.verified_crc32(path) == (crc, size):
            return panel
        panel = cls.from_cache(path, serial_scope=serial_scope)
        # a cache replaced while it was read must not key the panel
        if _file_identity(path) == before:
            _save_memo(memo, panel, key, serial_scope)
        return panel

    # -- export ------------------------------------------------------------

    def write_text(self, path) -> None:
        """Minutes with activity as comma-separated (stock, date, bar, buy,
        sell, polarity); a no-trade minute has no row."""
        days = [f"{stock},{date.isoformat()}," for stock in self.stocks for date in self.dates]
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


def _grid(counts: dict) -> PolarityPanel:
    """The panel whose (stock, date) ``key`` holds ``counts[key]``, its buy
    and sell rows of the day's bars: the axes are sorted, then each day
    scattered into place, in ``_count_dtype`` of the largest count."""
    stocks = sorted({stock for stock, _ in counts})
    dates = sorted({date for _, date in counts})
    sidx = {s: i for i, s in enumerate(stocks)}
    didx = {d: j for j, d in enumerate(dates)}
    # from the largest count, not the largest block: a liquid stock-day can
    # pass 65,535 rows while no minute's count does
    largest = max((int(day.max()) for day in counts.values()), default=0)
    grid = np.zeros((2, len(stocks), len(dates), BARS_PER_DAY), _count_dtype(largest))
    for (stock, date), day in counts.items():
        grid[:, sidx[stock], didx[date]] = day
    return PolarityPanel(stocks, dates, *grid)


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
    days = [int_to_date(int(v)) for v in dates]
    for axis in (stocks, days):
        if any(a >= b for a, b in zip(axis, axis[1:])):
            raise ValueError("memo axis is not strictly increasing")
    shape = (len(stocks), len(days), BARS_PER_DAY)
    if buy.shape != shape or sell.shape != shape:
        raise ValueError("memo counts have the wrong shape")
    largest = max(int(buy.max(initial=0)), int(sell.max(initial=0)))
    if not buy.dtype == sell.dtype == _count_dtype(largest):
        raise ValueError("memo counts are not in the type from_cache builds for them")
    return PolarityPanel(stocks, days, buy, sell)


def _day_counts(blk, day_scope: bool) -> np.ndarray:
    """One block's man-times counts, shape (2, 237): buy then sell.

    The on-grid rows are reduced to their distinct (serial, side, bar) keys.
    Bar scope counts every key. Day scope keeps each serial's earliest bar on
    each side, the first of its sorted keys: the minute of its first fill.
    """
    on = blk.bar > 0
    bar = blk.bar[on].astype(np.int64)
    buy = blk.buy_serial[on].astype(np.int64) << (_BAR_BITS + 1) | bar
    sell = blk.sell_serial[on].astype(np.int64) << (_BAR_BITS + 1) | _SELL | bar
    keys = np.sort(np.concatenate((buy, sell)))
    ids = keys >> _BAR_BITS if day_scope else keys  # (serial, side) or the whole key
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    counts = np.bincount(keys[first] & (2 * _SELL - 1), minlength=2 * _SELL).reshape(2, _SELL)
    # kept until the axes are known, in the narrowest type that holds a
    # count (at most the block's row count): a thin day's counts fit a byte
    return counts[:, 1 : BARS_PER_DAY + 1].astype(np.min_scalar_type(len(blk.bar)))


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
