"""Loaders for price files and the per-stock and per-day side files.

End-of-day files carry (date, id, close); intraday files carry
(date, id, bar_or_time, last_price) where ``bar_or_time`` is either a bar
index 1..237 or a time of day mapped through the grid. A missing intraday
row, or an empty last_price field, means no trade in that minute. The side
files are a capitalization table (id, capitalization) and a daily emotion
series (date, rjf).

Price files are read column-wise: the whole file is split into field byte
ranges, converted with numpy and validated with masks. A file the columnar
reader does not take as a whole (a quote, a carriage return outside a CRLF
line end, a non-ASCII byte, a field that is not plain digits or a plain
decimal, or any invalid row) is read again by the per-row loop, so every
DataError it raises is the row loop's.
"""

from __future__ import annotations

import csv
import datetime as dt

import numpy as np

from ..errors import DataError, InputError
from .grid import BARS_PER_DAY, assign_bar, assign_bars
from .parse import (
    _decimals, _digits, _factorize, _parse_time_ms, _times, _yyyymmdd, is_utf8, split_fields,
)

EOD_COLUMNS = ("date", "id", "close")
INTRADAY_COLUMNS = ("date", "id", "bar_or_time", "last_price")

#: Rows converted per step of the columnar reader; bounds its scratch memory.
_BLOCK_ROWS = 1 << 12


def _open(path, what: str = "price"):
    try:
        return open(path, "r", newline="", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _csv_reader(fh, path, delimiter: str = ","):
    """``csv`` rows of a file from ``_open``; a line that is not UTF-8
    raises DataError naming it."""

    def lines():
        for lineno, line in enumerate(fh, 1):
            if not is_utf8(line):
                raise DataError(f"{path} line {lineno} is not UTF-8")
            yield line

    return csv.reader(lines(), delimiter=delimiter)


def _check_header(row, expected, path):
    if tuple(h.strip() for h in row) != expected:
        raise DataError(f"header mismatch in {path}: expected {list(expected)}, found {row}")


def _parse_date(s: str, cache: dict) -> dt.date:
    d = cache.get(s)
    if d is None:
        d = dt.date(int(s[0:4]), int(s[5:7]), int(s[8:10]))
        cache[s] = d
    return d


# -- columnar reader ------------------------------------------------------------


def _plain_fields(path, delimiter: str, has_header: bool, columns: tuple):
    """(buf, start, end) field byte ranges of every non-blank row, or None
    when the file needs the row loop: unreadable, a quote, NUL, lone CR or
    non-ASCII byte, a header other than ``columns``, or a row with another
    number of fields."""
    if len(delimiter) != 1 or not delimiter.isascii() or delimiter in '"\r\n\0':
        return None
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if b"\r" in raw or b'"' in raw or b"\0" in raw or not raw.isascii():
        return None
    if has_header:
        head, _, raw = raw.partition(b"\n")
        if tuple(h.strip() for h in head.decode().split(delimiter)) != columns:
            return None
    buf, nonblank, regular, start, end = split_fields(raw, delimiter, len(columns))
    if not np.array_equal(nonblank, regular):
        return None
    return buf, start, end


def _blocks(n: int):
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n, _BLOCK_ROWS))


def _dates(ymd: np.ndarray):
    """(distinct dates, code of each row) for yyyymmdd integers, or None
    when one is not a calendar date."""
    uniq, codes = np.unique(ymd, return_inverse=True)
    try:
        dates = [dt.date(v // 10_000, v // 100 % 100, v % 100) for v in uniq.tolist()]
    except ValueError:
        return None
    return dates, codes


def _positive_prices(buf, start, end):
    """Plain decimal fields as float64, or None unless every one is > 0."""
    price, ok = _decimals(buf, start, end)
    return price if ok.all() and (price > 0).all() else None


def _bars(buf, start, end):
    """Bar indices of ``bar_or_time`` fields, or None unless every field is
    a bar of at most three digits or an on-grid HH:MM:SS[.mmm] time."""
    width = end - start
    bar = np.zeros(len(start), np.int64)
    short = width <= 3
    timed = (width == 8) | (width == 12)
    if not (short | timed).all():
        return None
    bar[short], ok_short = _digits(buf, start[short], end[short])
    time_ms, ok_timed = _times(buf, start[timed], end[timed])
    bar[timed] = assign_bars(time_ms)
    if not (ok_short.all() and ok_timed.all()):
        return None
    return bar if ((bar >= 1) & (bar <= BARS_PER_DAY)).all() else None


def _first_seen_order(keys: np.ndarray):
    """Distinct keys in order of first appearance, and each row's index
    into them."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), np.intp)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse]


def _eod_columnar(path, delimiter: str, has_header: bool):
    fields = _plain_fields(path, delimiter, has_header, EOD_COLUMNS)
    if fields is None:
        return None
    buf, start, end = fields
    n = len(start)
    ymd = np.empty(n, np.int64)
    close = np.empty(n, np.float64)
    for blk in _blocks(n):
        s, e = start[blk], end[blk]
        ymd[blk], ok = _yyyymmdd(buf, s[:, 0], e[:, 0])
        prices = _positive_prices(buf, s[:, 2], e[:, 2])
        if not ok.all() or prices is None:
            return None
        close[blk] = prices
    dates = _dates(ymd)
    if dates is None:
        return None
    dates, date_code = dates
    ids, id_code = _factorize(buf, start[:, 1], end[:, 1])
    keys, row_key = _first_seen_order(id_code * len(dates) + date_code)
    if len(keys) < n:  # a duplicate (id, date)
        return None
    out: dict[str, dict[dt.date, float]] = {}
    by_key = np.empty(n, np.float64)
    by_key[row_key] = close
    for key, value in zip(keys.tolist(), by_key.tolist()):
        i, j = divmod(key, len(dates))
        out.setdefault(ids[i].decode(), {})[dates[j]] = value
    return out


def _intraday_columnar(path, delimiter: str, has_header: bool, ids):
    fields = _plain_fields(path, delimiter, has_header, INTRADAY_COLUMNS)
    if fields is None:
        return None
    buf, start, end = fields
    traded = end[:, 3] > start[:, 3]  # an empty last_price is a no-trade minute
    start, end = start[traded], end[traded]
    n = len(start)
    ymd = np.empty(n, np.int64)
    bar = np.empty(n, np.int64)
    price = np.empty(n, np.float64)
    for blk in _blocks(n):
        s, e = start[blk], end[blk]
        ymd[blk], ok = _yyyymmdd(buf, s[:, 0], e[:, 0])
        bars = _bars(buf, s[:, 2], e[:, 2])
        prices = _positive_prices(buf, s[:, 3], e[:, 3])
        if not ok.all() or bars is None or prices is None:
            return None
        bar[blk], price[blk] = bars, prices
    dates = _dates(ymd)
    if dates is None:
        return None
    dates, date_code = dates
    names, id_code = _factorize(buf, start[:, 1], end[:, 1])
    names = [name.decode() for name in names]
    day = id_code * len(dates) + date_code
    minutes = np.sort(day * (BARS_PER_DAY + 1) + bar)  # not np.unique: see _factorize
    if (minutes[1:] == minutes[:-1]).any():  # a duplicate minute
        return None
    if ids is not None:
        wanted = np.isin(id_code, [k for k, name in enumerate(names) if name in ids])
        day, bar, price = day[wanted], bar[wanted], price[wanted]
    keys, row_day = _first_seen_order(day)
    grid = np.full((len(keys), BARS_PER_DAY), np.nan)
    grid[row_day, bar - 1] = price
    out: dict[str, dict[dt.date, np.ndarray]] = {}
    for key, row in zip(keys.tolist(), grid):
        i, j = divmod(key, len(dates))
        out.setdefault(names[i], {})[dates[j]] = row
    return out


# -- row loops ------------------------------------------------------------------


def _eod_rows(path, delimiter: str, has_header: bool) -> dict:
    out: dict[str, dict[dt.date, float]] = {}
    cache: dict = {}
    with _open(path) as fh:
        reader = _csv_reader(fh, path, delimiter)
        if has_header:
            _check_header(next(reader, []), EOD_COLUMNS, path)
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"bad end-of-day row in {path}: {row}")
            try:
                d = _parse_date(row[0], cache)
                close = float(row[2])
            except ValueError as exc:
                raise DataError(f"unparsable end-of-day row in {path}: {row}") from exc
            if close <= 0:
                raise DataError(f"non-positive close for {row[1]} on {row[0]}: {close}")
            per_id = out.setdefault(row[1], {})
            if d in per_id:
                raise DataError(f"duplicate end-of-day record for {row[1]} on {row[0]}")
            per_id[d] = close
    return out


def _parse_bar(field: str, path, row) -> int:
    if ":" in field:
        bar = assign_bar(_parse_time_ms(field))
    else:
        bar = int(field)
    if not 1 <= bar <= BARS_PER_DAY:
        raise DataError(f"off-grid intraday price row in {path}: {row}")
    return bar


def _intraday_rows(path, delimiter: str, has_header: bool) -> dict:
    out: dict[str, dict[dt.date, np.ndarray]] = {}
    cache: dict = {}
    with _open(path) as fh:
        reader = _csv_reader(fh, path, delimiter)
        if has_header:
            _check_header(next(reader, []), INTRADAY_COLUMNS, path)
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"bad intraday row in {path}: {row}")
            if row[3].strip() == "":
                continue  # explicit no-trade minute
            try:
                d = _parse_date(row[0], cache)
                bar = _parse_bar(row[2], path, row)
                price = float(row[3])
            except ValueError as exc:
                raise DataError(f"unparsable intraday row in {path}: {row}") from exc
            if price <= 0:
                raise DataError(f"non-positive last price for {row[1]} on {row[0]} bar {bar}")
            per_id = out.setdefault(row[1], {})
            day = per_id.get(d)
            if day is None:
                day = per_id[d] = np.full(BARS_PER_DAY, np.nan)
            if not np.isnan(day[bar - 1]):
                raise DataError(f"duplicate intraday record for {row[1]} on {row[0]} bar {bar}")
            day[bar - 1] = price
    return out


# -- public loaders ---------------------------------------------------------------


def load_eod_prices(path, delimiter: str = ",", has_header: bool = True) -> dict:
    """Return {id: {date: close}}. Duplicate (id, date) or close <= 0 is an error."""
    out = _eod_columnar(path, delimiter, has_header)
    return out if out is not None else _eod_rows(path, delimiter, has_header)


def load_intraday_prices(
    path, delimiter: str = ",", has_header: bool = True, ids=None
) -> dict:
    """Return {id: {date: ndarray(237) of last prices, NaN where no trade}}.

    Every row is validated; with ``ids`` (a collection of ids) only their
    day arrays are built and returned.
    """
    out = _intraday_columnar(path, delimiter, has_header, ids)
    if out is None:
        out = _intraday_rows(path, delimiter, has_header)
        if ids is not None:
            out = {k: v for k, v in out.items() if k in ids}
    return out


def load_capitalization(path) -> dict:
    """Return {id: capitalization} from an ``id,capitalization`` file."""
    caps = {}
    with _open(path, "capitalization") as fh:
        reader = _csv_reader(fh, path)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("id", "capitalization"):
            raise DataError(f"capitalization file must have header 'id,capitalization': {path}")
        for row in reader:
            if not row:
                continue
            try:
                caps[row[0]] = float(row[1])
            except (IndexError, ValueError):
                raise DataError(
                    f"{path} line {reader.line_num}: expected 'id,capitalization', got {row}"
                ) from None
    return caps


def load_emotion(path) -> dict:
    """Return {date: rjf} from a ``date,rjf`` file; rjf must be positive."""
    out = {}
    with _open(path, "emotion") as fh:
        reader = _csv_reader(fh, path)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("date", "rjf"):
            raise DataError(f"emotion file must have header 'date,rjf': {path}")
        for row in reader:
            if not row:
                continue
            try:
                date, value = dt.date.fromisoformat(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise DataError(
                    f"{path} line {reader.line_num}: expected 'date,rjf', got {row}"
                ) from None
            if value <= 0:
                raise DataError(f"rjf must be positive: {row}")
            out[date] = value
    return out
