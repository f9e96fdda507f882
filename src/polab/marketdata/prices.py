"""Loaders for price files and the per-stock and per-day side files.

End-of-day files carry (date, id, close); intraday files carry
(date, id, bar_or_time, last_price) where ``bar_or_time`` is either a bar
index 1..237 or a time of day mapped through the grid. A missing intraday
row, or an empty last_price field, means no trade in that minute. The side
files are a capitalization table (id, capitalization) and a daily emotion
series (date, rjf).

Every file is read through the feed's block reader, ``parse._Feed``, in
blocks of ``_BLOCK_BYTES``. Price files are read column-wise, one block at
a time: each block is split into field byte ranges, converted with numpy
and validated with masks, and its (id, date) pairs join one table for the
whole file, in order of first appearance. If any block needs the row loop
(a quote, a carriage return outside a CRLF line end, bytes that are not
UTF-8, a field that is not plain digits or a plain decimal, or any invalid
row), or two rows share a minute (a day, at end of day), the whole file is
read again by the row loop, so every DataError it raises is the row loop's.
One row loop serves both formats. Both readers return one shape,
``(days, key, price)``: the file's (id, date) pairs, and each priced row's
``day << 8 | bar`` and price. ``load_intraday_rows`` returns it in key
order, with where each (id, date) starts; the two dict loaders shape it
into {id: {date: ...}}.
A price must be positive and finite. A side file's value must be finite,
and each id or date may appear once.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager

import numpy as np

from ..errors import DataError, InputError
from .dates import parse_date
from .grid import BARS_PER_DAY, assign_bar, assign_bars
from .parse import (
    _Feed, _decimal_values, _decimals, _digits, _factorize, _join_digits, _parse_time_ms,
    _plain, _times, is_utf8, padded, split_fields,
)

EOD_COLUMNS = ("date", "id", "close")
INTRADAY_COLUMNS = ("date", "id", "bar_or_time", "last_price")

#: Bytes read per block, about 4,500 price rows; a block takes about ten
#: times its size in scratch. With the feed's 1 MiB blocks the allocator kept
#: about 6 MB more resident after loading the wide bench market, and ``kl``
#: and ``impact`` peaked up to 4 MB higher. 128 KiB loads no slower.
_BLOCK_BYTES = 1 << 17


@contextmanager
def _feed(path, what: str = "price"):
    """The file at ``path`` as a ``_Feed``; InputError if it cannot be opened."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    with fh:
        yield _Feed(fh, _BLOCK_BYTES)


def _csv_reader(feed, path, delimiter: str = ","):
    """``csv`` rows of the lines left in ``feed``; a line that is not UTF-8
    raises DataError naming it."""

    def lines():
        for lineno, line in enumerate(feed.lines(), 1):
            if not is_utf8(line):
                raise DataError(f"{path} line {lineno} is not UTF-8")
            yield line

    return csv.reader(lines(), delimiter=delimiter)


# -- columnar reader ------------------------------------------------------------


def _bars(buf, start, end):
    """Bar indices of ``bar_or_time`` fields, or None unless every field is
    a bar of at most three digits or an on-grid HH:MM:SS[.mmm] time."""
    width = end - start
    bar = np.zeros(len(start), np.int64)
    short = width <= 3
    timed = (width == 8) | (width == 12)
    if not (short | timed).all():
        return None
    d, ok_short = _digits(buf, start[short], end[short])
    bar[short] = _join_digits(d, range(len(d)))
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


def _columnar(path, delimiter: str, has_header: bool, columns: tuple):
    """(days, key, price) of the rows of a price file that carry a price.

    ``days`` lists the file's distinct (id, date) pairs in order of first
    appearance; ``key`` is ``day << 8 | bar`` for each row, with bar 0 at
    end of day. None when the file needs the row loop: a header other than
    ``columns``, a block ``_plain`` refuses, a row with another number of
    fields, a field that is not a plain date, bar or positive decimal, or
    two rows with the same key.
    """
    if len(delimiter) != 1 or not delimiter.isascii():
        return None
    intraday = columns == INTRADAY_COLUMNS
    days: dict[tuple, int] = {}
    with _feed(path) as feed:
        # a row taken here is at least 13 bytes: a date of 9 or more characters,
        # a price, separators and a line end (room grows for a pipe or a file
        # that grows while read)
        room = os.path.getsize(path) // 13 + 1
        keys, prices, n_rows = np.empty(room, np.int64), np.empty(room), 0
        if has_header:
            header = next(csv.reader(feed.lines(), delimiter=delimiter), None)
            if header is None or tuple(h.strip() for h in header) != columns:
                return None
        while raw := feed.block():
            plain = _plain(raw)
            if plain is None:
                return None
            buf = padded(plain)
            nonblank, regular, start, end = split_fields(buf, delimiter, len(columns))
            if not np.array_equal(nonblank, regular):
                return None
            if intraday:
                traded = end[3] > start[3]  # an empty last_price is a no-trade minute
                start, end = start[:, traded], end[:, traded]
            bar = _bars(buf, start[2], end[2]) if intraday else 0
            d, ok = _decimals(buf, start[-1], end[-1])
            price = _decimal_values(d)
            if bar is None or not (ok.all() and (price > 0).all()):
                return None
            date_raw, date_code = _factorize(buf, start[0], end[0])
            try:
                dates = [parse_date(d.decode()) for d in date_raw]
            except ValueError:
                return None
            id_raw, id_code = _factorize(buf, start[1], end[1])
            names, n = [s.decode() for s in id_raw], len(dates)
            pairs, row_pair = _first_seen_order(id_code * n + date_code)
            day_of = [
                days.setdefault((names[p // n], dates[p % n]), len(days)) for p in pairs.tolist()
            ]
            rows = slice(n_rows, n_rows + len(price))
            if rows.stop > len(keys):
                keys.resize(2 * rows.stop, refcheck=False)
                prices.resize(2 * rows.stop, refcheck=False)
            keys[rows] = np.asarray(day_of, np.int64)[row_pair] << 8 | bar
            prices[rows] = price
            n_rows = rows.stop
    # the room beyond the rows goes back to the allocator, in place
    keys.resize(n_rows, refcheck=False)
    prices.resize(n_rows, refcheck=False)
    # a repeated minute (a day, at end of day, where a day's key is its own)
    # leaves fewer distinct keys than rows
    distinct = len(days)
    if intraday:
        seen = np.zeros(len(days) << 8, bool)
        seen[keys] = True
        distinct = np.count_nonzero(seen)
    if distinct != n_rows:
        return None
    return list(days), keys, prices


# -- row loop ---------------------------------------------------------------------


def _rows(path, delimiter: str, has_header: bool, columns: tuple):
    """The ``(days, key, price)`` of ``_columnar``, read row by row with
    ``csv``: the reader of any file ``_columnar`` refuses. The first bad row
    raises a DataError that names it."""
    intraday = columns == INTRADAY_COLUMNS
    kind = "intraday" if intraday else "end-of-day"
    days: dict[tuple, int] = {}
    price_of: dict[int, float] = {}  # key -> price, in file order
    with _feed(path) as feed:
        reader = _csv_reader(feed, path, delimiter)
        header = next(reader, []) if has_header else columns
        if tuple(h.strip() for h in header) != columns:
            raise DataError(f"header mismatch in {path}: expected {list(columns)}, found {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(columns):
                raise DataError(f"bad {kind} row in {path}: {row}")
            if intraday and row[3].strip() == "":
                continue  # explicit no-trade minute
            try:
                date, bar = parse_date(row[0]), 0
                if intraday:
                    bar = assign_bar(_parse_time_ms(row[2])) if ":" in row[2] else int(row[2])
                    if not 1 <= bar <= BARS_PER_DAY:
                        raise DataError(f"off-grid intraday price row in {path}: {row}")
                price = float(row[-1])
            except ValueError as exc:
                raise DataError(f"unparsable {kind} row in {path}: {row}") from exc
            if not 0 < price < math.inf:
                sign = "non-positive" if price <= 0 else "non-finite"
                if intraday:
                    raise DataError(f"{sign} last price for {row[1]} on {row[0]} bar {bar}")
                raise DataError(f"{sign} close for {row[1]} on {row[0]}: {price}")
            key = days.setdefault((row[1], date), len(days)) << 8 | bar
            if key in price_of:
                at = f" bar {bar}" if intraday else ""
                raise DataError(f"duplicate {kind} record for {row[1]} on {row[0]}{at}")
            price_of[key] = price
    n = len(price_of)
    return list(days), np.fromiter(price_of, np.int64, n), np.fromiter(price_of.values(), float, n)


def _side_rows(path, what: str, columns: tuple, parse_key):
    """(where, row, key, value) of each row of a two-column side file, with
    ``where`` naming the file and line; a wrong header or field count, a
    key ``parse_key`` refuses, a value that is not a number, or a repeated
    key is a DataError."""
    seen = set()
    with _feed(path, what) as feed:
        reader = _csv_reader(feed, path)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != columns:
            raise DataError(f"{what} file must have header '{','.join(columns)}': {path}")
        for row in reader:
            if not row:
                continue
            where = f"{path} line {reader.line_num}"
            try:
                field, text = row  # ValueError unless two fields
                key, value = parse_key(field), float(text)
            except ValueError:
                raise DataError(f"{where}: expected '{','.join(columns)}', got {row}") from None
            if key in seen:
                raise DataError(f"{where}: duplicate {columns[0]} {row[0]}")
            seen.add(key)
            yield where, row, key, value


# -- public loaders ---------------------------------------------------------------


def _read(path, delimiter: str, has_header: bool, columns: tuple):
    """``(days, key, price)`` of a price file: ``_columnar``'s, or the row
    loop's when ``_columnar`` refuses the file."""
    return _columnar(path, delimiter, has_header, columns) or _rows(
        path, delimiter, has_header, columns
    )


def load_eod_prices(path, delimiter: str = ",", has_header: bool = True) -> dict:
    """Return {id: {date: close}}. Duplicate (id, date), or a close that is
    not positive and finite, is an error."""
    days, key, price = _read(path, delimiter, has_header, EOD_COLUMNS)
    close = np.empty(len(days))
    close[key >> 8] = price
    out: dict = {}
    for (name, date), value in zip(days, close.tolist()):
        out.setdefault(name, {})[date] = value
    return out


def load_intraday_rows(path, delimiter: str = ",", has_header: bool = True):
    """Every priced row of an intraday file, validated, grouped by day.

    Returns ``(days, start, key, price)``: the file's (id, date) pairs in
    order of first appearance, each row's ``day << 8 | bar`` and last price
    in key order (day, then bar), and ``start``, one more than ``days`` long,
    where day ``k``'s rows are ``start[k]:start[k + 1]``. The rows are
    reordered only when the file is not already in that order, as a file
    written a stock-day at a time with ascending bars is.
    """
    days, key, price = _read(path, delimiter, has_header, INTRADAY_COLUMNS)
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key)
        key = key[order]
        price = price[order]
    # a day's rows are its keys from day << 8 on: bars start at 1
    return days, np.searchsorted(key, np.arange(len(days) + 1) << 8), key, price


def fill_day(rows, k: int, out: np.ndarray) -> np.ndarray:
    """Write day ``k``'s last prices from ``rows``, what ``load_intraday_rows``
    returned, into ``out``, one day of 237 bars, each at its bar; returns ``out``."""
    _, start, key, price = rows
    day = slice(start[k], start[k + 1])
    out[(key[day] & 255) - 1] = price[day]
    return out


def load_intraday_prices(
    path, delimiter: str = ",", has_header: bool = True, ids=None
) -> dict:
    """Return {id: {date: ndarray(237) of last prices, NaN where no trade}}.

    Every row is validated; with ``ids`` (a collection of ids) only their
    day arrays are built and returned.
    """
    rows = load_intraday_rows(path, delimiter, has_header)
    out: dict = {}
    for k, (name, date) in enumerate(rows[0]):
        if ids is None or name in ids:
            out.setdefault(name, {})[date] = fill_day(rows, k, np.full(BARS_PER_DAY, np.nan))
    return out


def load_capitalization(path) -> dict:
    """Return {id: capitalization} from an ``id,capitalization`` file; a
    capitalization must be finite and not negative."""
    caps = {}
    rows = _side_rows(path, "capitalization", ("id", "capitalization"), str)
    for where, row, stock, value in rows:
        if not 0 <= value < math.inf:
            raise DataError(
                f"{where}: capitalization must be finite and not negative, got {row}"
            )
        caps[stock] = value
    return caps


def load_emotion(path) -> dict:
    """Return {date: rjf} from a ``date,rjf`` file; rjf must be positive and finite."""
    out = {}
    rows = _side_rows(path, "emotion", ("date", "rjf"), parse_date)
    for where, row, date, value in rows:
        if value <= 0:
            raise DataError(f"{where}: rjf must be positive, got {row}")
        if not math.isfinite(value):
            raise DataError(f"{where}: rjf must be finite, got {row}")
        out[date] = value
    return out
