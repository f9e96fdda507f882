"""Chunked, vectorised streaming parser for delimited transaction files.

The file is read in chunks of ``_CHUNK_LINES`` physical lines, so memory
use is independent of file size. Each chunk is split into columns and
converted with numpy; the ``nonpositive`` and ``bad_time`` rules run as
masks. A row the fast path cannot convert exactly (a field that is not
plain digits, a price with more than 15 digits, an unusual time width)
goes through the per-row rule ``_parse_row``. So does every row of a
chunk holding a quote, a NUL or a carriage return outside a CRLF line end,
and of every chunk when the delimiter is not ASCII: such chunks are read
with ``csv`` exactly as a row-by-row reader would. Either way each row
gets the outcome of ``_parse_row``.

Malformed rows are counted per reason and reported, never silently
dropped; once their share exceeds the abort threshold the parse stops with
a summary, which protects against schema drift while tolerating isolated
corruption.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from itertools import chain, islice
from typing import Iterator

import numpy as np

from ..errors import DataError, InputError
from .grid import assign_bars
from .schema import (
    CHUNK_COLUMNS,
    DEFAULT_SCHEMA,
    FIELDS,
    ColumnSchema,
    ParseReport,
    TransactionChunk,
    TransactionRecord,
)

#: Abort threshold checked incrementally only after this many rows.
_EARLY_CHECK_FLOOR = 10_000

#: Physical lines per chunk. Fewer lines multiply the per-(stock, day) work
#: of a chunk on markets with many stocks; more raise peak memory (64k lines
#: took 40 MB more than 16k to ingest a 244k-row feed) for no gain.
_CHUNK_LINES = 1 << 14

#: Row outcome codes: 0 is a valid record, k > 0 is the reason _REASONS[k - 1].
_REASONS = ("field_count", "unparsable", "nonpositive", "bad_time")
_FIELD_COUNT, _UNPARSABLE, _NONPOSITIVE, _BAD_TIME = range(1, 5)

_MS_PER_DAY = 86_400_000
#: Widest plain-digit integer that fits int64, and the most digits a price
#: may have for mantissa / 10**k to be exact (both operands exact doubles).
_MAX_INT_DIGITS = 18
_MAX_PRICE_DIGITS = 15


def _parse_time_ms(s: str) -> int:
    h, m, sec = s.split(":")
    ms = 0
    if "." in sec:
        sec, frac = sec.split(".")
        ms = int((frac + "000")[:3])
    return ((int(h) * 60 + int(m)) * 60 + int(sec)) * 1000 + ms


def _parse_date(s: str) -> dt.date:
    return dt.date(int(s[0:4]), int(s[5:7]), int(s[8:10]))


def _parse_row(row: list, idx: tuple) -> tuple | int:
    """The per-row rule: a (date, stock, time_ms, price, volume, buy, sell)
    tuple for a valid row, else the reason code of a malformed one.

    ``idx`` holds the column count and the positions of date, stock, time,
    price, volume, buy and sell serial.
    """
    ncols, i_date, i_stock, i_time, i_price, i_vol, i_buy, i_sell = idx
    if len(row) != ncols:
        return _FIELD_COUNT
    try:
        d = _parse_date(row[i_date])
        time_ms = _parse_time_ms(row[i_time])
        price = float(row[i_price])
        volume = int(row[i_vol])
        buy_serial = int(row[i_buy])
        sell_serial = int(row[i_sell])
    except (ValueError, IndexError):
        return _UNPARSABLE
    if price <= 0.0 or volume <= 0 or buy_serial <= 0 or sell_serial <= 0:
        return _NONPOSITIVE
    if not 0 <= time_ms < _MS_PER_DAY:
        return _BAD_TIME
    return d, row[i_stock], time_ms, price, volume, buy_serial, sell_serial


# -- fast path: one chunk of plain lines as byte columns -------------------------


_POW10 = np.array([float(10**k) for k in range(_MAX_PRICE_DIGITS + 1)])


def _join_digits(d, positions) -> np.ndarray:
    """The integer the digit columns ``positions`` of ``d`` spell, per row."""
    value = np.zeros(len(d), np.int64)
    for k in positions:
        value = value * 10 + d[:, k]
    return value


def _fixed_width(buf, start, width: int):
    """The first ``width`` bytes of each field, and their digit values
    (above 9 for a non-digit)."""
    mat = buf[np.minimum(start[:, None] + np.arange(width), len(buf) - 1)]
    return mat, (mat - np.uint8(48)).astype(np.int64)


def _right_aligned(buf, start, end, width: int):
    """Byte windows of ``width`` ending at each field's end, their digit
    values, and the mask of the window bytes inside the field."""
    idx = end[:, None] - width + np.arange(width)
    mat = buf[np.maximum(idx, 0)]
    return mat, (mat - np.uint8(48)).astype(np.int64), idx >= start[:, None]


def _digits(buf, start, end):
    """Plain-digit integer fields: (value int64, ok mask)."""
    width = end - start
    ok = (width >= 1) & (width <= _MAX_INT_DIGITS)
    w = int(width[ok].max()) if ok.any() else 1
    _, d, inside = _right_aligned(buf, start, end, w)
    ok &= ((d <= 9) | ~inside).all(axis=1)
    return _join_digits(np.where(inside, d, 0), range(w)), ok


def _decimals(buf, start, end):
    """Plain decimal fields ``digits[.digits]``: (value float64, ok mask).

    The value is mantissa / 10**k with both operands exact, so the one
    correctly rounded division gives what ``float()`` returns.
    """
    width = end - start
    ok = (width >= 1) & (width <= _MAX_PRICE_DIGITS + 1)
    w = int(width[ok].max()) if ok.any() else 1
    mat, d, inside = _right_aligned(buf, start, end, w)
    digit = (d <= 9) & inside
    dot = (mat == ord(".")) & inside
    n_digits = digit.sum(axis=1)
    ok &= ((digit | dot) == inside).all(axis=1) & (dot.sum(axis=1) <= 1)
    ok &= (n_digits >= 1) & (n_digits <= _MAX_PRICE_DIGITS)
    mantissa = np.zeros(len(start), np.int64)
    for k in range(w):
        mantissa = np.where(digit[:, k], mantissa * 10 + d[:, k], mantissa)
    # digits after the dot: the window bytes right of it
    frac = np.where(dot.any(axis=1), w - 1 - dot.argmax(axis=1), 0)
    return mantissa / _POW10[frac], ok


def _times(buf, start, end):
    """``HH:MM:SS`` and ``HH:MM:SS.mmm`` fields: (time_ms int64, ok mask)."""
    width = end - start
    mat, d = _fixed_width(buf, start, 12)
    ms_form = width == 12
    ok = ((width == 8) | ms_form) & (d[:, [0, 1, 3, 4, 6, 7]] <= 9).all(axis=1)
    ok &= (mat[:, 2] == ord(":")) & (mat[:, 5] == ord(":"))
    ok &= ~ms_form | ((mat[:, 8] == ord(".")) & (d[:, 9:12] <= 9).all(axis=1))
    sec = _join_digits(d, (0, 1)) * 3600 + _join_digits(d, (3, 4)) * 60 + _join_digits(d, (6, 7))
    return sec * 1000 + np.where(ms_form, _join_digits(d, (9, 10, 11)), 0), ok


def _yyyymmdd(buf, start, end):
    """``YYYY?MM?DD`` fields as the integer yyyymmdd: (value int64, ok mask).

    The per-row rule reads the same three digit runs and ignores the two
    separators, so it agrees wherever the mask holds.
    """
    digits = (0, 1, 2, 3, 5, 6, 8, 9)
    _, d = _fixed_width(buf, start, 10)
    ok = (end - start == 10) & (d[:, digits] <= 9).all(axis=1)
    return _join_digits(d, digits), ok


def _factorize(buf, start, end):
    """Distinct byte strings of the fields and the code of each row."""
    width = end - start
    codes = np.empty(len(start), np.intp)
    values: list[bytes] = []
    # the distinct widths, ascending; a bare np.unique would import numpy.ma
    # (about 10 ms) into every process that reads a file
    for w in np.flatnonzero(np.bincount(width)).tolist():
        rows = np.flatnonzero(width == w)
        if w == 0:  # no S0 dtype: every empty field is one value
            codes[rows] = len(values)
            values.append(b"")
            continue
        mat = buf[start[rows, None] + np.arange(w)]
        keys = mat.view(f"S{w}").ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        codes[rows] = inverse + len(values)
        values.extend(mat[k].tobytes() for k in first.tolist())
    return values, codes


class _Columns:
    """Outcomes and column values of the rows of one chunk, being assembled."""

    def __init__(self, n: int):
        self.status = np.zeros(n, np.int8)
        self.stock_idx = np.zeros(n, np.intp)
        self.date_idx = np.zeros(n, np.intp)
        self.time_ms = np.zeros(n, np.int64)
        self.price = np.zeros(n, np.float64)
        self.volume = np.zeros(n, np.int64)
        self.buy_serial = np.zeros(n, np.int64)
        self.sell_serial = np.zeros(n, np.int64)
        self.stocks: dict[str, int] = {}
        self.dates: dict[dt.date, int] = {}

    def set_row(self, k: int, outcome) -> None:
        """Store the per-row rule's outcome for row ``k``."""
        if isinstance(outcome, int):
            self.status[k] = outcome
            return
        d, stock, t, p, v, b, s = outcome
        self.status[k] = 0
        self.date_idx[k] = self.dates.setdefault(d, len(self.dates))
        self.stock_idx[k] = self.stocks.setdefault(stock, len(self.stocks))
        try:
            self.time_ms[k], self.volume[k], self.buy_serial[k], self.sell_serial[k] = t, v, b, s
        except OverflowError:
            raise DataError(f"integer field out of range: {outcome}") from None
        self.price[k] = p

    def chunk(self, rows) -> TransactionChunk:
        """The valid rows among ``rows`` as a TransactionChunk."""
        keep = rows[self.status[rows] == 0]
        t = self.time_ms[keep]
        return TransactionChunk(
            list(self.stocks), list(self.dates), self.stock_idx[keep], self.date_idx[keep],
            t, self.price[keep], self.volume[keep], self.buy_serial[keep],
            self.sell_serial[keep], assign_bars(t),
        )


def split_fields(raw: bytes, delim: str, ncols: int):
    """Field byte ranges of LF-separated lines free of quotes, NUL and CR.

    Returns (buf, nonblank, regular, start, end): the bytes as a uint8
    array, per-line masks of the non-blank lines and of those with exactly
    ``ncols`` fields, and for each regular line, in order, the start and
    end offsets of its fields as (n, ncols) arrays.
    """
    if not raw.endswith(b"\n"):
        raw += b"\n"
    buf = np.frombuffer(raw, np.uint8)
    seps = np.flatnonzero((buf == ord(delim)) | (buf == 10))
    is_nl = buf[seps] == 10
    line_end = seps[is_nl]
    line_start = np.concatenate(([0], line_end[:-1] + 1))
    line_of_sep = np.cumsum(is_nl) - is_nl
    n_fields = np.bincount(line_of_sep, minlength=len(line_end))
    nonblank = line_end > line_start
    regular = nonblank & (n_fields == ncols)
    end = seps[regular[line_of_sep]].reshape(-1, ncols)
    start = np.empty_like(end)
    start[:, 0] = line_start[regular]
    start[:, 1:] = end[:, :-1] + 1
    return buf, nonblank, regular, start, end


def _fast_chunk(lines: list, text: str, delim: str, idx: tuple):
    """Outcomes of a chunk of lines free of quotes, NUL and CR but in CRLF
    line ends; ``text`` is the lines joined, with LF line ends.

    Returns (_Columns over its non-blank rows, line offset of each row).
    """
    ncols, i_date, i_stock, i_time, i_price, i_vol, i_buy, i_sell = idx
    raw = text.encode("utf-8")
    buf, nonblank, regular, start, end = split_fields(raw, delim, ncols)

    rows_line = np.flatnonzero(nonblank)
    cols = _Columns(len(rows_line))
    cols.status[~regular[rows_line]] = _FIELD_COUNT
    reg = np.flatnonzero(regular[rows_line])
    if len(reg):
        ymd, ok = _yyyymmdd(buf, start[:, i_date], end[:, i_date])
        ymd_uniq, date_code = np.unique(np.where(ok, ymd, 0), return_inverse=True)
        date_of = []
        for v in ymd_uniq.tolist():
            try:
                d = dt.date(v // 10_000, v // 100 % 100, v % 100)
            except ValueError:
                date_of.append(-1)
            else:
                date_of.append(cols.dates.setdefault(d, len(cols.dates)))
        date_idx = np.asarray(date_of, np.intp)[date_code]
        fallback = ~ok | (date_idx < 0)
        stock_raw, stock_code = _factorize(buf, start[:, i_stock], end[:, i_stock])
        stock_of = [cols.stocks.setdefault(s.decode("utf-8"), len(cols.stocks)) for s in stock_raw]
        stock_idx = np.asarray(stock_of, np.intp)[stock_code]

        time_ms, ok = _times(buf, start[:, i_time], end[:, i_time])
        fallback |= ~ok
        price, ok = _decimals(buf, start[:, i_price], end[:, i_price])
        fallback |= ~ok
        ints = []
        for i in (i_vol, i_buy, i_sell):
            value, ok = _digits(buf, start[:, i], end[:, i])
            ints.append(value)
            fallback |= ~ok
        volume, buy_serial, sell_serial = ints

        status = np.zeros(len(reg), np.int8)
        nonpositive = (price <= 0.0) | (volume <= 0) | (buy_serial <= 0) | (sell_serial <= 0)
        status[(time_ms < 0) | (time_ms >= _MS_PER_DAY)] = _BAD_TIME
        status[nonpositive] = _NONPOSITIVE
        cols.status[reg] = status
        cols.stock_idx[reg] = stock_idx
        cols.date_idx[reg] = date_idx
        cols.time_ms[reg] = time_ms
        cols.price[reg] = price
        cols.volume[reg] = volume
        cols.buy_serial[reg] = buy_serial
        cols.sell_serial[reg] = sell_serial

        for k in np.flatnonzero(fallback).tolist():
            row = lines[int(rows_line[reg[k]])].rstrip("\r\n").split(delim)
            cols.set_row(int(reg[k]), _parse_row(row, idx))
    return cols, rows_line


def _csv_chunk(lines: list, rest, delim: str, idx: tuple):
    """Outcomes of a chunk read through ``csv``, as the row-by-row reader does.

    A quoted field may carry a record past the chunk's last line; the lines
    it needs are taken from ``rest``. Returns (_Columns, line offset of each
    row, lines consumed).
    """
    consumed = 0

    def source():
        nonlocal consumed
        for line in chain(lines, rest):
            consumed += 1
            yield line

    reader = csv.reader(source(), delimiter=delim)
    rows, offsets = [], []
    while consumed < len(lines):
        row = next(reader, None)
        if row is None:
            break
        if row:
            rows.append(row)
            offsets.append(consumed - 1)
    cols = _Columns(len(rows))
    for k, row in enumerate(rows):
        cols.set_row(k, _parse_row(row, idx))
    return cols, np.asarray(offsets, np.int64), consumed


def _settle(cols, linenos, report, malformed_threshold, path):
    """Account a chunk's rows in ``report``; return (chunk, abort message).

    Rows are accounted in file order up to the row at which the early
    abort check trips, if it does; that row ends the returned chunk.
    """
    n = len(cols.status)
    bad = cols.status != 0
    total = report.total_rows + np.arange(1, n + 1)
    malformed = report.malformed_rows + np.cumsum(bad)
    stop, message = n, None
    for k in np.flatnonzero(total % _EARLY_CHECK_FLOOR == 0).tolist():
        t, m = int(total[k]), int(malformed[k])
        if m and t >= _EARLY_CHECK_FLOOR and m > malformed_threshold * t:
            stop, message = k + 1, f"malformed share exceeds {malformed_threshold:.4%} in {path}: "
            break
    rows = np.arange(stop)
    chunk = cols.chunk(rows)
    report.total_rows += stop
    report.parsed_rows += len(chunk)
    report.off_grid_rows += int(np.count_nonzero(chunk.bar == 0))
    for k in np.flatnonzero(bad[:stop]).tolist():
        report.note_malformed(int(linenos[k]), _REASONS[int(cols.status[k]) - 1])
    if message:
        message += report.summary()
    return chunk, message


def iter_transactions(
    path,
    schema: ColumnSchema = DEFAULT_SCHEMA,
    *,
    report: ParseReport | None = None,
    malformed_threshold: float = 0.001,
) -> Iterator[TransactionChunk]:
    """Stream the valid records of a delimited file as TransactionChunks, in file order.

    ``report`` (a ParseReport) is filled in place chunk by chunk, so row
    counts reconcile against the source file even mid-stream. Raises
    InputError for unreadable files, DataError for a header that does not
    match the schema or for a malformed share above ``malformed_threshold``;
    an early abort first yields the valid rows before the row it stops at.
    """
    if report is None:
        report = ParseReport()
    try:
        fh = open(path, "r", newline="", buffering=io.DEFAULT_BUFFER_SIZE * 16)
    except OSError as exc:
        raise InputError(f"cannot read transactions file {path}: {exc}") from exc

    delim = schema.delimiter
    idx = (len(schema.columns),) + tuple(schema.index_of(f) for f in FIELDS)
    with fh:
        lineno = 0
        if schema.has_header:
            reader = csv.reader(fh, delimiter=delim)
            try:
                header = next(reader)
            except StopIteration:
                return
            lineno = reader.line_num
            if tuple(h.strip() for h in header) != schema.columns:
                raise DataError(
                    f"header mismatch in {path}: expected {list(schema.columns)}, "
                    f"found {header}"
                )

        while True:
            lines = list(islice(fh, _CHUNK_LINES))
            if not lines:
                break
            text = "".join(lines)
            if "\r" in text:
                text = text.replace("\r\n", "\n")
            if not delim.isascii() or '"' in text or "\r" in text or "\0" in text:
                cols, offsets, consumed = _csv_chunk(lines, fh, delim, idx)
            else:
                cols, offsets = _fast_chunk(lines, text, delim, idx)
                consumed = len(lines)
            chunk, abort = _settle(cols, lineno + 1 + offsets, report, malformed_threshold, path)
            lineno += consumed
            if len(chunk):
                yield chunk
            if abort:
                raise DataError(abort)

    if report.total_rows and report.malformed_rows > malformed_threshold * report.total_rows:
        raise DataError(
            f"malformed share exceeds {malformed_threshold:.4%} in {path}: " + report.summary()
        )


def parse_transactions(
    path,
    schema: ColumnSchema = DEFAULT_SCHEMA,
    *,
    malformed_threshold: float = 0.001,
) -> tuple[list[TransactionRecord], ParseReport]:
    """Eager convenience wrapper: returns (records, report). Test-sized inputs only."""
    report = ParseReport()
    records = [
        rec
        for chunk in iter_transactions(
            path, schema, report=report, malformed_threshold=malformed_threshold
        )
        for rec in chunk.records()
    ]
    return records, report
