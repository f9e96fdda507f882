"""Chunked, vectorised streaming parser for delimited transaction files.

The file is read as binary blocks of about ``_BLOCK_BYTES`` bytes, each
read on to the next LF, so memory use is independent of file size and no
line is split between blocks. A block is split into fields, read as byte
windows with numpy: date, time and the serials are converted, while price
and volume are checked as bytes and not converted, as the cache keeps
neither; each is positive when a digit other than 0 is in it. The
``nonpositive`` and ``bad_time`` rules run as masks. A row the fast path
cannot read exactly (a field that is not plain digits, a price with more
than 15 digits, an unusual time width) goes through the per-row rule
``_parse_row``. So does every row of a block holding a quote,
a NUL, a carriage return outside a CRLF line end or bytes that are not
UTF-8, and of every block when the delimiter is not ASCII: such blocks are
decoded and read with ``csv``, their lines split at CR, LF and CRLF and
numbered exactly as a row-by-row text reader would. Either way each row
gets the outcome of ``_parse_row``, except that a row holding bytes that
are not UTF-8 is ``unparsable``. Time, price and volume decide a row's
outcome, but a chunk keeps of each valid row only its stock, date, bar and
two serials: what the cache stores.

Malformed rows are counted per reason and reported, never silently
dropped; once their share exceeds the abort threshold the parse stops with
a summary, which protects against schema drift while tolerating isolated
corruption.
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from itertools import chain
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataError, InputError
from .grid import assign_bar, assign_bars
from .schema import DEFAULT_SCHEMA, FIELDS, ColumnSchema, ParseReport, TransactionChunk

#: Abort threshold checked incrementally only after this many rows.
_EARLY_CHECK_FLOOR = 10_000

#: Bytes read per block, about 9,500 lines of a typical feed. Against 1 MiB,
#: the dense and wide bench feeds parsed in 118.5 and 36.6 ms of CPU, not
#: 127.4 and 38.1 (medians of 21 alternating reps), and ``ingest`` peaked 3
#: and 5 MB lower. 256 KiB parsed up to 5% slower, 128 KiB 25-35% slower.
_BLOCK_BYTES = 1 << 19

#: One line as a text reader with ``newline=""`` splits them: ended by CRLF,
#: a lone CR or LF, or by the end of the file.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

#: Row outcome codes: 0 is a valid record, k > 0 is the reason _REASONS[k - 1].
_REASONS = ("field_count", "unparsable", "nonpositive", "bad_time")
_FIELD_COUNT, _UNPARSABLE, _NONPOSITIVE, _BAD_TIME = range(1, 5)

_MS_PER_DAY = 86_400_000
#: Widest plain-digit integer that fits int64, and the most digits a price
#: may have for mantissa / 10**k to be exact (both operands exact doubles).
_MAX_INT_DIGITS = 18
_MAX_PRICE_DIGITS = 15
#: Largest volume or serial a valid row may hold; the serials are kept as int64.
_INT64_MAX = (1 << 63) - 1


def _parse_time_ms(s: str) -> int:
    h, m, sec = s.split(":")
    ms = 0
    if "." in sec:
        sec, frac = sec.split(".")
        ms = int((frac + "000")[:3])
    return ((int(h) * 60 + int(m)) * 60 + int(sec)) * 1000 + ms


def _parse_date(s: str) -> dt.date:
    return dt.date(int(s[0:4]), int(s[5:7]), int(s[8:10]))


def int_to_date(v: int) -> dt.date:
    """The date of a yyyymmdd integer; ValueError if it is not a calendar date."""
    return dt.date(v // 10_000, v // 100 % 100, v % 100)


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

#: Zero bytes on each side of a block in ``split_fields``: every field window
#: read here, at most 18 bytes from a field's start or up to its end, lies
#: inside the array.
_PAD = 20

_POW10 = np.array([float(10**k) for k in range(_MAX_PRICE_DIGITS + 1)])
#: Digit values of a colon and a dot: byte - 48, wrapped in uint8.
_COLON, _DOT = ord(":") - 48, (ord(".") - 48) & 0xFF


def _digit_rows(buf, offsets, width: int) -> np.ndarray:
    """Digit values (byte - 48, so a non-digit reads above 9) of the
    ``width`` bytes from each offset on, as a (width, n) array: row k holds
    byte k of every window."""
    rows = np.ascontiguousarray(sliding_window_view(buf, width)[offsets].T)
    rows -= np.uint8(48)
    return rows


def _join_digits(d, positions, dtype=np.int64) -> np.ndarray:
    """The integer the digit rows ``positions`` of ``d`` spell, per field."""
    value = np.zeros(d.shape[1], dtype)
    for k in positions:
        value = value * 10 + d[k]
    return value


def _right_aligned(buf, start, end, max_width: int):
    """Digit rows of windows ending at each field's end, 0 left of the
    field, as wide as the widest field of 1 to ``max_width`` bytes; and the
    mask of those fields."""
    width = end - start
    ok = (width >= 1) & (width <= max_width)
    w = int(width[ok].max()) if ok.any() else 1
    d = _digit_rows(buf, end - w, w)
    d *= (w - width) <= np.arange(w)[:, None]
    return d, ok


def _digits(buf, start, end):
    """Plain-digit integer fields of at most 18 digits: (digit rows as
    ``_right_aligned`` gives them, ok mask). ``_join_digits(d, range(len(d)))``
    is the value."""
    d, ok = _right_aligned(buf, start, end, _MAX_INT_DIGITS)
    return d, ok & (d.max(axis=0) <= 9)


def _decimals(buf, start, end):
    """Plain decimal fields ``digits[.digits]`` of at most 15 digits: (digit
    rows as ``_right_aligned`` gives them, where a dot reads ``_DOT``; ok
    mask)."""
    d, ok = _right_aligned(buf, start, end, _MAX_PRICE_DIGITS + 1)
    dot = d == _DOT
    dots = dot.sum(axis=0, dtype=np.uint8)
    n_digits = end - start - dots
    ok &= ((d <= 9) | dot).all(axis=0) & (dots <= 1)
    return d, ok & (n_digits >= 1) & (n_digits <= _MAX_PRICE_DIGITS)


def _decimal_values(d) -> np.ndarray:
    """The values of ``_decimals``' fields where it holds.

    The value is mantissa / 10**k with both operands exact, so the one
    correctly rounded division gives what ``float()`` returns.
    """
    mantissa = np.zeros(d.shape[1], np.int64)
    frac = np.zeros(d.shape[1], np.intp)  # digits after the dot: the window bytes right of it
    for k in range(len(d)):
        dot = d[k] == _DOT
        mantissa = np.where(dot, mantissa, mantissa * 10 + d[k])
        frac[dot] = len(d) - 1 - k
    return mantissa / _POW10[frac]


def _positive(d) -> np.ndarray:
    """Whether each field of ``_digits`` or ``_decimals`` is above zero,
    where it holds: whether a digit other than 0 is in it."""
    return (d - np.uint8(1) < 9).any(axis=0)


def _times(buf, start, end):
    """``HH:MM:SS`` and ``HH:MM:SS.mmm`` fields: (time_ms int32, ok mask)."""
    width = end - start
    d = _digit_rows(buf, start, 12)
    ms_form = width == 12
    ok = ((width == 8) | ms_form) & (d[[0, 1, 3, 4, 6, 7]].max(axis=0) <= 9)
    ok &= (d[2] == _COLON) & (d[5] == _COLON)
    ok &= ~ms_form | ((d[8] == _DOT) & (d[9:12].max(axis=0) <= 9))
    hms = [_join_digits(d, pair, np.int32) for pair in ((0, 1), (3, 4), (6, 7))]
    ms = np.where(ms_form, _join_digits(d, (9, 10, 11), np.int32), 0)
    return ((hms[0] * 60 + hms[1]) * 60 + hms[2]) * 1000 + ms, ok


def _yyyymmdd(buf, start, end):
    """``YYYY?MM?DD`` fields as the integer yyyymmdd: (value int32, ok mask).

    The per-row rule reads the same three digit runs and ignores the two
    separators, so it agrees wherever the mask holds.
    """
    digits = (0, 1, 2, 3, 5, 6, 8, 9)
    d = _digit_rows(buf, start, 10)
    ok = (end - start == 10) & (d[list(digits)].max(axis=0) <= 9)
    return _join_digits(d, digits, np.int32), ok


def _factorize(buf, start, end):
    """Distinct byte strings of the fields and the code of each row."""
    width = end - start
    codes = np.empty(len(start), np.intp)
    values: list[bytes] = []
    # the distinct widths, ascending; a bare np.unique would import numpy.ma
    # (about 10 ms) into every process that reads a file
    for w in np.flatnonzero(np.bincount(width)).tolist():
        rows = np.flatnonzero(width == w)
        mat = sliding_window_view(buf, w)[start[rows]]
        if w <= 8:  # zero-padded to 8 bytes, a big-endian u8 sorts as the bytes do
            keys = np.zeros((len(rows), 8), np.uint8)
            keys[:, :w] = mat
            uniq, inverse = np.unique(keys.view(">u8").ravel(), return_inverse=True)
            values.extend(v.to_bytes(8, "big")[:w] for v in uniq.tolist())
        else:  # no NUL is in a field here, so none is stripped
            uniq, inverse = np.unique(mat.view(f"S{w}").ravel(), return_inverse=True)
            values.extend(uniq.tolist())
        codes[rows] = inverse + (len(values) - len(uniq))
    return values, codes


class _Columns:
    """Outcomes and kept columns of the rows of one chunk, being assembled."""

    def __init__(self, n: int):
        self.status = np.zeros(n, np.int8)
        self.stock_idx = np.zeros(n, np.intp)
        self.date_idx = np.zeros(n, np.intp)
        self.bar = np.zeros(n, np.int16)
        self.buy_serial = np.zeros(n, np.int64)
        self.sell_serial = np.zeros(n, np.int64)
        self.stocks: dict[str, int] = {}
        self.dates: dict[dt.date, int] = {}

    def set_row(self, k: int, outcome) -> None:
        """Store the per-row rule's outcome for row ``k``."""
        if isinstance(outcome, int):
            self.status[k] = outcome
            return
        d, stock, t, _, v, b, s = outcome
        if max(v, b, s) > _INT64_MAX:
            raise DataError(f"integer field out of range: {outcome}")
        self.status[k] = 0
        self.date_idx[k] = self.dates.setdefault(d, len(self.dates))
        self.stock_idx[k] = self.stocks.setdefault(stock, len(self.stocks))
        self.bar[k] = assign_bar(t)
        self.buy_serial[k], self.sell_serial[k] = b, s

    def chunk(self, rows) -> TransactionChunk:
        """The valid rows among ``rows`` as a TransactionChunk."""
        keep = rows[self.status[rows] == 0]
        return TransactionChunk(
            list(self.stocks), list(self.dates), self.stock_idx[keep], self.date_idx[keep],
            self.buy_serial[keep], self.sell_serial[keep], self.bar[keep],
        )


def split_fields(raw: bytes, delim: str, ncols: int):
    """Field byte ranges of LF-separated lines free of quotes, NUL and CR.

    Returns (buf, nonblank, regular, start, end): the bytes as a uint8
    array, ended by an LF and with ``_PAD`` zero bytes on each side; per-line
    masks of the non-blank lines and of those with exactly ``ncols`` fields;
    and the offsets in ``buf`` of the start and end of the fields of the
    regular lines as (ncols, n) arrays, row i holding field i of each line
    in order.
    """
    size = len(raw) + (not raw.endswith(b"\n"))
    buf = np.zeros(size + 2 * _PAD, np.uint8)
    body = buf[_PAD : _PAD + size]
    body[: len(raw)] = np.frombuffer(raw, np.uint8)
    body[-1] = 10
    seps = np.flatnonzero((body == ord(delim)) | (body == 10)) + _PAD
    nl = np.flatnonzero(buf[seps] == 10)  # the separator that ends each line
    line_end = seps[nl]
    line_start = np.concatenate(([_PAD], line_end[:-1] + 1))
    n_fields = np.diff(nl, prepend=-1)
    nonblank = line_end > line_start
    regular = nonblank & (n_fields == ncols)
    end = np.ascontiguousarray(seps[np.repeat(regular, n_fields)].reshape(-1, ncols).T)
    start = np.empty_like(end)
    start[0] = line_start[regular]
    start[1:] = end[:-1] + 1
    return buf, nonblank, regular, start, end


def _fast_chunk(raw: bytes, delim: str, idx: tuple):
    """Outcomes of a block of UTF-8, LF-separated lines free of quotes, NUL
    and CR.

    Returns (_Columns over its non-blank rows, line offset of each row,
    number of lines).
    """
    ncols, i_date, i_stock, i_time, i_price, i_vol, i_buy, i_sell = idx
    buf, nonblank, regular, start, end = split_fields(raw, delim, ncols)

    rows_line = np.flatnonzero(nonblank)
    cols = _Columns(len(rows_line))
    cols.status[~regular[rows_line]] = _FIELD_COUNT
    reg = np.flatnonzero(regular[rows_line])
    if len(reg):
        ymd, ok = _yyyymmdd(buf, start[i_date], end[i_date])
        ymd_uniq, date_code = np.unique(np.where(ok, ymd, 0), return_inverse=True)
        date_of = []
        for v in ymd_uniq.tolist():
            try:
                d = int_to_date(v)
            except ValueError:
                date_of.append(-1)
            else:
                date_of.append(cols.dates.setdefault(d, len(cols.dates)))
        date_idx = np.asarray(date_of, np.intp)[date_code]
        fallback = ~ok | (date_idx < 0)
        stock_raw, stock_code = _factorize(buf, start[i_stock], end[i_stock])
        stock_of = [cols.stocks.setdefault(s.decode("utf-8"), len(cols.stocks)) for s in stock_raw]
        stock_idx = np.asarray(stock_of, np.intp)[stock_code]

        time_ms, ok = _times(buf, start[i_time], end[i_time])
        fallback |= ~ok
        # price and volume decide the outcome, but only whether they are positive
        d, ok = _decimals(buf, start[i_price], end[i_price])
        fallback |= ~ok
        positive = _positive(d)
        d, ok = _digits(buf, start[i_vol], end[i_vol])
        fallback |= ~ok
        positive &= _positive(d)
        serials = []
        for i in (i_buy, i_sell):
            d, ok = _digits(buf, start[i], end[i])
            serials.append(_join_digits(d, range(len(d))))
            fallback |= ~ok
        buy_serial, sell_serial = serials

        status = np.zeros(len(reg), np.int8)
        nonpositive = ~positive | (buy_serial <= 0) | (sell_serial <= 0)
        status[(time_ms < 0) | (time_ms >= _MS_PER_DAY)] = _BAD_TIME
        status[nonpositive] = _NONPOSITIVE
        cols.status[reg] = status
        cols.stock_idx[reg] = stock_idx
        cols.date_idx[reg] = date_idx
        cols.bar[reg] = assign_bars(time_ms)
        cols.buy_serial[reg] = buy_serial
        cols.sell_serial[reg] = sell_serial

        for k in np.flatnonzero(fallback).tolist():
            row = buf[start[0, k] : end[-1, k]].tobytes().decode("utf-8").split(delim)
            cols.set_row(int(reg[k]), _parse_row(row, idx))
    return cols, rows_line, len(nonblank)


def is_utf8(text: str) -> bool:
    """False when ``text`` holds a byte that was not UTF-8, decoded to a
    surrogate by ``surrogateescape``."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _csv_chunk(lines: list, rest, delim: str, idx: tuple):
    """Outcomes of a block read through ``csv``, as the row-by-row reader does.

    A quoted field may carry a record past the block's last line; the lines
    it needs are taken from ``rest``. A row holding bytes that are not UTF-8
    is unparsable. Returns (_Columns, line offset of each row, lines
    consumed).
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
        cols.set_row(k, _parse_row(row, idx) if is_utf8("".join(row)) else _UNPARSABLE)
    return cols, np.asarray(offsets, np.int64), consumed


def _text_lines(raw: bytes) -> list:
    """The lines of ``raw``, split and decoded as ``_Feed.lines`` does."""
    return [line.decode("utf-8", "surrogateescape") for line in _LINE.findall(raw)]


class _Feed:
    """The bytes of an open binary file, handed out as whole lines.

    ``block`` returns the next block of lines, about ``block_bytes`` long
    and ending after an LF unless the file ends first. ``lines`` yields the
    next lines one at a time, as ``csv`` needs them; the two may be mixed.
    It reads every input text file: the feed, and the price and side files
    in ``prices``.
    """

    def __init__(self, fh, block_bytes: int):
        self._fh = fh
        self._block_bytes = block_bytes
        self._buf = b""  # whole lines; the unread ones start at _pos
        self._pos = 0

    def _fill(self) -> bool:
        """Read the next whole lines into the (consumed) buffer; False at
        the end of the file."""
        data = self._fh.read(self._block_bytes)
        data += self._fh.readline()  # on to the next LF, or the end of the file
        self._buf, self._pos = data, 0
        return bool(data)

    def block(self) -> bytes:
        """The next whole lines; b"" at the end of the file."""
        if self._pos == len(self._buf) and not self._fill():
            return b""
        out = self._buf[self._pos :]
        self._pos = len(self._buf)
        return out

    def lines(self):
        """The next lines one at a time, split at CR, LF and CRLF as a text
        reader with ``newline=""`` splits them; bytes that are not UTF-8
        decode to surrogates."""
        while self._pos < len(self._buf) or self._fill():
            line = _LINE.match(self._buf, self._pos)
            self._pos = line.end()
            yield line.group().decode("utf-8", "surrogateescape")


def _plain(raw: bytes) -> bytes | None:
    """``raw`` with CRLF line ends made LF, or None when the fast path may
    not read it: a quote, a NUL, another CR, or bytes that are not UTF-8."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    return raw


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
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read transactions file {path}: {exc}") from exc

    delim = schema.delimiter
    idx = (len(schema.columns),) + tuple(schema.index_of(f) for f in FIELDS)
    with fh:
        feed = _Feed(fh, _BLOCK_BYTES)
        lineno = 0
        if schema.has_header:
            reader = csv.reader(feed.lines(), delimiter=delim)
            header = next(reader, None)
            if header is None:
                return
            lineno = reader.line_num
            if not is_utf8("".join(header)):
                raise DataError(f"header of {path} is not UTF-8")
            if tuple(h.strip() for h in header) != schema.columns:
                raise DataError(
                    f"header mismatch in {path}: expected {list(schema.columns)}, "
                    f"found {header}"
                )

        while raw := feed.block():
            plain = _plain(raw) if delim.isascii() else None
            if plain is not None:
                cols, offsets, consumed = _fast_chunk(plain, delim, idx)
            else:
                cols, offsets, consumed = _csv_chunk(_text_lines(raw), feed.lines(), delim, idx)
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
