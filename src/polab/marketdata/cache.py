"""Compact binary cache of a feed's man-times counts, for fast re-analysis.

Layout (all little-endian), version 5:

    header:  magic "PLAB1" | u16 version | u8 reserved | u64 n_blocks
    block:   u16 stock-id length | stock-id utf8 | u32 date yyyymmdd | u32 n_rows
             | u8 n_cells | u8 width | u8 bar[c] | uW counts[c][4]
    trailer: u64 feed size | i64 feed mtime (ns) | u64 feed rows | u32 crc32
             | magic "PLAB1"

A block holds one (stock, trading day): its feed row count, off-grid rows
included, so row counts reconcile against the source file, and the
man-times counts that every analysis reads. A man-times count is the number
of distinct order serials on one side in one bar (see ``polab.panel``).
For each bar with any on-grid row, in rising order, the block holds the bar
and its four counts: buy and sell in bar scope (each serial counts in every
bar it trades in), then buy and sell in day scope (each serial counts once,
in the earliest bar it trades in). All of a block's counts take the
narrowest of u8, u16 and u32 that holds its largest; ``width`` is that size
in bytes. A (stock, day) whose rows are all off grid has a block with no
cells, so it still names its stock and date. The parser still reads and
validates each row's time, price and volume, which decide whether a row is
malformed or off-grid, but no analysis reads them back, and no serial is
kept once the counts are made.

No key has a second block. The writer takes the parser's chunks and
buffers their rows in bounded memory. Each flush writes a key's buffered
rows as one fragment of raw u32 serials, and all of its fragments in one
write to a temporary file that has no name. The writer counts each key
from its merged fragments when it closes, so the file is byte for byte the
one a single flush would write. A reader refuses a key it has already seen.

The trailer's CRC-32 covers every byte before it, the feed stamp included.
Readers check the header's magic and version, then the trailer's magic,
and refuse a cache of another version (re-run ``polab ingest``) or one
that does not match its CRC. The stamp holds the feed that ingest named,
if any (else 0xff bytes), for ``check_feed``. The writer finishes the
whole file under the temporary name ``<cache>.<pid>.tmp`` and publishes it
by one rename; a writer removes the temporary caches that writers which no
longer run left beside its path.
"""

from __future__ import annotations

import datetime as dt
import glob
import os
import struct
import tempfile
import zlib
from array import array
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..errors import DataError, InputError
from .grid import BARS_PER_DAY
from .dates import int_to_date
from .schema import ParseReport, TransactionChunk

MAGIC = b"PLAB1"
VERSION = 5

_HEADER = struct.Struct("<5sHBQ")
_BLOCK_HEAD = struct.Struct("<H")
#: a block's date (yyyymmdd), row count, cell count and count width
_BLOCK_META = struct.Struct("<IIBB")
#: the trailer's feed stamp: the feed's size, mtime (ns) and row count
_STAMP = struct.Struct("<QqQ")
#: the trailer's end: the CRC-32 of every byte before it, and the magic
_SEAL = struct.Struct("<I5s")
_TRAILER_BYTES = _STAMP.size + _SEAL.size
#: the stamp of a cache whose ingest named no feed, every byte 0xff
_NO_FEED = _STAMP.unpack(b"\xff" * _STAMP.size)
#: the type of a block's counts, by their width in bytes
_COUNTS = {w: np.dtype(f"<u{w}") for w in (1, 2, 4)}

_U32_MAX = 2**32 - 1
#: integer columns whose values the cache's u32 may not hold
_U32_CHECKED = ("buy_serial", "sell_serial")

#: a row of a fragment, packed, as ``CacheWriter`` writes it
_ROW = np.dtype([("bar", "u1"), ("buy_serial", "<u4"), ("sell_serial", "<u4")])
#: a ``_ROW`` as plain bytes, which numpy gathers and scatters about five
#: times as fast as the record
_PACKED = np.dtype((np.void, _ROW.itemsize))

#: Rows ``write_cache`` buffers before a flush, about 0.7 MiB of packed
#: rows. A flush writes a fragment per key it holds, and the writer merges
#: the fragments of a key at close, so a smaller buffer leaves more to merge.
_FLUSH_ROWS = 80_659

#: rows the writer counts at once, as whole keys; a larger key goes alone.
#: Counting takes about 55 B of scratch a row, which fits in the heap that
#: the last flush freed, so it does not raise ingest's peak memory.
_COUNT_ROWS = 1 << 13


@dataclass
class CacheBlock:
    """One (stock, day) as ``iter_blocks`` reads it back: its feed row
    count, the bars with any on-grid row (u8, rising) and, a row per bar,
    their counts: buy and sell in bar scope, then buy and sell in day scope."""

    stock_id: str
    trade_date: dt.date
    n_rows: int
    bar: np.ndarray
    counts: np.ndarray


class FeedStamp(NamedTuple):
    """The feed a cache was built from, as its trailer records it."""

    size: int
    mtime_ns: int
    rows_total: int


def date_to_int(d: dt.date) -> int:
    return d.year * 10_000 + d.month * 100 + d.day


def _changes(a: np.ndarray) -> np.ndarray:
    """Where ``a`` differs from the value before it; its first value does."""
    new = np.empty(len(a), bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _man_times(rows: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The man-times counts of a batch of whole keys: each cell that has an
    on-grid row, as key << 8 | bar in rising order, and its counts, shape
    (cells, 4): buy and sell in bar scope, then buy and sell in day scope.

    ``rows`` holds the keys' ``_ROW``s one key after another, ``sizes`` each
    key's row count, so a key is its index in ``sizes``. Each on-grid row
    gets the index of its cell, which rises with (key, bar). On each side
    the rows' (key, serial, cell) are then sorted: a run of equal ones is
    one order's fills in one bar, which bar scope counts once, and the first
    run of an order is its earliest bar, where day scope counts it.
    """
    on = rows["bar"] > 0
    key = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)[on]
    code = key << 8 | rows["bar"][on]
    # in feed order, so mostly rising within a key: stable is timsort here,
    # quick on runs
    order = np.argsort(code, kind="stable")
    code = code[order]
    new = _changes(code)
    cells = code[new]
    cell = np.empty(len(code), np.int64)
    cell[order] = np.cumsum(new) - 1
    del code, new, order
    # serial and cell below the key: at most 13 + 32 + 14 bits in a batch
    shift = len(cells).bit_length()
    cell |= key << (32 + shift)
    counts = np.empty((len(cells), 4), np.int64)
    for side, name in enumerate(("buy_serial", "sell_serial")):
        fills = rows[name][on].astype(np.int64)
        fills <<= shift
        fills |= cell
        fills.sort()
        fills = fills[_changes(fills)]
        first = _changes(fills >> shift)
        fills &= (1 << shift) - 1
        counts[:, side] = np.bincount(fills, minlength=len(cells))
        counts[:, 2 + side] = np.bincount(fills[first], minlength=len(cells))
    return cells, counts


def _remove_orphans(path: Path) -> None:
    """Delete the temporary caches ``<path>.<pid>.tmp`` beside ``path``
    whose writer no longer runs, as an ingest killed before its rename
    leaves them."""
    for tmp in path.parent.glob(f"{glob.escape(path.name)}.*.tmp"):
        pid = tmp.name[len(path.name) + 1 : -len(".tmp")]
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            tmp.unlink(missing_ok=True)
        except (OSError, OverflowError):
            pass  # it runs under another user, or the name holds no pid


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read cache file {path}: {exc}") from exc


def _record(fh, path) -> tuple[int, int, int, FeedStamp | None]:
    """The cache's block count, recorded CRC-32, size and feed, read from
    its header and trailer without moving ``fh``.

    The header's magic and version are checked before the trailer, so a
    cache of another version is refused as one, whatever its end holds.
    """
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    head = os.pread(fd, _HEADER.size, 0)
    if len(head) < _HEADER.size:
        raise DataError(f"{path} is not a polab cache: truncated header")
    magic, version, _, n_blocks = _HEADER.unpack(head)
    if magic != MAGIC:
        raise DataError(f"{path} is not a polab cache: bad magic {magic!r}")
    if version != VERSION:
        raise DataError(
            f"unsupported cache version {version} in {path} (this polab reads "
            f"version {VERSION}); re-run `polab ingest` to rebuild it"
        )
    if size < _HEADER.size + _TRAILER_BYTES:
        raise DataError(f"truncated trailer in {path}; re-run `polab ingest` to rebuild it")
    tail = os.pread(fd, _TRAILER_BYTES, size - _TRAILER_BYTES)
    crc, end = _SEAL.unpack_from(tail, _STAMP.size)
    if end != MAGIC:
        raise DataError(f"bad trailer magic {end!r} in {path}: the cache is truncated or "
                        f"damaged; re-run `polab ingest` to rebuild it")
    stamp = _STAMP.unpack_from(tail)
    return n_blocks, crc, size, None if stamp == _NO_FEED else FeedStamp(*stamp)


def read_trailer(path) -> tuple[int, int, FeedStamp | None]:
    """The cache's recorded CRC-32, its size and its feed (None when its
    ingest named none). A cache of another version, or without a trailer,
    raises DataError."""
    with _open(path) as fh:
        return _record(fh, path)[1:]


class CacheWriter:
    """Writes the rows of parse chunks as a cache at ``path``.

    ``append`` buffers each chunk's rows, and every ``flush_rows`` rows the
    writer flushes them to a nameless temporary file beside ``path``: each
    key's rows as one fragment, keys in order of their first buffered row,
    in one write. Leaving the ``with`` block normally flushes the rest and
    writes the cache to a second temporary file, ``<path>.<pid>.tmp``, a
    block of counts per key and then the trailer, with ``feed`` if it has
    been set, and moves it onto ``path``. Leaving it by an exception deletes
    the temporary files and any older cache at ``path``, so a failed build
    leaves no cache behind. A new writer first deletes the temporary caches
    that writers which no longer run left beside ``path``.
    """

    def __init__(self, path, flush_rows: int = _FLUSH_ROWS):
        self._path = Path(path)
        self._tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        self._out = None
        try:
            _remove_orphans(self._path)
            self._fh = tempfile.TemporaryFile(dir=self._path.parent)
        except OSError as exc:
            raise InputError(f"cannot create cache file {path}: {exc}") from exc
        self._flush_rows = flush_rows
        # per fragment flushed: its key (stock code << 32 | yyyymmdd) and
        # its row count; fragments lie one after another in the file, each
        # its rows as packed ``_ROW``s
        self._stock_codes: dict[str, int] = {}
        self._keys, self._rows = array("q"), array("q")
        # the buffer: an id per key, in order of its first buffered row, with
        # its key as above; and per chunk its packed rows sorted by key id,
        # with the id and row count of each key's run
        self._ids: dict[tuple[str, dt.date], int] = {}
        self._id_keys = array("q")
        self._parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self.n_rows = 0
        self.feed: FeedStamp | None = None

    def append(self, chunk: TransactionChunk) -> None:
        """Buffer ``chunk``'s rows, and flush once ``flush_rows`` are
        buffered. A serial beyond the cache's u32, or a stock id longer
        than its u16 length, raises DataError."""
        n, n_dates = len(chunk), len(chunk.dates)
        if not n:
            return
        for name in _U32_CHECKED:
            if int(getattr(chunk, name).max()) > _U32_MAX:
                raise DataError(f"{name} overflows the cache's u32 column")
        n_local = len(chunk.stocks) * n_dates
        local = chunk.stock_idx * n_dates + chunk.date_idx
        # keys of 8 or 16 bits sort stably by radix, ten times the speed of 32
        order = np.argsort(local.astype(np.min_scalar_type(n_local)), kind="stable")
        count = np.bincount(local, minlength=n_local)
        keys = np.flatnonzero(count)  # the chunk's keys, as its ``local`` values
        counts = count[keys]
        first = order[np.cumsum(counts) - counts]  # each key's first row
        ids = np.empty(len(keys), np.int32)
        for i in np.argsort(first).tolist():  # new keys take ids in feed order
            stock, day = divmod(int(keys[i]), n_dates)
            ids[i] = self._id(chunk.stocks[stock], chunk.dates[day])
        rows = np.empty(n, _ROW)
        for name in _ROW.names:
            rows[name] = getattr(chunk, name)
        self._parts.append((ids, counts, rows.view(_PACKED)[order]))
        self._buffered += n
        self.n_rows += n
        if self._buffered >= self._flush_rows:
            self._flush()

    def _id(self, stock: str, day: dt.date) -> int:
        """The buffer's id of the key (stock, day), given the next one if it
        has none."""
        i = self._ids.get((stock, day))
        if i is None:
            code = self._stock_codes.get(stock)
            if code is None:
                if len(stock.encode("utf-8")) > 0xFFFF:
                    raise DataError(f"stock id {stock[:20]!r}... is longer than the cache's "
                                    f"65,535 UTF-8 bytes")
                code = self._stock_codes[stock] = len(self._stock_codes)
            i = self._ids[stock, day] = len(self._ids)
            self._id_keys.append(code << 32 | date_to_int(day))
        return i

    def _flush(self) -> None:
        """Write the buffer as one fragment per key, keys in order of their
        first buffered row and each key's rows in feed order.

        A counting scatter merges the chunks' runs into key order: a run's
        rows go to its key's next place. Each chunk's rows go once they are
        placed, so the scratch is about the buffer and a place a row of one
        chunk.
        """
        sizes = np.zeros(len(self._ids), np.int64)
        for ids, counts, _ in self._parts:
            sizes[ids] += counts
        next_place = np.cumsum(sizes) - sizes
        out = np.empty(self._buffered, _PACKED)
        parts, self._parts = self._parts[::-1], []
        while parts:
            ids, counts, rows = parts.pop()
            runs = np.repeat(next_place[ids] - (np.cumsum(counts) - counts), counts)
            out[runs + np.arange(len(rows))] = rows
            next_place[ids] += counts
        self._fh.write(out)
        self._keys.extend(self._id_keys)
        self._rows.frombytes(sizes.tobytes())
        self._ids, self._id_keys, self._buffered = {}, array("q"), 0

    def _write_blocks(self) -> None:
        """Write the cache to its temporary file, a block per key: keys in
        order of their first fragment, each counted from its fragments
        merged in file order; then the trailer.

        Keys go in batches of about ``_COUNT_ROWS`` rows. A batch's
        fragments are read back into one array of rows, one call for each
        run of fragments that lie one after another, as the keys of a
        single flush do; then the batch is counted at once."""
        self._fh.flush()
        keys = np.frombuffer(self._keys, dtype=np.int64)
        rows = np.frombuffer(self._rows, dtype=np.int64)
        starts = np.cumsum(rows)  # each fragment's first row in the file
        starts -= rows
        # each key's fragments in file order, and the keys in order of
        # their first fragment: a stable sort leaves a key's first fragment
        # at the head of its run
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        new = np.empty(len(keys), bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        del ordered
        bounds = np.append(np.flatnonzero(new), len(keys))
        del new
        by_first = np.argsort(order[bounds[:-1]])
        n_keys = len(by_first)
        # each key's value and row count, keys in order of their first fragment
        key_values = keys[order[bounds[:-1]]][by_first]
        key_rows = np.add.reduceat(rows[order], bounds[:-1])[by_first]
        batch = (np.cumsum(key_rows) - key_rows) // _COUNT_ROWS
        key_bounds = np.append(np.flatnonzero(np.diff(batch, prepend=-1)), n_keys).tolist()
        # each stock's id as a block starts it: its length, then its bytes
        heads = [_BLOCK_HEAD.pack(len(sid)) + sid for sid in map(str.encode, self._stock_codes)]

        self._out = open(self._tmp, "wb")
        header = _HEADER.pack(MAGIC, VERSION, 0, n_keys)
        self._out.write(header)
        crc = zlib.crc32(header)
        for ka, kb in pairwise(key_bounds):
            fb = np.concatenate([order[bounds[g] : bounds[g + 1]] for g in by_first[ka:kb].tolist()])
            sizes = key_rows[ka:kb]
            batch = np.empty(sizes.sum(), _ROW)
            self._read_fragments(fb, rows, starts, batch)
            cells, counts = _man_times(batch, sizes)
            del batch
            # each key's cells, and the width of its largest count
            n_cells = np.bincount(cells >> 8, minlength=kb - ka)
            largest = np.zeros(kb - ka, np.int64)
            filled = n_cells > 0
            ends = np.cumsum(n_cells)
            largest[filled] = np.maximum.reduceat(counts.max(axis=1), (ends - n_cells)[filled])
            widths = np.where(largest > 0xFFFF, 4, np.where(largest > 0xFF, 2, 1)).tolist()
            bars = (cells & 0xFF).astype(np.uint8)
            as_width = {w: counts.astype(f"<u{w}") for w in set(widths)}
            parts, lo = [], 0
            for key, n, hi, w in zip(key_values[ka:kb].tolist(), sizes.tolist(), ends.tolist(), widths):
                meta = _BLOCK_META.pack(key & 0xFFFFFFFF, n, hi - lo, w)
                parts += (heads[key >> 32], meta, bars[lo:hi], as_width[w][lo:hi])
                lo = hi
            raw = b"".join(parts)
            del parts, as_width
            self._out.write(raw)
            crc = zlib.crc32(raw, crc)
        stamp = _STAMP.pack(*(self.feed or _NO_FEED))
        self._out.write(stamp + _SEAL.pack(zlib.crc32(stamp, crc), MAGIC))
        self._out.close()

    def _read_fragments(self, frags: np.ndarray, rows: np.ndarray, starts: np.ndarray, out) -> None:
        """Fill ``out`` with the rows of fragments ``frags``, one after
        another. ``rows`` and ``starts`` give every fragment's row count and
        first row in the file. Each run of fragments that lie one after
        another, as a single flush's keys do, is read into place by one
        ``preadv``."""
        first = np.flatnonzero(np.diff(frags, prepend=-2) != 1)  # each run's first fragment
        ends = np.cumsum(np.add.reduceat(rows[frags], first)) * _ROW.itemsize
        buf, fd, lo = memoryview(out.view(np.uint8)), self._fh.fileno(), 0
        for at, hi in zip((starts[frags[first]] * _ROW.itemsize).tolist(), ends.tolist()):
            if os.preadv(fd, [buf[lo:hi]], at) != hi - lo:
                raise OSError(f"short read from the fragments of {self._path}")
            lo = hi

    def close(self) -> None:
        try:
            if self._buffered:
                self._flush()
            self._write_blocks()
            self._fh.close()
            os.replace(self._tmp, self._path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        for fh in (self._fh, self._out):
            if fh is not None:
                fh.close()
        for path in (self._tmp, self._path):
            path.unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.abort()


def iter_blocks(path) -> Iterator[CacheBlock]:
    """Yield cache blocks in file order, one per (stock, day).

    Validates magic and version, the trailer's magic, every length against
    the bytes the file holds, each block's date, stock id, count width and
    bars, that no (stock, day) has a second block, and the CRC-32 of the
    file against its trailer's. The CRC is compared after the last block,
    so a caller that drains the iterator has checked the file before it
    uses any result. Every violation raises DataError.
    """
    with _open(path) as fh:
        n_blocks, recorded_crc, size, _ = _record(fh, path)
        end = size - _TRAILER_BYTES  # where the blocks end
        pos = crc = 0

        def take(n: int, what: str) -> bytes:
            nonlocal pos, crc
            if n > end - pos:
                raise DataError(f"truncated {what} in {path} at byte {pos}")
            raw = fh.read(n)
            pos += n
            crc = zlib.crc32(raw, crc)
            return raw

        take(_HEADER.size, "header")  # checked by _record; read again for the CRC
        seen = set()
        for _ in range(n_blocks):
            (sid_len,) = _BLOCK_HEAD.unpack(take(_BLOCK_HEAD.size, "block header"))
            head = take(sid_len + _BLOCK_META.size, "block header")
            try:
                stock_id = head[:sid_len].decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"stock id is not UTF-8 in {path} at byte {pos}") from None
            date_int, n_rows, n_cells, width = _BLOCK_META.unpack_from(head, sid_len)
            try:
                trade_date = int_to_date(date_int)
            except ValueError:
                raise DataError(f"bad date {date_int} in {path} at byte {pos}") from None
            if width not in _COUNTS:
                raise DataError(f"bad count width {width} in {path} at byte {pos}")
            if (stock_id, date_int) in seen:
                raise DataError(f"second block for ({stock_id!r}, {trade_date}) in {path} at byte "
                                f"{pos}, as an older polab wrote; re-run `polab ingest` to rebuild it")
            seen.add((stock_id, date_int))
            raw = take((1 + 4 * width) * n_cells, "block")
            bars = raw[:n_cells]
            # rising bars on the grid: each cell of the day at most once
            if bars and not (bars[0] >= 1 and bars[-1] <= BARS_PER_DAY and bytes(sorted(set(bars))) == bars):
                raise DataError(f"bars out of range or order in {path} before byte {pos}")
            yield CacheBlock(stock_id, trade_date, n_rows, np.frombuffer(raw, np.uint8, n_cells),
                             np.frombuffer(raw, _COUNTS[width], 4 * n_cells, n_cells).reshape(n_cells, 4))
        if pos != end:
            raise DataError(f"{path} has {end - pos} bytes after its last block")
        if zlib.crc32(fh.read(_STAMP.size), crc) != recorded_crc:
            raise DataError(f"cache {path} does not match its checksum")


def write_cache(
    path,
    chunks: Iterable[TransactionChunk],
    flush_rows: int = _FLUSH_ROWS,
    feed=None,
    report: ParseReport | None = None,
) -> int:
    """Write a stream of parsed chunks as a cache, with bounded memory.

    The writer buffers the chunks' rows and flushes them every
    ``flush_rows`` rows, each key's rows as one fragment of raw serials. It
    merges and counts each key's fragments at close, so the file does not
    depend on ``flush_rows``. A chunk whose serial overflows the fragments'
    u32 columns, or whose stock id is longer than 65,535 UTF-8 bytes,
    raises DataError as it arrives.

    ``feed``, the file the chunks are parsed from, is stamped before the
    first chunk is read and recorded in the cache's trailer with the
    ``report.total_rows`` the parse counted, for ``check_feed``. Returns the
    number of rows written.
    """
    if feed is not None:
        try:
            st = os.stat(feed)
        except OSError as exc:
            raise InputError(f"cannot read {feed}: {exc}") from exc
    with CacheWriter(path, flush_rows) as writer:
        for chunk in chunks:
            writer.append(chunk)
            del chunk  # not held while the parser reads the next block
        if feed is not None:
            writer.feed = FeedStamp(st.st_size, st.st_mtime_ns, report.total_rows)
        return writer.n_rows


def check_feed(path, feed) -> None:
    """Refuse the cache at ``path`` if ``feed`` changed since it was ingested.

    Raises DataError when ``feed``'s size or mtime differs from what the
    cache's trailer holds, or when the cache has no trailer or another
    version. Passes when the trailer names no feed or ``feed`` no longer
    exists: then there is nothing to compare.
    """
    _, _, stamp = read_trailer(path)
    if stamp is None:
        return
    try:
        st = os.stat(feed)
    except FileNotFoundError:
        return
    except OSError as exc:
        raise InputError(f"cannot read {feed}: {exc}") from exc
    if (st.st_size, st.st_mtime_ns) != (stamp.size, stamp.mtime_ns):
        raise DataError(
            f"cache {path} was built from an earlier {feed}: the feed's size or mtime "
            f"has changed since; re-run `polab ingest` to rebuild the cache"
        )
