"""Compact binary cache of parsed transactions, for fast re-analysis.

Layout (all little-endian), version 4:

    header:  magic "PLAB1" | u16 version | u8 reserved | u64 n_blocks
    block:   u16 stock-id length | stock-id utf8 | u32 date yyyymmdd | u32 n_rows
             | u8 widths | u8 bar[n] | uB buy_label[n] | uS sell_label[n]
    trailer: u64 feed size | i64 feed mtime (ns) | u64 feed rows | u32 crc32
             | magic "PLAB1"

A row keeps only what the panel counts: its bar and, on each side, the
order it fills. A man-times count needs an order's identity only within its
(stock, day), so a block holds each order as a label: the rank of its
serial among the block's distinct serials on that side, 0 for the smallest.
Within a (stock, day, side) labels and serials are one to one and in the
same order, so both serial scopes count the same cells from the labels as
from the serials. Each side's labels are held in the narrowest of u8, u16
and u32 that holds the block's largest label on that side; ``widths``
holds their sizes in bytes, B << 4 | S, so a row takes 3 to 9 B. A block
read back carries the labels in its ``buy_serial`` and ``sell_serial``.
The parser still reads and validates each row's time, price and volume,
which decide whether a row is malformed or off-grid, but no analysis reads
them back, so the cache does not keep them.

Each block holds all the rows of one (stock, trading day), in feed order,
and no key has a second block. The writer takes the parser's chunks and
buffers their rows in bounded memory. Each flush writes a key's buffered
rows as one fragment of raw u32 serials, and all of its fragments in one
write to a temporary file that has no name. The writer merges and labels
each key's fragments when it closes, so the file is byte for byte the one
a single flush would write. A reader refuses a key it has already seen.
Off-grid rows are kept with bar 0 so row counts reconcile against the
source file.

The trailer's CRC-32 covers every byte before it, the feed stamp included.
Readers check the header's magic and version, then the trailer's magic,
and refuse a cache of another version (re-run ``polab ingest``) or one
that does not match its CRC. The stamp holds the feed that ingest named,
if any (else 0xff bytes), for ``check_feed``. The writer finishes the
whole file under a temporary name and publishes it by one rename.
Analyses may keep a built panel beside the cache as
``<cache>.panel-<scope>.npz`` (see ``polab.panel``); the writer deletes
those whenever it replaces or deletes the cache.
"""

from __future__ import annotations

import datetime as dt
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
VERSION = 4

_HEADER = struct.Struct("<5sHBQ")
_BLOCK_HEAD = struct.Struct("<H")
#: a block's date (yyyymmdd), row count and label widths (buy << 4 | sell)
_BLOCK_META = struct.Struct("<IIB")
#: the trailer's feed stamp: the feed's size, mtime (ns) and row count
_STAMP = struct.Struct("<QqQ")
#: the trailer's end: the CRC-32 of every byte before it, and the magic
_SEAL = struct.Struct("<I5s")
_TRAILER_BYTES = _STAMP.size + _SEAL.size
#: the stamp of a cache whose ingest named no feed, every byte 0xff
_NO_FEED = _STAMP.unpack(b"\xff" * _STAMP.size)
#: the widths a side's labels may have, in bytes
_WIDTHS = (1, 2, 4)

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

#: rows the writer labels at once, as whole keys; a larger key goes alone.
#: Labelling takes about 25 B of scratch a row, which fits in the heap that
#: the last flush freed, so it does not raise ingest's peak memory.
_LABEL_ROWS = 1 << 13


@dataclass
class CacheBlock:
    """One (stock, day)'s rows as ``iter_blocks`` reads them back:
    ``buy_serial`` and ``sell_serial`` hold the orders' block-local labels."""

    stock_id: str
    trade_date: dt.date
    bar: np.ndarray
    buy_serial: np.ndarray
    sell_serial: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.bar)


class FeedStamp(NamedTuple):
    """The feed a cache was built from, as its trailer records it."""

    size: int
    mtime_ns: int
    rows_total: int


def date_to_int(d: dt.date) -> int:
    return d.year * 10_000 + d.month * 100 + d.day


def _block_bytes(stock_id: str, date_int: int, bar, buy, sell) -> bytes:
    """A block as the file holds it: its head, its bars, then its buy and
    its sell labels, each side in the unsigned type of its width."""
    sid = stock_id.encode("utf-8")
    meta = _BLOCK_META.pack(date_int, len(bar), buy.itemsize << 4 | sell.itemsize)
    return b"".join((_BLOCK_HEAD.pack(len(sid)), sid, meta, bar, buy, sell))


def _labels(serials: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, list]:
    """Each row's label on one side of a batch of whole keys, as uint32, and
    each key's label width: the bytes of the narrowest of u8, u16 and u32
    that holds its largest label.

    ``serials`` holds the keys' rows one key after another, ``sizes`` each
    key's row count. A row's label is the rank of its serial among its key's
    distinct serials: one argsort of (key, serial) and a running count of the
    distinct values, about 25 B of scratch a row.
    """
    n = len(serials)
    keyed = np.repeat(np.arange(len(sizes), dtype=np.uint64) << np.uint64(32), sizes)
    keyed |= serials
    # stable is timsort here, quick on serials that mostly rise through a day
    order = np.argsort(keyed, kind="stable")
    keyed = keyed[order]
    new = np.empty(n, bool)
    new[:1] = True
    np.not_equal(keyed[1:], keyed[:-1], out=new[1:])
    del keyed
    rank = np.cumsum(new, dtype=np.uint32)
    del new
    # each key's first row in ``order`` holds its smallest serial, label 0
    filled = sizes > 0
    first, filled_sizes = (np.cumsum(sizes) - sizes)[filled], sizes[filled]
    rank -= np.repeat(rank[first], filled_sizes)
    labels = np.empty(n, np.uint32)
    labels[order] = rank
    top = np.zeros(len(sizes), np.uint32)
    top[filled] = rank[first + filled_sizes - 1]
    return labels, np.where(top > 0xFFFF, 4, np.where(top > 0xFF, 2, 1)).tolist()


def panel_memo_path(path, serial_scope: str) -> Path:
    """The file beside a cache that keeps the panel built from it."""
    path = Path(path)
    return path.with_name(f"{path.name}.panel-{serial_scope}.npz")


def _remove_panel_memos(path: Path) -> None:
    prefix = f"{path.name}.panel-"
    for memo in path.parent.iterdir():
        if memo.name.startswith(prefix):
            memo.unlink(missing_ok=True)


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
    writes the cache to a second temporary file, a labelled block per key
    and then the trailer, with ``feed`` if it has been set, and moves it
    onto ``path``. Leaving it by an exception deletes the temporary files
    and any older cache at ``path``, so a failed build leaves no cache
    behind.
    """

    def __init__(self, path, flush_rows: int = _FLUSH_ROWS):
        self._path = Path(path)
        self._tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        self._out = None
        try:
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
        order of their first fragment, each key's fragments merged in file
        order and labelled; then the trailer.

        Keys go in batches of about ``_LABEL_ROWS`` rows. A batch's
        fragments are read back into one array of rows, one call for each
        run of fragments that lie one after another, as the keys of a
        single flush do; then each side is labelled at once."""
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
        batch = (np.cumsum(key_rows) - key_rows) // _LABEL_ROWS
        key_bounds = np.append(np.flatnonzero(np.diff(batch, prepend=-1)), n_keys).tolist()
        stocks = list(self._stock_codes)

        self._out = open(self._tmp, "wb")
        header = _HEADER.pack(MAGIC, VERSION, 0, n_keys)
        self._out.write(header)
        crc = zlib.crc32(header)
        for ka, kb in pairwise(key_bounds):
            fb = np.concatenate([order[bounds[g] : bounds[g + 1]] for g in by_first[ka:kb].tolist()])
            sizes = key_rows[ka:kb]
            batch = np.empty(sizes.sum(), _ROW)
            self._read_fragments(fb, rows, starts, batch)
            bar = np.ascontiguousarray(batch["bar"])
            buy, buy_widths = _labels(batch["buy_serial"], sizes)
            sell, sell_widths = _labels(batch["sell_serial"], sizes)
            del batch
            # each side in each width its keys take
            buys = {w: buy.astype(f"<u{w}") for w in set(buy_widths)}
            sells = {w: sell.astype(f"<u{w}") for w in set(sell_widths)}
            del buy, sell
            parts, lo = [], 0
            for key, n, wb, ws in zip(key_values[ka:kb].tolist(), sizes.tolist(), buy_widths, sell_widths):
                hi = lo + n
                parts.append(_block_bytes(stocks[key >> 32], key & 0xFFFFFFFF, bar[lo:hi],
                                          buys[wb][lo:hi], sells[ws][lo:hi]))
                lo = hi
            raw = b"".join(parts)
            del parts, buys, sells
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
            _remove_panel_memos(self._path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        for fh in (self._fh, self._out):
            if fh is not None:
                fh.close()
        for path in (self._tmp, self._path):
            path.unlink(missing_ok=True)
        _remove_panel_memos(self._path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.abort()


def verified_crc32(path) -> tuple[int, int]:
    """The cache's CRC-32 and size, once the CRC of its bytes matches its
    trailer's. The bytes pass through one reused 256 KiB buffer, so the
    pass adds little to the memory of the analysis that runs it.

    A cache that does not match its trailer raises the DataError that
    ``iter_blocks`` raises for it.
    """
    with _open(path) as fh:
        _, crc, size, _ = _record(fh, path)
        streamed, left, view = 0, size - _SEAL.size, memoryview(bytearray(1 << 18))
        try:
            while left > 0 and (got := fh.readinto(view[: min(left, len(view))])):
                streamed, left = zlib.crc32(view[:got], streamed), left - got
        except OSError as exc:
            raise InputError(f"cannot read cache file {path}: {exc}") from exc
    if streamed != crc:
        raise DataError(f"cache {path} does not match its checksum")
    return crc, size


def iter_blocks(path) -> Iterator[CacheBlock]:
    """Yield cache blocks in file order, one per (stock, day), each side's
    orders as labels.

    Validates magic and version, the trailer's magic, every length against
    the bytes the file holds, each block's date, stock id, label width and
    bar range, that no (stock, day) has a second block, and the CRC-32 of
    the file against its trailer's. The CRC is compared after the last
    block, so a caller that drains the iterator has checked the file before
    it uses any result. Every violation raises DataError.
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
            date_int, n, widths = _BLOCK_META.unpack_from(head, sid_len)
            try:
                trade_date = int_to_date(date_int)
            except ValueError:
                raise DataError(f"bad date {date_int} in {path} at byte {pos}") from None
            wb, ws = widths >> 4, widths & 0xF
            if wb not in _WIDTHS or ws not in _WIDTHS:
                raise DataError(f"bad label widths 0x{widths:02x} in {path} at byte {pos}")
            if (stock_id, date_int) in seen:
                raise DataError(f"second block for ({stock_id!r}, {trade_date}) in {path} at byte "
                                f"{pos}, as an older polab wrote; re-run `polab ingest` to rebuild it")
            seen.add((stock_id, date_int))
            raw = take((1 + wb + ws) * n, "block")
            bar = np.frombuffer(raw, np.uint8, n)
            if n and bar.max() > BARS_PER_DAY:
                raise DataError(f"bar index out of range in {path} before byte {pos}")
            yield CacheBlock(stock_id, trade_date, bar, np.frombuffer(raw, f"<u{wb}", n, n),
                             np.frombuffer(raw, f"<u{ws}", n, n + wb * n))
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
    merges and labels each key's fragments at close, so the file does not
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
