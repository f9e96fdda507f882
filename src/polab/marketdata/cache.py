"""Compact binary cache of parsed transactions, for fast re-analysis.

Layout (all little-endian), version 2:

    header:  magic "PLAB1" | u16 version | u8 reserved | u64 n_blocks
    block:   u16 stock-id length | stock-id utf8 | u32 date yyyymmdd | u32 n_rows
             u8 bar[n] | u32 buy_serial[n] | u32 sell_serial[n]

A row keeps only what the panel counts: its bar and the serials of its two
orders, 9 B. The parser still reads and validates each row's time, price
and volume, which decide whether a row is malformed or off-grid, but no
analysis reads them back, so the cache does not keep them. A cache of
another version is refused: re-run ``polab ingest`` to rebuild it.

Each block holds all the rows of one (stock, trading day), in feed order,
and no key has a second block. Ingest buffers rows in bounded-memory
flushes, so it may append a key's rows as several blocks; the writer then
merges them when it closes, and the file is byte for byte the one a single
flush would write. A reader refuses a key it has already seen. Off-grid rows
are kept with bar 0 so row counts reconcile against the source file.

The writer records the file's CRC-32 and size in ``<cache>.crc32`` beside
it. The record is part of the cache: readers refuse a cache without one,
or one that does not match it. When ingest names the feed, the record also
holds the feed's size, mtime (ns) and row count, and ``check_feed``
refuses a cache whose feed has changed since.
Analyses may keep a built panel beside the cache as
``<cache>.panel-<scope>.npz`` (see ``polab.panel``); the writer deletes
those whenever it replaces or deletes the cache.
"""

from __future__ import annotations

import datetime as dt
import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import DataError, InputError
from .grid import BARS_PER_DAY
from .parse import int_to_date
from .schema import ParseReport, TransactionChunk

MAGIC = b"PLAB1"
VERSION = 2

_HEADER = struct.Struct("<5sHBQ")
_BLOCK_HEAD = struct.Struct("<H")
_BLOCK_META = struct.Struct("<II")

_U32_MAX = 2**32 - 1
#: integer columns whose values the cache's u32 may not hold
_U32_CHECKED = ("buy_serial", "sell_serial")

_COLUMNS = (
    ("bar", "<u1"),
    ("buy_serial", "<u4"),
    ("sell_serial", "<u4"),
)
_DTYPES = [(name, np.dtype(dtype)) for name, dtype in _COLUMNS]
_ROW_BYTES = sum(dtype.itemsize for _, dtype in _DTYPES)
#: where each column starts and ends in a block's column bytes, in bytes a row
_COL_BOUNDS = list(pairwise(np.cumsum([0] + [dtype.itemsize for _, dtype in _DTYPES]).tolist()))


@dataclass
class CacheBlock:
    stock_id: str
    trade_date: dt.date
    bar: np.ndarray
    buy_serial: np.ndarray
    sell_serial: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.bar)


@dataclass(frozen=True)
class FeedStamp:
    """The feed a cache was built from, as its checksum file records it."""

    size: int
    mtime_ns: int
    rows_total: int


def date_to_int(d: dt.date) -> int:
    return d.year * 10_000 + d.month * 100 + d.day


def _block_head(stock_id: str, date_int: int, n: int) -> bytes:
    sid = stock_id.encode("utf-8")
    return _BLOCK_HEAD.pack(len(sid)) + sid + _BLOCK_META.pack(date_int, n)


def _block_bytes(stock_id: str, date_int: int, cols) -> bytes:
    """A block as the file holds it: its head, then each column's bytes."""
    cols = [np.ascontiguousarray(c, dtype=dtype) for c, (_, dtype) in zip(cols, _DTYPES)]
    return b"".join((_block_head(stock_id, date_int, len(cols[0])), *cols))


def _columns(raw: bytes, n: int) -> list[np.ndarray]:
    """The columns of a block's ``n`` rows, read from its column bytes."""
    return [np.frombuffer(raw, dtype, n, a * n) for (_, dtype), (a, _) in zip(_DTYPES, _COL_BOUNDS)]


def checksum_path(path) -> Path:
    """The file beside a cache that records its CRC-32 and size."""
    path = Path(path)
    return path.with_name(path.name + ".crc32")


def panel_memo_path(path, serial_scope: str) -> Path:
    """The file beside a cache that keeps the panel built from it."""
    path = Path(path)
    return path.with_name(f"{path.name}.panel-{serial_scope}.npz")


def _remove_panel_memos(path: Path) -> None:
    prefix = f"{path.name}.panel-"
    for memo in path.parent.iterdir():
        if memo.name.startswith(prefix):
            memo.unlink(missing_ok=True)


def _stream_crc32(fh) -> tuple[int, int]:
    """CRC-32 and length of the bytes from ``fh``'s position to its end.

    The bytes pass through one reused 256 KiB buffer. A fresh 1 MiB piece
    per read is mapped anew, after ingest has freed its rows into the heap,
    and sets ingest's peak memory.
    """
    crc = size = 0
    piece = bytearray(1 << 18)
    view = memoryview(piece)
    while n := fh.readinto(piece):
        crc = zlib.crc32(view[:n], crc)
        size += n
    return crc, size


def _checksum_text(crc: int, size: int, feed: FeedStamp | None) -> str:
    text = f"{crc:08x} {size}\n"
    if feed is not None:
        text += f"feed {feed.size} {feed.mtime_ns} {feed.rows_total}\n"
    return text


def read_checksum(path) -> tuple[int, int, FeedStamp | None]:
    """The cache's recorded CRC-32, size and feed; DataError without a record."""
    try:
        text = checksum_path(path).read_text()
    except FileNotFoundError:
        raise DataError(
            f"cache {path} has no checksum record {checksum_path(path)}; "
            f"re-run `polab ingest` to rebuild it"
        ) from None
    except OSError as exc:
        raise InputError(f"cannot read cache checksum {checksum_path(path)}: {exc}") from exc
    try:
        crc, size, *feed = text.split()
        if feed and feed[0] != "feed":
            raise ValueError
        stamp = FeedStamp(*map(int, feed[1:])) if feed else None
        return int(crc, 16), int(size), stamp
    except (ValueError, TypeError):
        raise DataError(f"unreadable cache checksum {checksum_path(path)}") from None


class CacheWriter:
    """Appends per-(stock, day) blocks to a temporary file beside ``path``.

    Leaving the ``with`` block normally gives each key one block, patches
    the block count into the header, moves the file onto ``path`` and
    records its checksum, with ``feed`` if it has been set.
    Leaving it by an exception deletes the temporary files, any older cache
    at ``path`` and its checksum, so a failed build leaves no cache behind.
    """

    def __init__(self, path):
        self._path = Path(path)
        self._tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        self._merged = self._tmp.with_suffix(".merge.tmp")
        try:
            self._fh = open(self._tmp, "w+b")
        except OSError as exc:
            raise InputError(f"cannot create cache file {path}: {exc}") from exc
        self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, 0))
        # per block appended: its key (stock code << 32 | yyyymmdd), the
        # offset of its column bytes and its row count
        self._stock_codes: dict[str, int] = {}
        self._keys, self._offsets, self._rows = array("q"), array("q"), array("q")
        self.n_rows = 0
        self.feed: FeedStamp | None = None

    def append(self, block: CacheBlock) -> None:
        """Write one block; a serial column not already u32 is checked
        against the u32 range first."""
        n = block.n_rows
        for name in _U32_CHECKED:
            col = getattr(block, name)
            if n and col.dtype != np.uint32 and int(np.max(col)) > _U32_MAX:
                raise DataError(f"{name} overflows the cache's u32 column")
        date_int = date_to_int(block.trade_date)
        raw = _block_bytes(block.stock_id, date_int, (getattr(block, name) for name, _ in _DTYPES))
        code = self._stock_codes.setdefault(block.stock_id, len(self._stock_codes))
        self._keys.append(code << 32 | date_int)
        self._offsets.append(self._fh.tell() + len(raw) - _ROW_BYTES * n)
        self._rows.append(n)
        self._fh.write(raw)
        self.n_rows += n

    def _one_block_per_key(self) -> tuple[Path, int]:
        """The temporary file that holds the cache with one block per key, and
        its block count. If a key was appended more than once, the blocks are
        copied into a second temporary file: keys in order of first
        appearance, each key's rows in append order, as a single flush writes
        them. One key's rows are held at a time."""
        keys = np.frombuffer(self._keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        bounds = np.append(np.flatnonzero(np.diff(keys[order], prepend=-1)), len(keys))
        if len(bounds) - 1 == len(keys):
            return self._tmp, len(keys)
        stocks = list(self._stock_codes)
        self._fh.close()  # read back unbuffered: one read per appended block
        src, self._fh = open(self._tmp, "rb", buffering=0), open(self._merged, "w+b")
        with src:
            self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, 0))
            # a stable sort leaves each key's first block at the head of its run
            for g in np.argsort(order[bounds[:-1]]):
                members = order[bounds[g] : bounds[g + 1]].tolist()
                rows, raws = [self._rows[m] for m in members], []
                for m, n in zip(members, rows):
                    src.seek(self._offsets[m])
                    raws.append(memoryview(src.read(_ROW_BYTES * n)))
                key = int(keys[members[0]])
                head = _block_head(stocks[key >> 32], key & 0xFFFFFFFF, sum(rows))
                # each column is its bytes in every member, in append order
                cols = (raw[a * n : b * n] for a, b in _COL_BOUNDS for raw, n in zip(raws, rows))
                self._fh.write(b"".join((head, *cols)))
        self._tmp.unlink()
        return self._merged, len(bounds) - 1

    def close(self) -> None:
        try:
            tmp, n_blocks = self._one_block_per_key()
            fh = self._fh
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, VERSION, 0, n_blocks))
            fh.seek(0)
            crc, size = _stream_crc32(fh)
            fh.close()
            os.replace(tmp, self._path)
            checksum_path(self._path).write_text(_checksum_text(crc, size, self.feed))
            _remove_panel_memos(self._path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        self._fh.close()
        for path in (self._tmp, self._merged, self._path, checksum_path(self._path)):
            path.unlink(missing_ok=True)
        _remove_panel_memos(self._path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _size_mismatch(path, size: int, recorded: int) -> DataError:
    return DataError(f"cache {path} holds {size} bytes, its checksum file says {recorded}")


def verified_crc32(path) -> tuple[int, int]:
    """The cache's CRC-32 and size, streamed from the file.

    A cache that does not match its record raises the DataError that
    ``iter_blocks`` raises for it.
    """
    try:
        with open(path, "rb") as fh:
            crc, size = _stream_crc32(fh)
    except OSError as exc:
        raise InputError(f"cannot read cache file {path}: {exc}") from exc
    recorded_crc, recorded_size, _ = read_checksum(path)
    if recorded_size != size:
        raise _size_mismatch(path, size, recorded_size)
    if recorded_crc != crc:
        raise DataError(f"cache {path} does not match its checksum")
    return crc, size


def iter_blocks(path) -> Iterator[CacheBlock]:
    """Yield cache blocks in file order, one per (stock, day).

    Validates magic and version, every length against the bytes the file
    holds, each block's date, stock id and bar range, that no (stock, day)
    has a second block, and the file's size and CRC-32 against its record.
    The CRC is compared after the last block, so a caller that
    drains the iterator has checked the file before it uses any result.
    Every violation raises DataError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read cache file {path}: {exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        recorded_crc, recorded_size, _ = read_checksum(path)
        if recorded_size != size:
            raise _size_mismatch(path, size, recorded_size)
        pos = crc = 0

        def take(n: int, what: str) -> bytes:
            nonlocal pos, crc
            if n > size - pos:
                raise DataError(f"truncated {what} in {path} at byte {pos}")
            raw = fh.read(n)
            pos += n
            crc = zlib.crc32(raw, crc)
            return raw

        if size < _HEADER.size:
            raise DataError(f"{path} is not a polab cache: truncated header")
        magic, version, _, n_blocks = _HEADER.unpack(take(_HEADER.size, "header"))
        if magic != MAGIC:
            raise DataError(f"{path} is not a polab cache: bad magic {magic!r}")
        if version != VERSION:
            raise DataError(
                f"unsupported cache version {version} in {path} (this polab reads "
                f"version {VERSION}); re-run `polab ingest` to rebuild it"
            )
        seen = set()
        for _ in range(n_blocks):
            (sid_len,) = _BLOCK_HEAD.unpack(take(_BLOCK_HEAD.size, "block header"))
            head = take(sid_len + _BLOCK_META.size, "block header")
            try:
                stock_id = head[:sid_len].decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"stock id is not UTF-8 in {path} at byte {pos}") from None
            date_int, n = _BLOCK_META.unpack_from(head, sid_len)
            try:
                trade_date = int_to_date(date_int)
            except ValueError:
                raise DataError(f"bad date {date_int} in {path} at byte {pos}") from None
            if (stock_id, date_int) in seen:
                raise DataError(f"second block for ({stock_id!r}, {trade_date}) in {path} at byte "
                                f"{pos}, as an older polab wrote; re-run `polab ingest` to rebuild it")
            seen.add((stock_id, date_int))
            cols = _columns(take(_ROW_BYTES * n, "block"), n)
            if n and cols[0].max() > BARS_PER_DAY:
                raise DataError(f"bar index out of range in {path} before byte {pos}")
            yield CacheBlock(stock_id, trade_date, *cols)
        if pos != size:
            raise DataError(f"{path} has {size - pos} bytes after its last block")
        if crc != recorded_crc:
            raise DataError(f"cache {path} does not match its checksum")


class _Pending:
    """Rows buffered for the next flush, compact: each column in its cache
    dtype plus an int32 id of its (stock, day) key, 13 B a row."""

    def __init__(self):
        self.keys: dict[tuple[str, dt.date], int] = {}
        self.key_parts: list[np.ndarray] = []
        self.parts: dict[str, list[np.ndarray]] = {name: [] for name, _ in _COLUMNS}
        self.rows = 0

    def add(self, chunk: TransactionChunk) -> None:
        """Buffer ``chunk``; a serial beyond the cache's u32 raises DataError."""
        for name in _U32_CHECKED:
            col = getattr(chunk, name)
            if len(col) and int(col.max()) > _U32_MAX:
                raise DataError(f"{name} overflows the cache's u32 column")
        n_dates = len(chunk.dates)
        local = chunk.stock_idx * n_dates + chunk.date_idx
        key_of = np.zeros(len(chunk.stocks) * n_dates, np.int32)
        for k in np.flatnonzero(np.bincount(local, minlength=len(key_of))).tolist():
            stock, day = divmod(k, n_dates)
            key_of[k] = self.keys.setdefault((chunk.stocks[stock], chunk.dates[day]), len(self.keys))
        self.key_parts.append(key_of[local])
        for name, dtype in _COLUMNS:
            self.parts[name].append(getattr(chunk, name).astype(dtype))
        self.rows += len(local)

    def flush(self, writer: CacheWriter) -> None:
        """Append one block per key, keys in order of their first buffered
        row and each key's rows in file order.

        A counting scatter puts the rows in key order, one column at a time:
        each chunk's key ids become its rows' places, and each column's
        parts go as they are placed, so the scratch is about an int32 a row.
        """
        if not self.rows:
            return
        n_keys = len(self.keys)
        sizes = sum(np.bincount(part, minlength=n_keys) for part in self.key_parts)
        starts = np.cumsum(sizes) - sizes
        next_place = starts.copy()  # where each key's next row goes
        first_row = np.full(n_keys, self.rows)  # each key's first buffered row
        # ids of 8 or 16 bits sort stably by radix, ten times the speed of 32
        sort_dtype = np.min_scalar_type(n_keys)
        places, offset = self.key_parts, 0
        for k, part in enumerate(places):
            count = np.bincount(part, minlength=n_keys)
            order = np.argsort(part.astype(sort_dtype), kind="stable")
            run_start = np.cumsum(count) - count  # each key's run in ``order``
            new = (count > 0) & (first_row == self.rows)
            first_row[new] = offset + order[run_start[new]]
            # a row's place: its key's next place plus its rank in its run
            place = np.empty(len(part), np.int32)
            place[order] = np.arange(len(part)) + (next_place - run_start)[part[order]]
            next_place += count
            places[k], offset = place, offset + len(part)
        cols = []
        for name, dtype in _COLUMNS:
            col, parts = np.empty(self.rows, dtype), self.parts.pop(name)[::-1]
            for place in places:
                col[place] = parts.pop()
            cols.append(col)
        keys, lo, hi = list(self.keys), starts.tolist(), next_place.tolist()
        for g in np.argsort(first_row).tolist():
            writer.append(CacheBlock(*keys[g], *(c[lo[g] : hi[g]] for c in cols)))


#: Bytes a buffered row takes in ``_Pending``: its cache columns and its key id
_PENDING_ROW_BYTES = _ROW_BYTES + 4
#: Bytes of rows ``write_cache`` buffers before a flush, about 80k rows. A
#: flush appends a block per key it holds, and the writer merges the blocks
#: of a key at close, so a smaller buffer leaves more blocks to merge.
_FLUSH_BYTES = 1 << 20


def write_cache(
    path,
    chunks: Iterable[TransactionChunk],
    flush_rows: int = _FLUSH_BYTES // _PENDING_ROW_BYTES,
    feed=None,
    report: ParseReport | None = None,
) -> int:
    """Write a stream of parsed chunks as a cache, with bounded memory.

    Chunks are buffered compactly (``_Pending``) and flushed once
    ``flush_rows`` rows are buffered, each key's rows as one block. The
    writer merges the blocks of a key that spans flushes, so the file does
    not depend on ``flush_rows``. A chunk whose serial overflows the cache's
    u32 columns raises DataError as it arrives.

    ``feed``, the file the chunks are parsed from, is stamped before the
    first chunk is read and recorded in the checksum file with the
    ``report.total_rows`` the parse counted, for ``check_feed``. Returns the
    number of rows written.
    """
    if feed is not None:
        try:
            st = os.stat(feed)
        except OSError as exc:
            raise InputError(f"cannot read {feed}: {exc}") from exc
    with CacheWriter(path) as writer:
        pending = _Pending()
        for chunk in chunks:
            pending.add(chunk)
            del chunk  # not held while the parser reads the next block
            if pending.rows >= flush_rows:
                pending.flush(writer)
                pending = _Pending()
        pending.flush(writer)
        if feed is not None:
            writer.feed = FeedStamp(st.st_size, st.st_mtime_ns, report.total_rows)
        return writer.n_rows


def check_feed(path, feed) -> None:
    """Refuse the cache at ``path`` if ``feed`` changed since it was ingested.

    Raises DataError when ``feed``'s size or mtime differs from what the
    cache's record holds, or when there is no record. Passes when the
    record names no feed or ``feed`` no longer exists: then there is
    nothing to compare.
    """
    _, _, stamp = read_checksum(path)
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
