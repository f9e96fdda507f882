"""Compact binary cache of parsed transactions, for fast re-analysis.

Layout (all little-endian), version 1:

    header:  magic "PLAB1" | u16 version | u8 reserved | u64 n_blocks
    block:   u16 stock-id length | stock-id utf8 | u32 date yyyymmdd | u32 n_rows
             u32 time_ms[n] | u8 bar[n] | f64 price[n] | u32 volume[n]
             u32 buy_serial[n] | u32 sell_serial[n]

Each block holds rows of one (stock, trading day). A key may repeat across
blocks (the writer flushes in bounded-memory chunks); readers concatenate
repeats in file order. Off-grid rows are kept with bar 0 so row counts
reconcile against the source file.

The writer records the file's CRC-32 and size in ``<cache>.crc32`` beside
it, and readers refuse a cache that does not match it. Analyses may keep
a built panel beside the cache as ``<cache>.panel-<scope>.npz`` (see
``polab.panel``); the writer deletes those whenever it replaces or deletes
the cache.
"""

from __future__ import annotations

import datetime as dt
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import DataError, InputError
from .grid import BARS_PER_DAY
from .schema import TransactionChunk

MAGIC = b"PLAB1"
VERSION = 1

_HEADER = struct.Struct("<5sHBQ")
_BLOCK_HEAD = struct.Struct("<H")
_BLOCK_META = struct.Struct("<II")

_U32_MAX = 2**32 - 1
#: integer columns whose values the cache's u32 may not hold
_U32_CHECKED = ("volume", "buy_serial", "sell_serial")

_COLUMNS = (
    ("time_ms", "<u4"),
    ("bar", "<u1"),
    ("price", "<f8"),
    ("volume", "<u4"),
    ("buy_serial", "<u4"),
    ("sell_serial", "<u4"),
)
_DTYPES = [(name, np.dtype(dtype)) for name, dtype in _COLUMNS]
_ROW_BYTES = sum(dtype.itemsize for _, dtype in _DTYPES)


@dataclass
class CacheBlock:
    stock_id: str
    trade_date: dt.date
    time_ms: np.ndarray
    bar: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    buy_serial: np.ndarray
    sell_serial: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.time_ms)


def date_to_int(d: dt.date) -> int:
    return d.year * 10_000 + d.month * 100 + d.day


def int_to_date(v: int) -> dt.date:
    return dt.date(v // 10_000, (v // 100) % 100, v % 100)


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
    """CRC-32 and length of the bytes from ``fh``'s position to its end."""
    crc = size = 0
    for piece in iter(lambda: fh.read(1 << 20), b""):
        crc = zlib.crc32(piece, crc)
        size += len(piece)
    return crc, size


def _read_checksum(path) -> tuple[int, int] | None:
    try:
        text = checksum_path(path).read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise InputError(f"cannot read cache checksum {checksum_path(path)}: {exc}") from exc
    try:
        crc, size = text.split()
        return int(crc, 16), int(size)
    except ValueError:
        raise DataError(f"unreadable cache checksum {checksum_path(path)}") from None


class CacheWriter:
    """Appends per-(stock, day) blocks to a temporary file beside ``path``.

    Leaving the ``with`` block normally patches the block count into the
    header, moves the file onto ``path`` and records its checksum. Leaving
    it by an exception deletes the temporary file, any older cache at
    ``path`` and its checksum, so a failed build leaves no cache behind.
    """

    def __init__(self, path):
        self._path = Path(path)
        self._tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        try:
            self._fh = open(self._tmp, "w+b")
        except OSError as exc:
            raise InputError(f"cannot create cache file {path}: {exc}") from exc
        self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, 0))
        self.n_blocks = 0
        self.n_rows = 0

    def append(self, block: CacheBlock) -> None:
        """Write one block; a volume or serial column not already u32 is
        checked against the u32 range first."""
        n = block.n_rows
        for name in _U32_CHECKED:
            col = getattr(block, name)
            if n and col.dtype != np.uint32 and int(np.max(col)) > _U32_MAX:
                raise DataError(f"{name} overflows the cache's u32 column")
        sid = block.stock_id.encode("utf-8")
        head = (_BLOCK_HEAD.pack(len(sid)), sid, _BLOCK_META.pack(date_to_int(block.trade_date), n))
        cols = (np.ascontiguousarray(getattr(block, name), dtype=dtype) for name, dtype in _DTYPES)
        self._fh.write(b"".join((*head, *cols)))
        self.n_blocks += 1
        self.n_rows += n

    def close(self) -> None:
        fh = self._fh
        try:
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, VERSION, 0, self.n_blocks))
            fh.seek(0)
            crc, size = _stream_crc32(fh)
            fh.close()
            os.replace(self._tmp, self._path)
            checksum_path(self._path).write_text(f"{crc:08x} {size}\n")
            _remove_panel_memos(self._path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        self._fh.close()
        for path in (self._tmp, self._path, checksum_path(self._path)):
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

    Where the writer recorded a checksum, a cache that does not match it
    raises the DataError that ``iter_blocks`` raises for it.
    """
    try:
        with open(path, "rb") as fh:
            crc, size = _stream_crc32(fh)
    except OSError as exc:
        raise InputError(f"cannot read cache file {path}: {exc}") from exc
    recorded = _read_checksum(path)
    if recorded is not None and recorded[1] != size:
        raise _size_mismatch(path, size, recorded[1])
    if recorded is not None and recorded[0] != crc:
        raise DataError(f"cache {path} does not match its checksum")
    return crc, size


def iter_blocks(path) -> Iterator[CacheBlock]:
    """Yield cache blocks in file order.

    Validates magic and version, every length against the bytes the file
    holds, each block's date, stock id and bar range, and, where the writer
    recorded one, the file's size and CRC-32. The CRC is compared after the
    last block, so a caller that drains the iterator has checked the file
    before it uses any result. Every violation raises DataError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read cache file {path}: {exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        recorded = _read_checksum(path)
        if recorded is not None and recorded[1] != size:
            raise _size_mismatch(path, size, recorded[1])
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
            raise DataError(f"unsupported cache version {version} in {path}")
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
            raw = take(_ROW_BYTES * n, "block")
            cols, offset = {}, 0
            for name, dtype in _DTYPES:
                cols[name] = np.frombuffer(raw, dtype=dtype, count=n, offset=offset)
                offset += dtype.itemsize * n
            if n and cols["bar"].max() > BARS_PER_DAY:
                raise DataError(f"bar index out of range in {path} before byte {pos}")
            yield CacheBlock(stock_id, trade_date, **cols)
        if pos != size:
            raise DataError(f"{path} has {size - pos} bytes after its last block")
        if recorded is not None and crc != recorded[0]:
            raise DataError(f"cache {path} does not match its checksum")


class _Pending:
    """Rows buffered for the next flush, compact: each column in its cache
    dtype plus an int32 id of its (stock, day) key, 29 B a row."""

    def __init__(self):
        self.keys: dict[tuple[str, dt.date], int] = {}
        self.key_parts: list[np.ndarray] = []
        self.parts: dict[str, list[np.ndarray]] = {name: [] for name, _ in _COLUMNS}
        self.rows = 0

    def add(self, chunk: TransactionChunk, rows: slice) -> None:
        """Buffer the rows ``rows`` of ``chunk``, whose u32 columns have been checked."""
        n_dates = len(chunk.dates)
        local = chunk.stock_idx[rows] * n_dates + chunk.date_idx[rows]
        key_of = np.zeros(len(chunk.stocks) * n_dates, np.int32)
        for k in np.flatnonzero(np.bincount(local, minlength=len(key_of))).tolist():
            stock, day = divmod(k, n_dates)
            key_of[k] = self.keys.setdefault((chunk.stocks[stock], chunk.dates[day]), len(self.keys))
        self.key_parts.append(key_of[local])
        for name, dtype in _COLUMNS:
            self.parts[name].append(getattr(chunk, name)[rows].astype(dtype))
        self.rows += len(local)

    def blocks(self) -> Iterator[CacheBlock]:
        """One block per key, keys in order of their first buffered row and
        each key's rows in file order."""
        if not self.rows:
            return
        key = np.concatenate(self.key_parts)
        order = np.argsort(key, kind="stable")
        ends = np.cumsum(np.bincount(key, minlength=len(self.keys)))
        starts = np.concatenate(([0], ends[:-1]))
        cols = []
        for name, _ in _COLUMNS:  # one column at a time, to bound the copies
            cols.append(np.concatenate(self.parts.pop(name))[order])
        keys, lo, hi = list(self.keys), starts.tolist(), ends.tolist()
        # a key's first buffered row heads its run in the stable order
        for g in np.argsort(order[starts]).tolist():
            rows = slice(lo[g], hi[g])
            yield CacheBlock(*keys[g], *(c[rows] for c in cols))


def blocks_from_chunks(
    chunks: Iterable[TransactionChunk], flush_rows: int = 1 << 20
) -> Iterator[CacheBlock]:
    """The cache blocks of a stream of parsed chunks, with bounded memory.

    Buffers rows compactly, in their cache dtypes and tagged with their
    (stock, day) key, and flushes once the buffered total reaches
    ``flush_rows``: one stable sort by key gathers each key's rows, and
    every key becomes one block, in order of its first buffered row. So a
    key may span several blocks. A chunk whose volume or serial overflows
    the cache's u32 columns raises DataError as it arrives.
    """
    pending = _Pending()
    for chunk in chunks:
        for name in _U32_CHECKED:
            col = getattr(chunk, name)
            if len(col) and int(col.max()) > _U32_MAX:
                raise DataError(f"{name} overflows the cache's u32 column")
        start = 0
        while start < len(chunk):
            stop = min(len(chunk), start + max(1, flush_rows - pending.rows))
            pending.add(chunk, slice(start, stop))
            start = stop
            if pending.rows >= flush_rows:
                yield from pending.blocks()
                pending = _Pending()
    yield from pending.blocks()


def write_cache(path, chunks: Iterable[TransactionChunk], flush_rows: int = 1 << 20) -> int:
    """Write the blocks ``blocks_from_chunks`` makes of ``chunks`` as a cache.

    Returns the number of rows written.
    """
    with CacheWriter(path) as writer:
        for block in blocks_from_chunks(chunks, flush_rows):
            writer.append(block)
        return writer.n_rows
