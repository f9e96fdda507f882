"""Version-5 cache files encoded apart from the cache writer, for tests that
compare the writer's bytes with them or damage one part and need every
other part to hold; and the parse chunks that tests hand the cache writer.

The encoder counts each (stock, day)'s man-times with Python sets, one row
at a time, and packs the layout that ``polab.marketdata.cache`` documents
with ``struct``; it shares no code with the writer.
"""

import datetime as dt
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from polab.marketdata.schema import TransactionChunk

MAGIC = b"PLAB1"
#: bytes of a cache's trailer: its feed stamp, CRC-32 and magic
TRAILER = 33
#: bytes of the trailer's feed stamp, which comes first
STAMP = 24
#: bytes of the trailer's CRC-32 and magic, which end it; the CRC covers
#: every byte before them
SEAL = 9
#: the feed stamp of a cache whose ingest named no feed
NO_FEED = b"\xff" * STAMP


@dataclass
class Rows:
    """One (stock, day)'s feed rows as the cache writer takes them: each
    row's bar (0 off the grid) and its buy and sell serials."""

    stock_id: str
    trade_date: dt.date
    bar: np.ndarray
    buy_serial: np.ndarray
    sell_serial: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.bar)


def man_times(rows: Rows) -> dict:
    """{bar: [buy, sell, day-scope buy, day-scope sell]} over the bars with
    an on-grid row, in rising order. Bar scope counts the distinct serials
    of a side in a bar; day scope counts each serial of a side once, in the
    earliest bar it trades in."""
    serials, first = {}, {}
    for bar, buy, sell in zip(*(np.asarray(c).tolist() for c in (rows.bar, rows.buy_serial,
                                                                   rows.sell_serial))):
        if bar == 0:
            continue
        for side, serial in ((0, buy), (1, sell)):
            serials.setdefault((bar, side), set()).add(serial)
            first[side, serial] = min(bar, first.get((side, serial), bar))
    cells = {bar: [0, 0, 0, 0] for bar, _ in sorted(serials)}
    for (bar, side), orders in serials.items():
        cells[bar][side] = len(orders)
    for (side, _), bar in first.items():
        cells[bar][2 + side] += 1
    return cells


def block_bytes(rows: Rows) -> bytes:
    """One block: its stock id, date, row count, cell count and count
    width, then its bars, then each bar's four counts."""
    cells = man_times(rows)
    largest = max((max(counts) for counts in cells.values()), default=0)
    width = 1 if largest < 1 << 8 else 2 if largest < 1 << 16 else 4
    sid = rows.stock_id.encode("utf-8")
    d = rows.trade_date
    return b"".join([
        struct.pack("<H", len(sid)), sid,
        struct.pack("<IIBB", d.year * 10_000 + d.month * 100 + d.day, rows.n_rows, len(cells), width),
        bytes(cells),
        *(count.to_bytes(width, "little") for counts in cells.values() for count in counts),
    ])


def header(n_blocks: int, version: int = 5) -> bytes:
    return MAGIC + struct.pack("<HBQ", version, 0, n_blocks)


def sealed(body: bytes, stamp: bytes = NO_FEED) -> bytes:
    """``body``, a cache's header and blocks, then a trailer that matches it:
    ``stamp``, the CRC-32 of every byte before the CRC, and the magic. A
    reader gets past the trailer to ``body``'s own structure."""
    return body + stamp + struct.pack("<I", zlib.crc32(body + stamp)) + MAGIC


def cache_bytes(blocks, stamp: bytes = NO_FEED) -> bytes:
    """A whole cache of ``blocks``, one after another as they are given."""
    return sealed(header(len(blocks)) + b"".join(map(block_bytes, blocks)), stamp)


def chunk_of(*blocks) -> TransactionChunk:
    """The rows of ``blocks``, one block after another, as one parse chunk:
    what ``CacheWriter.append`` takes. Each block is a ``Rows``."""
    stocks = list(dict.fromkeys(b.stock_id for b in blocks))
    dates = list(dict.fromkeys(b.trade_date for b in blocks))
    sizes = [b.n_rows for b in blocks]

    def column(name, dtype):
        return np.concatenate([np.empty(0, dtype)] + [np.asarray(getattr(b, name), dtype) for b in blocks])

    return TransactionChunk(
        stocks, dates,
        np.repeat([stocks.index(b.stock_id) for b in blocks], sizes).astype(np.int32),
        np.repeat([dates.index(b.trade_date) for b in blocks], sizes).astype(np.int32),
        column("buy_serial", np.int64), column("sell_serial", np.int64), column("bar", np.int16),
    )
