"""Cache files put together from their parts, for tests that damage one part
and need every other part to hold, and the parse chunks that tests hand the
cache writer."""

import zlib

import numpy as np

from polab.marketdata import cache as cache_mod
from polab.marketdata.schema import TransactionChunk

#: bytes of a cache's trailer: its feed stamp, CRC-32 and magic
TRAILER = cache_mod._TRAILER_BYTES
#: bytes of the trailer's feed stamp, which comes first
STAMP = cache_mod._STAMP.size
#: bytes of the trailer's CRC-32 and magic, which end it; the CRC covers
#: every byte before them
SEAL = cache_mod._SEAL.size
#: the feed stamp of a cache whose ingest named no feed
NO_FEED = b"\xff" * STAMP


def sealed(body: bytes, stamp: bytes = NO_FEED) -> bytes:
    """``body``, a cache's header and blocks, then a trailer that matches it:
    ``stamp``, the CRC-32 of every byte before the CRC, and the magic. A
    reader gets past the trailer to ``body``'s own structure."""
    return body + stamp + cache_mod._SEAL.pack(zlib.crc32(body + stamp), cache_mod.MAGIC)


def chunk_of(*blocks) -> TransactionChunk:
    """The rows of ``blocks``, one block after another, as one parse chunk:
    what ``CacheWriter.append`` takes. Each block is a ``CacheBlock`` whose
    ``buy_serial`` and ``sell_serial`` hold its orders' serials."""
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
