"""Cache files put together from their parts, for tests that damage one part
and need every other part to hold."""

import zlib

from polab.marketdata import cache as cache_mod

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
