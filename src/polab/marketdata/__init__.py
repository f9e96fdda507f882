from .grid import BARS_PER_DAY, OFF_GRID, assign_bar, assign_bars, bar_start_ms
from .schema import (
    DEFAULT_SCHEMA, ColumnSchema, ParseReport, TransactionChunk, TransactionRecord,
)
from .parse import iter_transactions, parse_transactions
from .cache import CacheBlock, CacheWriter, iter_blocks, write_cache
from .prices import load_eod_prices, load_intraday_prices

__all__ = [
    "BARS_PER_DAY",
    "OFF_GRID",
    "assign_bar",
    "assign_bars",
    "bar_start_ms",
    "DEFAULT_SCHEMA",
    "ColumnSchema",
    "ParseReport",
    "TransactionRecord",
    "TransactionChunk",
    "iter_transactions",
    "parse_transactions",
    "CacheBlock",
    "CacheWriter",
    "iter_blocks",
    "write_cache",
    "load_eod_prices",
    "load_intraday_prices",
]
