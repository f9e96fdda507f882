"""Market-data input layer: the minute grid, the transaction schema, the
text parser, the binary cache and the price and side-file loaders.

Public names are imported from their modules on first access (PEP 562).
"""

import importlib

_EXPORTS = {
    "BARS_PER_DAY": "grid",
    "OFF_GRID": "grid",
    "assign_bar": "grid",
    "assign_bars": "grid",
    "bar_start_ms": "grid",
    "DEFAULT_SCHEMA": "schema",
    "ColumnSchema": "schema",
    "ParseReport": "schema",
    "TransactionChunk": "schema",
    "TransactionRecord": "schema",
    "iter_transactions": "parse",
    "parse_transactions": "parse",
    "CacheBlock": "cache",
    "CacheWriter": "cache",
    "iter_blocks": "cache",
    "write_cache": "cache",
    "load_eod_prices": "prices",
    "load_intraday_prices": "prices",
    "load_capitalization": "prices",
    "load_emotion": "prices",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
