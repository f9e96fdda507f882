"""Transaction record model and the column mapping for delimited input files."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from ..errors import ConfigError
from . import grid

#: Canonical field names, in the order the public dataset uses.
FIELDS = ("trade_date", "stock_id", "time", "price", "volume", "buy_serial", "sell_serial")


class TransactionRecord(NamedTuple):
    """One executed trade.

    ``time_ms`` is milliseconds since midnight; ``bar`` is the trading-minute
    index 1..237 or ``grid.OFF_GRID`` for auction/after-hours records.
    ``buy_serial``/``sell_serial`` are the daily order serials of the two
    sides; a partially filled order repeats its serial across records.
    """

    trade_date: dt.date
    stock_id: str
    time_ms: int
    price: float
    volume: int
    buy_serial: int
    sell_serial: int
    bar: int

    def time_of_day(self) -> dt.time:
        return grid.time_of_day(self.time_ms)


#: Per-row columns of a TransactionChunk, in TransactionRecord order after the keys.
CHUNK_COLUMNS = ("time_ms", "price", "volume", "buy_serial", "sell_serial", "bar")


@dataclass
class TransactionChunk:
    """Consecutive valid records of one parse chunk, as columns, in file order.

    ``stocks`` and ``dates`` list the distinct keys of the chunk;
    ``stock_idx`` and ``date_idx`` index them per row. Integer columns are
    int64 (``bar`` is int16, as ``grid.assign_bars`` returns it) and
    ``price`` is float64.
    """

    stocks: list
    dates: list
    stock_idx: np.ndarray
    date_idx: np.ndarray
    time_ms: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    buy_serial: np.ndarray
    sell_serial: np.ndarray
    bar: np.ndarray

    def __len__(self) -> int:
        return len(self.time_ms)

    def __getitem__(self, rows) -> "TransactionChunk":
        """The rows ``rows`` (a slice or an index array) of every column."""
        return TransactionChunk(
            self.stocks, self.dates, self.stock_idx[rows], self.date_idx[rows],
            *(getattr(self, name)[rows] for name in CHUNK_COLUMNS),
        )

    def groups(self) -> Iterator[tuple[str, dt.date, "TransactionChunk"]]:
        """(stock, date, rows of that key) per key, keys in order of first row.

        Each key's rows keep their file order.
        """
        key = self.stock_idx.astype(np.int64) * len(self.dates) + self.date_idx
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        by_key = self[np.argsort(inverse, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
        for g in np.argsort(first).tolist():
            k = int(key[first[g]])
            yield (
                self.stocks[k // len(self.dates)],
                self.dates[k % len(self.dates)],
                by_key[bounds[g] : bounds[g + 1]],
            )

    def records(self) -> Iterator[TransactionRecord]:
        columns = [getattr(self, name).tolist() for name in CHUNK_COLUMNS]
        for s, d, t, p, v, b, sl, bar in zip(
            self.stock_idx.tolist(), self.date_idx.tolist(), *columns
        ):
            yield TransactionRecord(self.dates[d], self.stocks[s], t, p, v, b, sl, bar)


@dataclass(frozen=True)
class ColumnSchema:
    """Maps the canonical transaction fields onto file columns.

    ``columns`` lists the field name of each file column in order; it must
    contain every canonical field exactly once (extra columns are allowed
    and ignored when named something else).
    """

    columns: tuple[str, ...] = FIELDS
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        missing = [f for f in FIELDS if f not in self.columns]
        if missing:
            raise ConfigError(f"schema is missing required columns: {missing}")
        seen = [c for c in self.columns if self.columns.count(c) > 1]
        if seen:
            raise ConfigError(f"schema repeats columns: {sorted(set(seen))}")

    def index_of(self, fieldname: str) -> int:
        return self.columns.index(fieldname)

    def header_line(self) -> str:
        return self.delimiter.join(self.columns)


DEFAULT_SCHEMA = ColumnSchema()


@dataclass
class ParseReport:
    """Bookkeeping for one parse pass: nothing is silently dropped."""

    total_rows: int = 0
    parsed_rows: int = 0
    malformed_rows: int = 0
    off_grid_rows: int = 0
    malformed_reasons: dict = field(default_factory=dict)
    first_malformed_lines: list = field(default_factory=list)

    def note_malformed(self, lineno: int, reason: str) -> None:
        self.malformed_rows += 1
        self.malformed_reasons[reason] = self.malformed_reasons.get(reason, 0) + 1
        if len(self.first_malformed_lines) < 10:
            self.first_malformed_lines.append((lineno, reason))

    def summary(self) -> str:
        parts = [
            f"rows={self.total_rows}",
            f"parsed={self.parsed_rows}",
            f"malformed={self.malformed_rows}",
            f"off_grid={self.off_grid_rows}",
        ]
        if self.malformed_reasons:
            reasons = ", ".join(f"{k}:{v}" for k, v in sorted(self.malformed_reasons.items()))
            parts.append(f"reasons[{reasons}]")
            parts.append(f"first_lines={self.first_malformed_lines}")
        return " ".join(parts)
