"""Parsed transaction chunks and the column mapping for delimited input files."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

#: Canonical field names, in the order the public dataset uses.
FIELDS = ("trade_date", "stock_id", "time", "price", "volume", "buy_serial", "sell_serial")


@dataclass
class TransactionChunk:
    """Consecutive valid rows of one parse chunk, as columns, in file order:
    what the cache keeps of each row.

    ``stocks`` and ``dates`` list the distinct keys of the chunk;
    ``stock_idx`` and ``date_idx`` index them per row. The serials are int64;
    ``bar`` is int16 (as ``grid.assign_bars`` returns it), ``grid.OFF_GRID``
    outside the continuous sessions.
    """

    stocks: list
    dates: list
    stock_idx: np.ndarray
    date_idx: np.ndarray
    buy_serial: np.ndarray
    sell_serial: np.ndarray
    bar: np.ndarray

    def __len__(self) -> int:
        return len(self.bar)


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
