"""The oracle of ``PolarityPanel.write_text``: its export read back.

Tests compare the panel this reads with the one that was written, so the
reader checks every row rather than trusting the writer's format.
"""

import csv
import datetime as dt

import numpy as np

from polab.errors import DataError
from polab.marketdata.grid import BARS_PER_DAY
from polab.panel import PolarityPanel, _grid


def read_text(path) -> PolarityPanel:
    """The panel a ``write_text`` export holds; a row of zero counts reads
    as a minute without activity. A short or unparsable row, a bar off the
    grid, a count outside 0..2**31 - 1 or a repeated cell raises DataError
    naming the file and the line."""
    days = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:5] != ["stock_id", "date", "bar", "buy", "sell"]:
            raise DataError(f"not a panel export: {path}")
        for row in filter(None, reader):
            where = f"{path} line {reader.line_num}: {row!r}"
            try:
                day, (bar, b, s) = dt.date.fromisoformat(row[1]), map(int, row[2:5])
            except (IndexError, ValueError):
                raise DataError(f"unreadable panel row in {where}") from None
            if not (1 <= bar <= BARS_PER_DAY and 0 <= b < 2**31 and 0 <= s < 2**31):
                raise DataError(f"bar or count out of range in {where}")
            if (row[0], day) not in days:  # -1 marks a cell no row has given yet
                days[(row[0], day)] = np.full((2, BARS_PER_DAY), -1, np.int32)
            counts = days[(row[0], day)]
            if counts[0, bar - 1] >= 0:
                raise DataError(f"repeated cell in {where}")
            counts[:, bar - 1] = b, s
    bars = np.arange(1, BARS_PER_DAY + 1, dtype=np.uint8)
    return _grid((*key, bars, np.maximum(counts, 0).T) for key, counts in days.items())
