"""The one date rule of every input: the feed, the price and emotion files,
the config's period dates and ``synth``'s dates. It imports no numpy, so
the config reads its dates without it."""

from __future__ import annotations

import datetime as dt


def int_to_date(v: int) -> dt.date:
    """The date of a yyyymmdd integer; ValueError if it is not a calendar date."""
    return dt.date(v // 10_000, v // 100 % 100, v % 100)


def parse_date(s: str) -> dt.date:
    """The date of a ``YYYY?MM?DD`` field: ten bytes in UTF-8, ASCII digits
    at 0-3, 5-6 and 8-9, and a calendar date, as the feed parser's
    ``_yyyymmdd`` reads them. ValueError otherwise."""
    raw = str.encode(s, "utf-8", "surrogateescape")  # TypeError unless a str
    digits = raw[0:4] + raw[5:7] + raw[8:10]
    if len(raw) != 10 or not digits.isdigit():  # bytes.isdigit: ASCII digits only
        raise ValueError(f"not a YYYY-MM-DD date: {s!r}")
    return int_to_date(int(digits))
