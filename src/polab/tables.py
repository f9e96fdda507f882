"""Plot-ready delimited tables with a reproducible metadata header.

Header lines start with '#': the first names the table and the config
hash that produced it, the rest record units and method decisions. No
timestamps are written, so re-running with unchanged inputs yields
byte-identical files. A text value holding a comma, a double quote or a
line break is quoted as RFC 4180 says; every other value is written as it is.
"""

from __future__ import annotations

import math
import re

_NEEDS_QUOTES = re.compile('[,"\r\n]')


def quote(text: str) -> str:
    """``text`` as one comma-separated field: in double quotes, each of its
    own doubled, when it holds a comma, a double quote or a line break."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        return format(value, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if hasattr(value, "isoformat"):
        return value.isoformat()
    return quote(value) if isinstance(value, str) else str(value)


def write_table(path, name, columns, rows, *, config_hash, meta=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# polab table={name} config={config_hash}\n")
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")

