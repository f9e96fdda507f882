"""Plot-ready delimited tables with a reproducible metadata header.

Header lines start with '#': the first names the table and the config
hash that produced it, the rest record units and method decisions. No
timestamps are written, so re-running with unchanged inputs yields
byte-identical files.
"""

from __future__ import annotations

import math


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
    return str(value)


def write_table(path, name, columns, rows, *, config_hash, meta=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# polab table={name} config={config_hash}\n")
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")

