"""Tables that ``polab.tables.write_table`` wrote, read back by the tests."""

import csv


def read_table(path):
    """(meta, columns, rows-as-strings); the inverse of ``write_table``. The
    '#' lines before the column names are the metadata; fields are read as
    ``csv`` reads them, so a quoted id comes back as it was."""
    meta = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if ":" in body:
                k, v = body.split(":", 1)
                meta[k.strip()] = v.strip()
            else:
                meta["_banner"] = body
        else:
            return meta, [], []
        reader = csv.reader([line], strict=True)
        columns = next(reader)
        rows = [row for row in csv.reader(fh, strict=True) if row]
    return meta, columns, rows
