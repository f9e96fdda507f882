"""Tables that ``polab.tables.write_table`` wrote, read back by the tests."""


def read_table(path):
    """(meta, columns, rows-as-strings); the inverse of ``write_table``."""
    meta = {}
    columns = None
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, v = body.split(":", 1)
                    meta[k.strip()] = v.strip()
                else:
                    meta["_banner"] = body
                continue
            if columns is None:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, columns or [], rows
