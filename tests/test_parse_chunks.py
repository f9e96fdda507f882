"""The chunked parser against the per-row rule, at several block sizes.

The reference reads the file with ``csv`` one row at a time and applies
``parse._parse_row`` with the running abort check, which is how the parser
worked before it read chunks. Every block size must reproduce what it keeps
of each valid row (date, stock, bar and the two serials), its ParseReport
and its abort, and every cache built from the chunks must be byte-identical
to one built from the reference rows. Block sizes of
1 and 7 bytes are shorter than a line and cut inside lines and between a
CR and its LF; 256 and 2048 bytes give blocks of several lines that more
blocks follow, so line numbers, aborts and quoted records carry across
blocks of many lines.
"""

import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polab.errors import DataError
from polab.marketdata import cache, parse
from polab.marketdata.grid import assign_bar, assign_bars
from polab.marketdata.schema import ParseReport, TransactionChunk

from cache_bytes import chunk_of

HEADER = "trade_date,stock_id,time,price,volume,buy_serial,sell_serial"
BLOCK_SIZES = (1, 7, 256, 2048, 1 << 14, parse._BLOCK_BYTES)
IDX = (7, 0, 1, 2, 3, 4, 5, 6)


def reference_parse(path, malformed_threshold):
    """(rows, report, abort message or None) of the row-by-row reader; each
    valid row as (trade_date, stock_id, bar, buy_serial, sell_serial)."""
    report = ParseReport()
    records = []
    floor = parse._EARLY_CHECK_FLOOR
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            report.total_rows += 1
            out = parse._parse_row(row, IDX)
            if isinstance(out, int):
                report.note_malformed(reader.line_num, parse._REASONS[out - 1])
            else:
                bar = assign_bar(out[2])
                report.off_grid_rows += bar == 0
                report.parsed_rows += 1
                records.append((out[0], out[1], bar, out[5], out[6]))
            t, m = report.total_rows, report.malformed_rows
            if m and t >= floor and t % floor == 0 and m > malformed_threshold * t:
                return records, report, _abort(path, malformed_threshold, report)
    if report.total_rows and report.malformed_rows > malformed_threshold * report.total_rows:
        return records, report, _abort(path, malformed_threshold, report)
    return records, report, None


def _abort(path, threshold, report):
    return f"malformed share exceeds {threshold:.4%} in {path}: " + report.summary()


def rows_of(chunk):
    """The rows of ``chunk`` as ``reference_parse`` gives them."""
    dates = [chunk.dates[d] for d in chunk.date_idx.tolist()]
    stocks = [chunk.stocks[s] for s in chunk.stock_idx.tolist()]
    serials = chunk.buy_serial.tolist(), chunk.sell_serial.tolist()
    return list(zip(dates, stocks, chunk.bar.tolist(), *serials))


def chunked_parse(path, malformed_threshold):
    report = ParseReport()
    records, message = [], None
    try:
        for chunk in parse.iter_transactions(
            path, report=report, malformed_threshold=malformed_threshold
        ):
            records.extend(rows_of(chunk))
    except DataError as exc:
        message = str(exc)
    return records, report, message


def reference_cache(path, records, flush_rows):
    """A cache written with per-row buffering, flushed every ``flush_rows``
    rows as one chunk of its keys' rows, each key's rows together."""
    buffers = {}

    def flush(writer):
        writer.append(chunk_of(*(
            cache.CacheBlock(stock, day, *map(np.asarray, zip(*rows)))
            for (stock, day), rows in buffers.items()
        )))
        buffers.clear()

    with cache.CacheWriter(path, flush_rows) as writer:
        for k, (day, stock, *cells) in enumerate(records, 1):
            buffers.setdefault((stock, day), []).append(cells)
            if k % flush_rows == 0:
                flush(writer)
        flush(writer)
    return path.read_bytes()


# -- random feeds ------------------------------------------------------------------

DATES = ("2015-05-04", "2015-05-05", "2015-06-12")
STOCKS = ("000001", "000002", "300750", "12", "", "Ω01")


def mostly(plain, edge):
    """Plain values three times in four; edge values only the per-row rule reads."""
    return st.one_of(plain, plain, plain, st.sampled_from(edge))


@st.composite
def valid_fields(draw):
    hms = draw(st.sampled_from(
        ("09:31:02", "11:29:59", "13:00:00", "14:56:59", "09:25:00", "15:00:01")
    ))
    time = draw(mostly(
        st.sampled_from((hms, hms + ".340", hms + ".000")), (hms + ".7", " " + hms, hms + ".1234")
    ))
    price = draw(mostly(
        st.sampled_from(("12.50", "10", "0.01", "10.0039", "12.", ".5", "123456789.123456")),
        ("nan", "1e3", " 12.5", "7236830840615796.5", "7236830840615796"),
    ))
    number = mostly(
        st.integers(1, 2**32 - 1).map(str),
        ("007", " 42", "+5", "1_000", "0000000000000000000012"),
    )
    return [
        draw(st.sampled_from(DATES)), draw(st.sampled_from(STOCKS)), time, price,
        draw(number), draw(number), draw(number),
    ]


@st.composite
def feed_line(draw):
    kind = draw(st.sampled_from(("valid",) * 5 + ("damaged",) * 3 + ("blank",)))
    if kind == "blank":
        return ""
    f = draw(valid_fields())
    damages = set()
    if kind == "damaged":  # one or two at once, so that the rule's precedence shows
        damages = draw(st.sets(
            st.sampled_from(("field_count", "unparsable", "nonpositive", "bad_time")),
            min_size=1, max_size=2,
        ))
    if "unparsable" in damages:
        k, bad = draw(st.sampled_from(
            ((0, "garbage"), (0, "2015-13-01"), (0, "2015-05-041"), (2, "notatime"), (2, "9:31"),
             (3, "1O.5"), (3, "inf"), (3, "1e999"), (4, "1.5"), (6, ""))
        ))
        f[k] = bad
    if "nonpositive" in damages:
        # zeros that only a scan of the digits finds not positive, besides signs
        k, bad = draw(st.sampled_from((
            (3, "0"), (3, "-1.0"), (3, "0.000"), (3, ".0"), (3, "0."), (3, "000"),
            (4, "0"), (4, "000"), (5, "0"), (6, "-3"),
        )))
        f[k] = bad
    if "bad_time" in damages:
        f[2] = draw(st.sampled_from(("24:00:00.000", "99:00:00", "-1:00:00")))
    if "field_count" in damages:
        f = f[:-1] if draw(st.booleans()) else f + ["1"]
    line = ",".join(f)
    if draw(st.integers(0, 19)) == 0:  # CRLF ends, and rows only csv reads right: quotes, lone CR
        line = draw(st.sampled_from((
            line.replace(f[1], f'"{f[1]}"', 1) if f[1] else line,
            line + "\r",
            line.replace(",", "\r", 1),
            f'{f[0]},"00\n01",' + ",".join(f[2:]),
        )))
    return line


# the example count comes from the hypothesis profile (tests/conftest.py)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.one_of(
        st.lists(feed_line(), max_size=10), st.lists(feed_line(), min_size=40, max_size=160)
    ),
    threshold=st.sampled_from((0.001, 0.2, 0.5, 1.0)),
    floor=st.sampled_from((5, 10, parse._EARLY_CHECK_FLOOR)),
    flush_rows=st.sampled_from((64, 128, 512)),
    trailing_newline=st.booleans(),
)
def test_chunks_match_the_per_row_rule(
    tmp_path, monkeypatch, lines, threshold, floor, flush_rows, trailing_newline
):
    path = tmp_path / "tx.csv"
    text = "\n".join([HEADER] + lines) + ("\n" if trailing_newline else "")
    path.write_text(text, newline="")
    monkeypatch.setattr(parse, "_EARLY_CHECK_FLOOR", floor)
    want_records, want_report, want_abort = reference_parse(path, threshold)
    want_cache = None
    if want_abort is None:
        want_cache = reference_cache(tmp_path / "want.plab", want_records, flush_rows)
    for size in BLOCK_SIZES:
        monkeypatch.setattr(parse, "_BLOCK_BYTES", size)
        records, report, abort = chunked_parse(path, threshold)
        assert records == want_records, size
        assert report == want_report, size
        assert abort == want_abort, size
        if want_cache is not None:
            got = tmp_path / "got.plab"
            chunks = parse.iter_transactions(path, malformed_threshold=threshold)
            cache.write_cache(got, chunks, flush_rows)
            assert got.read_bytes() == want_cache, size


@pytest.mark.parametrize("flush_rows", (64, 128, 512))
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_cache_bytes_do_not_depend_on_chunking(
    small_scenario, tmp_path, monkeypatch, size, flush_rows
):
    files, _ = small_scenario
    want_records, _, _ = reference_parse(files.transactions, 0.001)
    want = reference_cache(tmp_path / "want.plab", want_records, flush_rows)
    monkeypatch.setattr(parse, "_BLOCK_BYTES", size)
    got = tmp_path / "got.plab"
    n = cache.write_cache(got, parse.iter_transactions(files.transactions), flush_rows)
    assert n == len(want_records)
    assert got.read_bytes() == want


def test_early_abort_yields_rows_before_it(tmp_path):
    good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
    path = tmp_path / "tx.csv"
    path.write_text("\n".join([HEADER] + [good] * 9_980 + ["junk"] * 40) + "\n")
    want_records, want_report, want_abort = reference_parse(path, 0.001)
    records, report, abort = chunked_parse(path, 0.001)
    assert want_abort is not None and report.total_rows == 10_000
    assert (records, report, abort) == (want_records, want_report, want_abort)
    assert dt.date(2015, 5, 8) == records[0][0]


# -- block cuts the random feeds may miss --------------------------------------------

GOOD = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
OTHER = "2015-05-08,300750,13:00:00.340,12.5,200,3,4"


def assert_matches_reference(tmp_path, monkeypatch, raw: bytes, sizes):
    """The feed ``raw`` parses and caches as the reference does at each block
    size; no malformed share aborts. Returns the reference's result."""
    path = tmp_path / "tx.csv"
    path.write_bytes(raw)
    want = reference_parse(path, 1.0)
    want_cache = reference_cache(tmp_path / "want.plab", want[0], 64)
    for size in sizes:
        monkeypatch.setattr(parse, "_BLOCK_BYTES", size)
        assert chunked_parse(path, 1.0) == want, size
        got = tmp_path / "got.plab"
        cache.write_cache(got, parse.iter_transactions(path, malformed_threshold=1.0), 64)
        assert got.read_bytes() == want_cache, size
    return want


def test_block_cut_between_cr_and_lf(tmp_path, monkeypatch):
    raw = "\r\n".join([HEADER, GOOD, OTHER, GOOD, OTHER]).encode() + b"\r\n"
    header_cr = raw.index(b"\r")
    row_cr = raw.index(b"\r", header_cr + 2)
    want = assert_matches_reference(tmp_path, monkeypatch, raw, (header_cr + 1, row_cr + 1, 7))
    assert want[1].parsed_rows == 4


def test_lone_cr_ends_a_line(tmp_path, monkeypatch):
    # as a text reader splits them: GOOD, then two field-count rows, then OTHER
    split = GOOD.replace(",10.0,", ",10.0\r", 1)
    raw = "\n".join([HEADER, GOOD + "\r" + split, OTHER]).encode() + b"\n"
    want = assert_matches_reference(tmp_path, monkeypatch, raw, (1, 7, 64, parse._BLOCK_BYTES))
    assert want[1].parsed_rows == 2
    assert want[1].first_malformed_lines == [(3, "field_count"), (4, "field_count")]


@pytest.mark.parametrize("last", (OTHER, OTHER + "\r", "junk"))
def test_file_without_trailing_newline(tmp_path, monkeypatch, last):
    raw = "\n".join([HEADER, GOOD, GOOD, last]).encode()
    sizes = (1, 7, len(raw) - 3, parse._BLOCK_BYTES)
    want = assert_matches_reference(tmp_path, monkeypatch, raw, sizes)
    assert want[1].total_rows == 3


@pytest.mark.parametrize("quoted", (False, True))
def test_row_that_is_not_utf8_is_unparsable(tmp_path, monkeypatch, quoted):
    first = f'"{GOOD[:10]}"{GOOD[10:]}' if quoted else GOOD  # a quote sends blocks to csv
    lines = [HEADER, first, OTHER, GOOD.replace("000001", "0000{}1"), OTHER]
    bad = "\n".join(lines).format("\xff").encode("latin-1") + b"\n"
    # its twin holds an ASCII row that the per-row rule finds unparsable
    twin = "\n".join(lines).format("?").replace("?1,09:31:00.000,10.0,100,1,2", "?1,x,1,1,1,1")
    path = tmp_path / "twin.csv"
    path.write_text(twin + "\n")
    want = reference_parse(path, 1.0)
    assert want[1].first_malformed_lines == [(4, "unparsable")]
    path.write_bytes(bad)
    for size in (1, 7, parse._BLOCK_BYTES):
        monkeypatch.setattr(parse, "_BLOCK_BYTES", size)
        assert chunked_parse(path, 1.0) == want, size


def test_header_that_is_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "tx.csv"
    path.write_bytes(HEADER.replace("stock_id", "stock\xffid").encode("latin-1") + b"\n" + GOOD.encode())
    with pytest.raises(DataError, match="not UTF-8"):
        list(parse.iter_transactions(path))


# -- the cache writer on wide markets -------------------------------------------------


@st.composite
def wide_chunks(draw):
    """Chunks of a time-ordered feed over many stocks: hundreds of keys per
    chunk, each key recurring across chunks, each chunk listing its stocks
    and dates in its own order."""
    flush_rows = draw(st.sampled_from((1, 64, 8192)))
    n_stocks = draw(st.integers(1, 400))
    n_dates = draw(st.integers(1, 3))
    max_rows = 300 if flush_rows == 1 else 3000
    sizes = draw(st.lists(st.integers(0, max_rows), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stock_ids = [f"{k:06d}" for k in range(n_stocks)]
    dates = [dt.date(2015, 6, 11) + dt.timedelta(days=k) for k in range(n_dates)]
    chunks = []
    for n in sizes:
        stock = rng.integers(0, n_stocks, n)
        day = np.sort(rng.integers(0, n_dates, n))
        s_names, s_idx = np.unique(stock, return_inverse=True)
        d_names, d_idx = np.unique(day, return_inverse=True)
        s_perm, d_perm = rng.permutation(len(s_names)), rng.permutation(len(d_names))
        time_ms = np.sort(rng.integers(33_000_000, 54_000_000, n))
        chunks.append(TransactionChunk(
            [stock_ids[k] for k in s_names[s_perm]], [dates[k] for k in d_names[d_perm]],
            np.argsort(s_perm)[s_idx], np.argsort(d_perm)[d_idx],
            rng.integers(1, 2**32, n), rng.integers(1, 2**32, n), assign_bars(time_ms),
        ))
    return chunks, flush_rows


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=wide_chunks())
def test_writer_matches_per_record_reference_on_wide_markets(tmp_path_factory, case):
    chunks, flush_rows = case
    tmp = tmp_path_factory.mktemp("wide")
    records = [row for chunk in chunks for row in rows_of(chunk)]
    want = reference_cache(tmp / "want.plab", records, flush_rows)
    n = cache.write_cache(tmp / "got.plab", iter(chunks), flush_rows)
    assert n == len(records)
    assert (tmp / "got.plab").read_bytes() == want
