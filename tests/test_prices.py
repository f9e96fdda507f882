import datetime as dt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.errors import DataError, InputError
from polab.marketdata import parse, prices
from polab.marketdata.grid import assign_bar, bar_start_ms
from polab.marketdata.prices import (
    load_capitalization, load_emotion, load_eod_prices, load_intraday_prices,
)

D = dt.date(2015, 5, 4)


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEodLoader:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "eod.csv", ["date,id,close", "2015-05-04,000001,12.5"])
        out = load_eod_prices(path)
        assert out["000001"][D] == 12.5

    def test_duplicate_record_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "eod.csv",
            ["date,id,close", "2015-05-04,000001,12.5", "2015-05-04,000001,12.6"],
        )
        with pytest.raises(DataError, match="duplicate"):
            load_eod_prices(path)

    def test_nonpositive_close_rejected(self, tmp_path):
        path = write(tmp_path, "eod.csv", ["date,id,close", "2015-05-04,000001,0.0"])
        with pytest.raises(DataError, match="non-positive"):
            load_eod_prices(path)

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "eod.csv", ["a,b,c", "2015-05-04,000001,12.5"])
        with pytest.raises(DataError, match="header"):
            load_eod_prices(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_eod_prices(tmp_path / "nope.csv")

    def test_headerless(self, tmp_path):
        path = write(tmp_path, "eod.csv", ["2015-05-04,000001,12.5"])
        out = load_eod_prices(path, has_header=False)
        assert out["000001"][D] == 12.5


class TestIntradayLoader:
    def test_bar_index_form(self, tmp_path):
        path = write(
            tmp_path,
            "intra.csv",
            ["date,id,bar_or_time,last_price", "2015-05-04,000001,121,10.5"],
        )
        out = load_intraday_prices(path)
        assert out["000001"][D][120] == 10.5
        assert np.isnan(out["000001"][D]).sum() == 236

    def test_time_of_day_form(self, tmp_path):
        # 09:31:30 falls in the second minute of the morning session
        path = write(
            tmp_path,
            "intra.csv",
            ["date,id,bar_or_time,last_price", "2015-05-04,000001,09:31:30.000,10.5"],
        )
        out = load_intraday_prices(path)
        assert out["000001"][D][1] == 10.5

    def test_off_grid_row_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "intra.csv",
            ["date,id,bar_or_time,last_price", "2015-05-04,000001,12:15:00.000,10.5"],
        )
        with pytest.raises(DataError, match="off-grid"):
            load_intraday_prices(path)

    def test_bar_out_of_range_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "intra.csv",
            ["date,id,bar_or_time,last_price", "2015-05-04,000001,238,10.5"],
        )
        with pytest.raises(DataError, match="off-grid"):
            load_intraday_prices(path)

    def test_empty_price_means_no_trade(self, tmp_path):
        path = write(
            tmp_path,
            "intra.csv",
            [
                "date,id,bar_or_time,last_price",
                "2015-05-04,000001,1,10.5",
                "2015-05-04,000001,2,",
            ],
        )
        out = load_intraday_prices(path)
        assert out["000001"][D][0] == 10.5
        assert np.isnan(out["000001"][D][1])

    def test_whitespace_price_means_no_trade(self, tmp_path):
        # the columnar reader refuses the blank field; the row loop strips it
        path = write(
            tmp_path,
            "intra.csv",
            ["date,id,bar_or_time,last_price", "2015-05-04,A,1,10.5", "2015-05-04,A,2,  "],
        )
        assert prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS) is None
        out = load_intraday_prices(path)
        assert out["A"][D][0] == 10.5
        assert np.isnan(out["A"][D][1])

    def test_duplicate_minute_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "intra.csv",
            [
                "date,id,bar_or_time,last_price",
                "2015-05-04,000001,5,10.5",
                "2015-05-04,000001,09:34:59.000,10.6",  # same minute, other form
            ],
        )
        with pytest.raises(DataError, match="duplicate"):
            load_intraday_prices(path)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "intra.csv",
            ["date,id,bar_or_time,last_price", "2015-05-04,000001,5,-1.0"],
        )
        with pytest.raises(DataError, match="non-positive"):
            load_intraday_prices(path)


# -- the columnar reader against the row loop -------------------------------------

DATES = ("2015-05-04", "2015-05-05", "2015-06-12", "2016-02-29")
IDS = ("000001", "600000", "SZSC", "A", "300750")


@st.composite
def decimals(draw):
    """A plain positive decimal as the generator writes them, e.g. 12.5000."""
    digits = str(draw(st.integers(1, 10**9)))
    k = draw(st.integers(0, 5))
    if k == 0:
        return digits
    digits = digits.rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


def _bar_field(draw, bar: int) -> str:
    form = draw(st.sampled_from(("bar", "hms", "hms.mmm")))
    if form == "bar":
        return str(bar)
    t = bar_start_ms(bar) + draw(st.integers(0, 59_999))
    h, rest = divmod(t, 3_600_000)
    m, rest = divmod(rest, 60_000)
    s, ms = divmod(rest, 1000)
    return f"{h:02d}:{m:02d}:{s:02d}" + ("" if form == "hms" else f".{ms:03d}")


@st.composite
def price_files(draw, kind: str):
    """(text, has_header) of a valid intraday or end-of-day file with blank
    lines, optional CRLF line ends and, intraday, empty (no-trade) prices."""
    has_header = draw(st.booleans())
    lines = [",".join(prices.INTRADAY_COLUMNS if kind == "intraday" else prices.EOD_COLUMNS)]
    lines = lines if has_header else []
    seen = set()
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        d, i = draw(st.sampled_from(DATES)), draw(st.sampled_from(IDS))
        if kind == "eod":
            if (i, d) in seen:
                continue
            seen.add((i, d))
            lines.append(f"{d},{i},{draw(decimals())}")
            continue
        field = _bar_field(draw, draw(st.integers(1, 237)))
        bar = assign_bar(prices._parse_time_ms(field)) if ":" in field else int(field)
        price = "" if draw(st.integers(0, 5)) == 0 else draw(decimals())
        if price and (i, d, bar) in seen:
            continue
        if price:
            seen.add((i, d, bar))
        lines.append(f"{d},{i},{field},{price}")
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + (eol if draw(st.booleans()) else ""), has_header


def _same_days(a: dict, b: dict) -> bool:
    """Same ids and dates in the same order, and bit-identical values."""
    if list(a) != list(b) or any(list(a[k]) != list(b[k]) for k in a):
        return False
    return all(
        np.array_equal(np.asarray(a[k][d]).view(np.int64), np.asarray(b[k][d]).view(np.int64))
        for k in a for d in a[k]
    )


def _same_triple(a, b) -> bool:
    """The same (id, date) pairs in order, equal keys and bit-identical prices."""
    return (
        a[0] == b[0]
        and np.array_equal(a[1], b[1])
        and np.array_equal(a[2].view(np.int64), b[2].view(np.int64))
    )


def _shapes(out: dict, triple) -> bool:
    """``out`` is a loader's dict of ``triple``: each id's dates in order of
    first appearance, and each row's price bit for bit at its bar (the value
    itself, at end of day) with nothing else set."""
    days, key, price = triple
    ids = dict.fromkeys(name for name, _ in days)
    if list(out) != list(ids) or any(
        list(out[i]) != [date for name, date in days if name == i] for i in ids
    ):
        return False
    for k, p in zip(key.tolist(), price.tolist()):
        name, date = days[k >> 8]
        value = out[name][date][(k & 255) - 1] if k & 255 else out[name][date]
        if float(value).hex() != p.hex():
            return False
    n_set = sum(
        np.count_nonzero(~np.isnan(np.asarray(v))) for per in out.values() for v in per.values()
    )
    return n_set == len(key)


#: block sizes of the price reader: a line per block, a few lines, one block
BLOCK_BYTES = (1, 7, 64, prices._BLOCK_BYTES)


# at least the count the test sets, and the profile's count when that is larger
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(price_files("intraday"), st.sets(st.sampled_from(IDS)), st.sampled_from(BLOCK_BYTES))
def test_columnar_intraday_equals_row_loop(tmp_path_factory, spec, ids, block_bytes):
    text, has_header = spec
    path = tmp_path_factory.mktemp("intra") / "intraday.csv"
    path.write_bytes(text.encode())
    rows = prices._rows(path, ",", has_header, prices.INTRADAY_COLUMNS)
    with mock.patch.object(prices, "_BLOCK_BYTES", block_bytes):
        columnar = prices._columnar(path, ",", has_header, prices.INTRADAY_COLUMNS)
    assert columnar is not None  # plain files never fall back
    assert _same_triple(columnar, rows)
    out = load_intraday_prices(path, has_header=has_header)
    assert _shapes(out, rows)
    only = load_intraday_prices(path, has_header=has_header, ids=ids)
    assert _same_days(only, {k: v for k, v in out.items() if k in ids})
    assert _in_key_order(prices.load_intraday_rows(path, has_header=has_header), out)


def _in_key_order(loaded, out: dict) -> bool:
    """``loaded``, the result of ``load_intraday_rows``, holds the rows of
    ``out``, the dict loader's result, in key order, and ``start`` bounds
    each day's rows."""
    days, start, key, price = loaded
    bounds = [0] + [int(np.count_nonzero(key >> 8 < k + 1)) for k in range(len(days))]
    return (
        (np.diff(key) > 0).all()
        and start.tolist() == bounds
        and _shapes(out, (days, key, price))
    )


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(price_files("eod"), st.sampled_from(BLOCK_BYTES))
def test_columnar_eod_equals_row_loop(tmp_path_factory, spec, block_bytes):
    text, has_header = spec
    path = tmp_path_factory.mktemp("eod") / "eod.csv"
    path.write_bytes(text.encode())
    rows = prices._rows(path, ",", has_header, prices.EOD_COLUMNS)
    with mock.patch.object(prices, "_BLOCK_BYTES", block_bytes):
        columnar = prices._columnar(path, ",", has_header, prices.EOD_COLUMNS)
    assert columnar is not None
    assert _same_triple(columnar, rows)
    out = load_eod_prices(path, has_header=has_header)
    assert _shapes(out, rows)
    assert all(type(v) is float for days in out.values() for v in days.values())


INTRA_HEAD = "date,id,bar_or_time,last_price"


@pytest.mark.parametrize(
    "body,message",
    [
        (
            ["date,id,bar,last_price", "2015-05-04,000001,1,10.5"],
            "header mismatch in {path}: expected ['date', 'id', 'bar_or_time', 'last_price'], "
            "found ['date', 'id', 'bar', 'last_price']",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,2"],
            "bad intraday row in {path}: ['2015-05-04', '000001', '2']",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,11:45:00,10.5"],
            "off-grid intraday price row in {path}: ['2015-05-04', '000001', '11:45:00', '10.5']",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,7,0.0"],
            "non-positive last price for 000001 on 2015-05-04 bar 7",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,9,10.5", "2015-05-04,000001,09:38:00.000,10.6"],
            "duplicate intraday record for 000001 on 2015-05-04 bar 9",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-13-04,000001,2,10.5"],
            "unparsable intraday row in {path}: ['2015-13-04', '000001', '2', '10.5']",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,7,nan"],
            "non-finite last price for 000001 on 2015-05-04 bar 7",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,09:36:00,inf"],
            "non-finite last price for 000001 on 2015-05-04 bar 7",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,7,1e400"],
            "non-finite last price for 000001 on 2015-05-04 bar 7",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,7,-inf"],
            "non-positive last price for 000001 on 2015-05-04 bar 7",
        ),
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-04,000001,2,10.5,7"],
            "bad intraday row in {path}: ['2015-05-04', '000001', '2', '10.5', '7']",
        ),
        # the one date rule: ten bytes, so no trailing digit is ignored
        (
            [INTRA_HEAD, "2015-05-04,000001,1,10.5", "2015-05-123,000001,2,10.5"],
            "unparsable intraday row in {path}: ['2015-05-123', '000001', '2', '10.5']",
        ),
        (
            [INTRA_HEAD, "20150504,000001,1,10.5"],
            "unparsable intraday row in {path}: ['20150504', '000001', '1', '10.5']",
        ),
    ],
)
def test_intraday_errors_keep_the_row_loop_text(tmp_path, body, message):
    path = write(tmp_path, "intra.csv", body)
    with pytest.raises(DataError) as err:
        load_intraday_prices(path)
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize(
    "body,message",
    [
        (
            ["date,id,price", "2015-05-04,000001,12.5"],
            "header mismatch in {path}: expected ['date', 'id', 'close'], "
            "found ['date', 'id', 'price']",
        ),
        (["date,id,close", "2015-05-04,000001"], "bad end-of-day row in {path}: ['2015-05-04', '000001']"),
        (["date,id,close", "2015-05-04,000001,0"], "non-positive close for 000001 on 2015-05-04: 0.0"),
        (
            ["date,id,close", "2015-05-04,A,1.5", "2015-05-04,A,1.5"],
            "duplicate end-of-day record for A on 2015-05-04",
        ),
        (["date,id,close", "2015-05-04,A,nan"], "non-finite close for A on 2015-05-04: nan"),
        (["date,id,close", "2015-05-04,A,inf"], "non-finite close for A on 2015-05-04: inf"),
        (["date,id,close", "2015-05-04,A,1e400"], "non-finite close for A on 2015-05-04: inf"),
        (["date,id,close", "2015-05-04,A,-inf"], "non-positive close for A on 2015-05-04: -inf"),
        (
            ["date,id,close", "2015-05-04,000001,12.5,7"],
            "bad end-of-day row in {path}: ['2015-05-04', '000001', '12.5', '7']",
        ),
        (
            ["date,id,close", "2015-05-04,A,1.5", "2015-13-04,A,1.5"],
            "unparsable end-of-day row in {path}: ['2015-13-04', 'A', '1.5']",
        ),
        (
            ["date,id,close", "2015-05-04,A,1.5", "2015-05-05,A,abc"],
            "unparsable end-of-day row in {path}: ['2015-05-05', 'A', 'abc']",
        ),
        (
            ["date,id,close", "2015-05-041,A,1.5"],
            "unparsable end-of-day row in {path}: ['2015-05-041', 'A', '1.5']",
        ),
    ],
)
def test_eod_errors_keep_the_row_loop_text(tmp_path, body, message):
    path = write(tmp_path, "eod.csv", body)
    with pytest.raises(DataError) as err:
        load_eod_prices(path)
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize("loader", [load_eod_prices, load_intraday_prices])
def test_empty_file_is_a_header_mismatch(tmp_path, loader):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="header mismatch"):
        loader(path)


def test_quoted_and_signed_fields_take_the_row_loop(tmp_path):
    path = write(
        tmp_path, "intra.csv",
        [INTRA_HEAD, '2015-05-04,"000001",+5, 10.5', "2015-05-04,000002,0005,1e1"],
    )
    assert prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS) is None
    out = load_intraday_prices(path)
    assert out["000001"][D][4] == 10.5 and out["000002"][D][4] == 10.0


# -- price files across the feed's block boundaries -------------------------------


def intraday_rows(ids, bars=range(1, 11)):
    """Lines of a plain intraday file: each id trades bars ``bars`` on D."""
    return [INTRA_HEAD] + [f"2015-05-04,{i},{b},{10 + b}.5" for i in ids for b in bars]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of about 64 bytes, two or three lines each; returns the list
    of the blocks read."""
    monkeypatch.setattr(prices, "_BLOCK_BYTES", 64)
    read, block = [], parse._Feed.block
    monkeypatch.setattr(parse._Feed, "block", lambda self: read.append(block(self)) or read[-1])
    return read


def test_several_blocks_take_the_columnar_path(tmp_path, small_blocks, monkeypatch):
    path = write(tmp_path, "intra.csv", intraday_rows(["B", "A", "C"]))
    eod_lines = ["date,id,close"] + [f"2015-05-{k:02d},A,1.{k}" for k in range(4, 30)]
    eod = write(tmp_path, "eod.csv", eod_lines)
    monkeypatch.setattr(prices, "_rows", mock.Mock(side_effect=AssertionError("row loop")))
    out = load_intraday_prices(path)
    assert len([b for b in small_blocks if b]) > 5
    assert list(out) == ["B", "A", "C"]
    assert all(out[i][D][b - 1] == 10 + b + 0.5 for i in out for b in range(1, 11))
    assert list(load_intraday_prices(path, ids={"C", "A"})) == ["A", "C"]
    closes = load_eod_prices(eod)
    assert list(closes["A"]) == [dt.date(2015, 5, k) for k in range(4, 30)]
    assert closes["A"][dt.date(2015, 5, 29)] == 1.29


def test_id_first_seen_in_a_later_block_keeps_its_place(tmp_path, small_blocks):
    later = ["2015-05-05,Z,3,7.5", "2015-05-04,A,1,9.5", "2015-05-04,M,11,1.5"]
    lines = intraday_rows(["Z", "M"]) + later
    path = write(tmp_path, "intra.csv", lines)
    triple = prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS)
    assert triple is not None
    days, key, price = triple
    assert days == [("Z", D), ("M", D), ("Z", dt.date(2015, 5, 5)), ("A", D)]
    assert price[key == 1 << 8 | 11].tolist() == [1.5]
    assert _same_triple(triple, prices._rows(path, ",", True, prices.INTRADAY_COLUMNS))
    out = load_intraday_prices(path)
    assert list(out) == ["Z", "M", "A"] and list(out["Z"]) == [D, dt.date(2015, 5, 5)]
    assert out["M"][D][10] == 1.5


@pytest.mark.parametrize(
    "loader,lines,message",
    [
        (
            load_intraday_prices,
            intraday_rows(["A", "B"]) + ["2015-05-04,A,09:32:10,1.5"],
            "duplicate intraday record for A on 2015-05-04 bar 3",
        ),
        (
            load_eod_prices,
            ["date,id,close"] + [f"2015-05-{k:02d},A,1.5" for k in range(4, 20)]
            + ["2015-05-04,A,2"],
            "duplicate end-of-day record for A on 2015-05-04",
        ),
    ],
)
def test_duplicate_across_blocks_keeps_the_row_loop_text(
    tmp_path, small_blocks, loader, lines, message
):
    path = write(tmp_path, "prices.csv", lines)
    with pytest.raises(DataError) as err:
        loader(path)
    assert str(err.value) == message
    assert len([b for b in small_blocks if b]) > 3


def test_quote_in_the_last_block_sends_the_file_to_the_row_loop(tmp_path, small_blocks):
    path = write(tmp_path, "intra.csv", intraday_rows(["A", "B"]) + ['2015-05-04,"C",1,2.5'])
    assert prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS) is None
    *before, last = small_blocks  # the columnar reader stops at the block with the quote
    assert len(before) > 2 and b'"' not in b"".join(before) and last.endswith(b'"C",1,2.5\n')
    out = load_intraday_prices(path)
    assert list(out) == ["A", "B", "C"] and out["C"][D][0] == 2.5


@pytest.mark.parametrize("shuffle", [False, True])
def test_intraday_rows_come_in_key_order(tmp_path, small_blocks, shuffle):
    # a file written a stock-day at a time is handed back as read; any other
    # order is put in key order
    lines = intraday_rows(["B", "A", "C"])
    if shuffle:
        head, *body = lines
        lines = [head] + [body[k] for k in np.random.default_rng(5).permutation(len(body))]
    path = write(tmp_path, "intra.csv", lines)
    read = prices._read(path, ",", True, prices.INTRADAY_COLUMNS)
    with mock.patch.object(prices, "_read", return_value=read):
        loaded = prices.load_intraday_rows(path)
    assert (loaded[2] is read[1]) != shuffle
    assert _in_key_order(loaded, load_intraday_prices(path))


def test_rows_beyond_the_room_made_for_them_still_load(tmp_path, small_blocks, monkeypatch):
    path = write(tmp_path, "intra.csv", intraday_rows(["A", "B"]))
    monkeypatch.setattr(prices.os.path, "getsize", lambda _: 0)  # as for a pipe
    out = prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS)
    rows = prices._rows(path, ",", True, prices.INTRADAY_COLUMNS)
    assert out is not None and _same_triple(out, rows)


def test_columnar_reader_holds_only_its_rows(tmp_path, small_blocks):
    # the arrays it returns are the rows alone, not views into a larger reserve
    path = write(tmp_path, "intra.csv", intraday_rows(["A", "B"]))
    out = prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS)
    rows = prices._rows(path, ",", True, prices.INTRADAY_COLUMNS)
    assert out is not None and _same_triple(out, rows)
    assert all(a.base is None for a in out[1:])


# -- side files -------------------------------------------------------------------

RJF = ["date,rjf", "2015-05-04,1.5"]
CAPS = ["id,capitalization", "A,1e9"]
NOT_CAPS = "{path} line 3: capitalization must be finite and not negative, got "


@pytest.mark.parametrize(
    "body,message",
    [
        (RJF + ["2015-05-05,nan"], "{path} line 3: rjf must be finite, got ['2015-05-05', 'nan']"),
        (RJF + ["2015-05-05,inf"], "{path} line 3: rjf must be finite, got ['2015-05-05', 'inf']"),
        (RJF + ["2015-05-04,1.6"], "{path} line 3: duplicate date 2015-05-04"),
        (
            RJF + ["2015-05-05,1.6,7"],
            "{path} line 3: expected 'date,rjf', got ['2015-05-05', '1.6', '7']",
        ),
        (RJF + ["2015-05-05,-inf"], "{path} line 3: rjf must be positive, got ['2015-05-05', '-inf']"),
        # the feed's date rule, on every Python: fromisoformat took 20150505 on 3.11
        (RJF + ["20150505,1.6"], "{path} line 3: expected 'date,rjf', got ['20150505', '1.6']"),
        (RJF + ["2015-05-051,1"], "{path} line 3: expected 'date,rjf', got ['2015-05-051', '1']"),
    ],
)
def test_emotion_errors(tmp_path, body, message):
    path = write(tmp_path, "emotion.csv", body)
    with pytest.raises(DataError) as err:
        load_emotion(path)
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize(
    "body,message",
    [
        (CAPS + ["A,2e9"], "{path} line 3: duplicate id A"),
        (CAPS + ["B,nan,7"], "{path} line 3: expected 'id,capitalization', got ['B', 'nan', '7']"),
        (CAPS + ["B,nan"], NOT_CAPS + "['B', 'nan']"),
        (CAPS + ["B,-1"], NOT_CAPS + "['B', '-1']"),
        (CAPS + ["B,inf"], NOT_CAPS + "['B', 'inf']"),
    ],
)
def test_capitalization_errors(tmp_path, body, message):
    path = write(tmp_path, "caps.csv", body)
    with pytest.raises(DataError) as err:
        load_capitalization(path)
    assert str(err.value) == message.format(path=path)


def test_side_files_load(tmp_path):
    caps = write(tmp_path, "caps.csv", ["id,capitalization", "B,0", "", "A,1e9"])
    rjf = write(tmp_path, "emotion.csv", ["date,rjf", "2015-05-05,0.5", "2015-05-04,2"])
    assert load_capitalization(caps) == {"B": 0.0, "A": 1e9}
    assert list(load_emotion(rjf).items()) == [(dt.date(2015, 5, 5), 0.5), (D, 2.0)]
