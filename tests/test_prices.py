import datetime as dt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.errors import DataError, InputError
from polab.marketdata import prices
from polab.marketdata.grid import assign_bar, bar_start_ms
from polab.marketdata.prices import load_eod_prices, load_intraday_prices

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


@settings(max_examples=150, deadline=None)
@given(price_files("intraday"), st.sets(st.sampled_from(IDS)), st.sampled_from((1, 3, 4096)))
def test_columnar_intraday_equals_row_loop(tmp_path_factory, spec, ids, block_rows):
    text, has_header = spec
    path = tmp_path_factory.mktemp("intra") / "intraday.csv"
    path.write_bytes(text.encode())
    rows = prices._intraday_rows(path, ",", has_header)
    with mock.patch.object(prices, "_BLOCK_ROWS", block_rows):
        columnar = prices._intraday_columnar(path, ",", has_header, None)
    assert columnar is not None  # plain files never fall back
    assert _same_days(columnar, rows)
    assert _same_days(load_intraday_prices(path, has_header=has_header), rows)
    only = load_intraday_prices(path, has_header=has_header, ids=ids)
    assert _same_days(only, {k: v for k, v in rows.items() if k in ids})


@settings(max_examples=100, deadline=None)
@given(price_files("eod"), st.sampled_from((1, 3, 4096)))
def test_columnar_eod_equals_row_loop(tmp_path_factory, spec, block_rows):
    text, has_header = spec
    path = tmp_path_factory.mktemp("eod") / "eod.csv"
    path.write_bytes(text.encode())
    rows = prices._eod_rows(path, ",", has_header)
    with mock.patch.object(prices, "_BLOCK_ROWS", block_rows):
        columnar = prices._eod_columnar(path, ",", has_header)
    assert columnar is not None
    assert _same_days(columnar, rows)
    assert all(type(v) is float for days in columnar.values() for v in days.values())


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
    assert prices._intraday_columnar(path, ",", True, None) is None
    out = load_intraday_prices(path)
    assert out["000001"][D][4] == 10.5 and out["000002"][D][4] == 10.0
