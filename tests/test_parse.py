import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polab.errors import ConfigError, DataError, InputError
from polab.marketdata.dates import int_to_date, parse_date
from polab.marketdata.parse import (
    _PAD, _REASONS, _decimal_values, _decimals, _digits, _factorize, _join_digits, _parse_row,
    _positive, _times, _yyyymmdd, iter_transactions, padded, split_fields,
)
from polab.marketdata.schema import DEFAULT_SCHEMA, ColumnSchema, ParseReport

HEADER = "trade_date,stock_id,time,price,volume,buy_serial,sell_serial"
IDX = (7, 0, 1, 2, 3, 4, 5, 6)


def write(tmp_path, lines, name="tx.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def parse(path, schema=DEFAULT_SCHEMA, **kwargs):
    """(rows, report) of ``iter_transactions``: each valid row as
    (trade_date, stock_id, bar, buy_serial, sell_serial), in file order."""
    report = ParseReport()
    rows = []
    for c in iter_transactions(path, schema, report=report, **kwargs):
        dates = [c.dates[d] for d in c.date_idx.tolist()]
        stocks = [c.stocks[s] for s in c.stock_idx.tolist()]
        rows += zip(dates, stocks, c.bar.tolist(), c.buy_serial.tolist(), c.sell_serial.tolist())
    return rows, report


class TestRowParsing:
    def test_single_row_maps_fields_and_bar(self, tmp_path):
        line = "2015-05-08,000001,09:31:02.340,12.50,200,1042,998"
        rows, report = parse(write(tmp_path, [HEADER, line]))
        # 09:31:02 falls in [09:31, 09:32)
        assert rows == [(dt.date(2015, 5, 8), "000001", 2, 1042, 998)]
        assert report.parsed_rows == 1 and report.malformed_rows == 0
        # time, price and volume decide the outcome but are not kept
        time_ms = ((9 * 60 + 31) * 60 + 2) * 1000 + 340
        want = (dt.date(2015, 5, 8), "000001", time_ms, 12.50, 200, 1042, 998)
        assert _parse_row(line.split(","), IDX) == want

    def test_pre_open_row_is_off_grid_but_kept(self, tmp_path):
        path = write(tmp_path, [HEADER, "2015-05-08,000001,09:29:59.000,12.50,200,1,2"])
        rows, report = parse(path)
        assert len(rows) == 1
        assert rows[0][2] == 0
        assert report.off_grid_rows == 1

    def test_file_order_preserved(self, tmp_path):
        lines = [f"2015-05-08,0000{i:02d},09:31:00.000,10.0,100,{i+1},{i+2}" for i in range(20)]
        path = write(tmp_path, [HEADER] + lines)
        rows, _ = parse(path)
        assert [r[1] for r in rows] == [f"0000{i:02d}" for i in range(20)]

    def test_time_without_millis(self, tmp_path):
        line = "2015-05-08,000001,09:31:02,12.50,200,1,2"
        rows, _ = parse(write(tmp_path, [HEADER, line]))
        assert rows[0][2] == 2
        assert _parse_row(line.split(","), IDX)[2] == ((9 * 60 + 31) * 60 + 2) * 1000


class TestMalformedHandling:
    def test_malformed_counted_not_dropped_silently(self, tmp_path):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        lines = [good] * 2000 + ["2015-05-08,000001,notatime,10.0,100,1,2"]
        path = write(tmp_path, [HEADER] + lines)
        rows, report = parse(path)
        assert len(rows) == 2000
        assert report.malformed_rows == 1
        assert report.malformed_reasons == {"unparsable": 1}
        assert report.total_rows == 2001

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("2015-05-08,000001,09:31:00.000,10.0,100,1", "field_count"),
            ("2015-05-08,000001,09:31:00.000,-1.0,100,1,2", "nonpositive"),
            ("2015-05-08,000001,09:31:00.000,10.0,0,1,2", "nonpositive"),
            ("2015-05-08,000001,09:31:00.000,10.0,100,0,2", "nonpositive"),
            ("2015-05-08,000001,09:31:00.000,10.0,100,1,-3", "nonpositive"),
            ("2015-05-08,000001,99:00:00.000,10.0,100,1,2", "bad_time"),
            ("garbage,000001,09:31:00.000,10.0,100,1,2", "unparsable"),
            # a row breaking several rules gets the first reason that applies
            ("2015-05-08,000001,99:00:00.000,0,100,1,2", "nonpositive"),
            ("2015-05-08,000001,99:00:00.000,1O.5,0,1,2", "unparsable"),
            ("2015-05-08,000001,99:00:00.000,10.0,0,1", "field_count"),
        ],
    )
    def test_malformed_reasons(self, tmp_path, bad, reason):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        path = write(tmp_path, [HEADER] + [good] * 1999 + [bad])
        _, report = parse(path)
        assert report.malformed_reasons == {reason: 1}

    @pytest.mark.parametrize(
        "column,value,reason",
        [
            # zeros that only a scan of the digits finds not positive
            (3, "0.000", "nonpositive"),
            (3, ".0", "nonpositive"),
            (3, "0.", "nonpositive"),
            (3, "000", "nonpositive"),
            (4, "000", "nonpositive"),
            (4, "0" * 18, "nonpositive"),
            # past the fast path's widths: the per-row rule reads them
            (3, "0" * 16, "nonpositive"),
            (3, "7236830840615796", None),
            (3, "000000000000000.1", None),
            (4, "0" * 19, "nonpositive"),
            (4, "0" * 18 + "7", None),
            (3, ".", "unparsable"),
            (3, "1..0", "unparsable"),
        ],
    )
    def test_digit_scan_edges_end_as_the_row_rule_decides(self, tmp_path, column, value, reason):
        fields = "2015-05-08,000001,09:31:00.000,10.0,100,1,2".split(",")
        fields[column] = value
        want = _parse_row(fields, IDX)
        assert (_REASONS[want - 1] if isinstance(want, int) else None) == reason
        rows, report = parse(write(tmp_path, [HEADER, ",".join(fields)]), malformed_threshold=1.0)
        assert report.malformed_reasons == ({reason: 1} if reason else {})
        assert len(rows) == (reason is None)

    @pytest.mark.parametrize("value", ("nan", "NaN", "inf", "-inf", "1e999", "Infinity"))
    @pytest.mark.parametrize("quoted", (False, True))
    def test_price_that_is_not_finite_is_unparsable(self, tmp_path, value, quoted):
        # as the price files refuse such prices; a quote sends the block to csv
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        bad = good.replace("10.0", f'"{value}"' if quoted else value)
        rows, report = parse(write(tmp_path, [HEADER, good, bad, good]), malformed_threshold=1.0)
        assert len(rows) == 2
        assert report.first_malformed_lines == [(3, "unparsable")]

    @pytest.mark.parametrize(
        "date", ("2015-05-041", "2015-05-123", "20150508", "2015-5-08", "2015-05-08 ", "2015-02-29")
    )
    @pytest.mark.parametrize("quoted", (False, True))
    def test_date_is_ten_bytes_of_a_calendar_date(self, tmp_path, date, quoted):
        # the per-row rule used to read fixed slices and ignore what followed
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        bad = good.replace("2015-05-08", f'"{date}"' if quoted else date)
        rows, report = parse(write(tmp_path, [HEADER, good, bad]), malformed_threshold=1.0)
        assert len(rows) == 1
        assert report.first_malformed_lines == [(3, "unparsable")]

    def test_date_separators_are_not_read(self, tmp_path):
        # positions 4 and 7 may hold any byte, on both paths
        lines = ["2015/05/08,000001,09:31:00.000,10.0,100,1,2", '"2015x05.08",000001,09:31:00,1,1,1,2']
        rows, report = parse(write(tmp_path, [HEADER, *lines]))
        assert [r[0] for r in rows] == [dt.date(2015, 5, 8)] * 2 and report.malformed_rows == 0

    def test_share_above_threshold_aborts_with_summary(self, tmp_path):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        path = write(tmp_path, [HEADER, good, "broken,row"])
        with pytest.raises(DataError, match="malformed share"):
            parse(path)

    def test_threshold_configurable(self, tmp_path):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        path = write(tmp_path, [HEADER, good, "broken,row"])
        rows, report = parse(path, malformed_threshold=0.6)
        assert len(rows) == 1 and report.malformed_rows == 1

    @pytest.mark.parametrize("column", (4, 5, 6), ids=("volume", "buy_serial", "sell_serial"))
    def test_integer_beyond_int64_is_a_data_error(self, tmp_path, column):
        fields = "2015-05-08,000001,09:31:00.000,10.0,100,1,2".split(",")
        fields[column] = str(2**63 - 1)  # the largest int64 still parses
        assert len(parse(write(tmp_path, [HEADER, ",".join(fields)]))[0]) == 1
        fields[column] = str(2**63)
        message = f"integer field out of range: {_parse_row(fields, IDX)}"
        with pytest.raises(DataError, match=re.escape(message)):
            parse(write(tmp_path, [HEADER, ",".join(fields)]))

    def test_early_abort_on_dense_corruption(self, tmp_path):
        path = write(tmp_path, [HEADER] + ["junk"] * 30_000)
        report = ParseReport()
        with pytest.raises(DataError):
            for _ in iter_transactions(path, report=report):
                pass
        assert report.total_rows < 30_000  # stopped before reading it all


class TestSchemaContract:
    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, ["a,b,c,d,e,f,g", "2015-05-08,x,09:31:00,1,1,1,1"])
        with pytest.raises(DataError, match="header mismatch"):
            parse(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            parse(tmp_path / "missing.csv")

    def test_reordered_columns_via_schema(self, tmp_path):
        schema = ColumnSchema(
            columns=(
                "stock_id", "trade_date", "price", "time", "volume", "sell_serial", "buy_serial",
            ),
            delimiter=";",
        )
        path = write(tmp_path, [schema.header_line(), "000001;2015-05-08;12.5;09:31:02.340;200;998;1042"])
        rows, _ = parse(path, schema)
        assert rows == [(dt.date(2015, 5, 8), "000001", 2, 1042, 998)]

    def test_headerless_mode(self, tmp_path):
        schema = ColumnSchema(has_header=False)
        path = write(tmp_path, ["2015-05-08,000001,09:31:02.340,12.5,200,1042,998"])
        rows, _ = parse(path, schema)
        assert len(rows) == 1

    def test_schema_requires_all_fields(self):
        with pytest.raises(ConfigError, match="missing required columns"):
            ColumnSchema(columns=("trade_date", "stock_id", "time"))

    def test_schema_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="repeats"):
            ColumnSchema(
                columns=(
                    "trade_date", "trade_date", "stock_id", "time",
                    "price", "volume", "buy_serial", "sell_serial",
                )
            )


class TestRoundTrip:
    def test_per_bar_grouping_recovers_on_grid_subset(self, small_scenario):
        files, _ = small_scenario
        rows, report = parse(files.transactions)
        on_grid = [r for r in rows if r[2] != 0]
        grouped = {}
        for r in on_grid:
            grouped.setdefault((r[1], r[0], r[2]), []).append(r)
        flattened = [r for batch in grouped.values() for r in batch]
        assert sorted(flattened) == sorted(on_grid)
        assert report.parsed_rows == len(rows)

    def test_synthetic_million_row_file(self, tmp_path):
        import datetime as dt

        from polab.synth import RegimeSpec, generate

        regime = RegimeSpec("dense", buy_rate=11.0, sell_rate=11.0)
        dates = [dt.date(2015, 5, 4) + dt.timedelta(days=i) for i in range(2)]
        files, truth = generate(regime, n_stocks=4, dates=dates, seed=5, out_dir=tmp_path)
        expected_rows = sum(1 for _ in open(files.transactions)) - 1
        assert expected_rows >= 15_000  # dense regime actually produced volume
        report = ParseReport()
        n = sum(len(chunk) for chunk in iter_transactions(files.transactions, report=report))
        assert n == expected_rows
        assert report.malformed_rows == 0
        assert report.total_rows == expected_rows


# -- the fast path's field readers -------------------------------------------------


def offsets(lines, ncols=1, trailing_newline=True):
    """(buf, start, end) of ``split_fields`` over ``lines``; every line must be regular."""
    raw = "\n".join(lines).encode() + (b"\n" if trailing_newline else b"")
    buf = padded(raw)
    _, regular, start, end = split_fields(buf, ",", ncols)
    assert regular.all()
    return buf, start, end


DIGITS = "0123456789"


@st.composite
def plain_decimals(draw):
    """``digits[.digits]`` with 1 to 16 digits; the fast path reads up to 15."""
    whole = draw(st.text(DIGITS, max_size=16))
    if draw(st.booleans()):
        return whole or draw(st.text(DIGITS, min_size=1, max_size=16))
    return whole + "." + draw(st.text(DIGITS, min_size=0 if whole else 1, max_size=16 - len(whole)))


def date_like(raw: bytes) -> bytes:
    """``raw`` with an ASCII digit wherever ``YYYY-MM-DD`` has one."""
    return bytes(b if k in (4, 7) else 48 + b % 10 for k, b in enumerate(raw))


#: arbitrary ten-byte strings, and ones that are nearer to a date
TEN_BYTES = st.one_of(
    st.binary(min_size=10, max_size=10),
    st.binary(min_size=10, max_size=10).map(date_like),
    st.lists(st.sampled_from(b"0123456789-/\xff"), min_size=10, max_size=10).map(bytes),
    st.dates(dt.date(1, 1, 1)).map(lambda d: d.isoformat().encode()),
)


@given(st.lists(TEN_BYTES, min_size=1, max_size=20))
@example([b"2015-05- 4", b"+015-05-04", b"2015-05-0\xd9"])  # int() reads the first two
def test_parse_date_accepts_what_yyyymmdd_reads(fields):
    # the per-row rule and the fast path keep one date rule
    buf = np.zeros(len(fields) * 10 + 2 * _PAD, np.uint8)
    buf[_PAD : _PAD + 10 * len(fields)] = np.frombuffer(b"".join(fields), np.uint8)
    start = np.arange(len(fields)) * 10 + _PAD
    value, ok = _yyyymmdd(buf, start, start + 10)
    for raw, v, k in zip(fields, value.tolist(), ok.tolist()):
        try:
            want = int_to_date(v) if k else None
        except ValueError:
            want = None
        try:
            got = parse_date(raw.decode("utf-8", "surrogateescape"))
        except ValueError:
            got = None
        assert got == want, raw


class TestFieldReaders:
    @given(st.lists(plain_decimals(), min_size=1, max_size=30))
    def test_decimals_read_as_float_does(self, values):
        buf, start, end = offsets(values)
        d, ok = _decimals(buf, start[0], end[0])
        n_digits = [len(v.replace(".", "")) for v in values]
        assert ok.tolist() == [n <= 15 for n in n_digits]
        want = [float(v) for v in values]
        got = _decimal_values(d)
        positive = _positive(d)
        for k in range(len(values)):
            if ok[k]:
                assert got[k] == want[k] and positive[k] == (want[k] > 0), values[k]

    @given(st.lists(st.text(DIGITS, min_size=1, max_size=19), min_size=1, max_size=30))
    def test_digits_read_as_int_does(self, values):
        buf, start, end = offsets(values)
        d, ok = _digits(buf, start[0], end[0])
        assert ok.tolist() == [len(v) <= 18 for v in values]
        got, positive = _join_digits(d, range(len(d))), _positive(d)
        for k in range(len(values)):
            if ok[k]:
                assert got[k] == int(values[k]) and positive[k] == (int(values[k]) > 0)

    @given(st.lists(
        st.text(st.sampled_from("019AZaz_Ω"), max_size=12).filter(lambda s: len(s.encode()) <= 12),
        min_size=1, max_size=40,
    ))
    def test_factorize_matches_sorted_distinct_bytes(self, ids):
        self.assert_factorized(ids)

    def test_factorize_every_width(self):
        ids = ["9" * w for w in range(13)] + ["0" * w for w in range(13)] + ["Ω01", "Ω01", ""]
        self.assert_factorized(ids[::-1])

    @staticmethod
    def assert_factorized(ids):
        """``_factorize`` gives the distinct ids, narrowest first and then
        sorted as bytes, and each row's index into them."""
        buf, start, end = offsets([f"{i},1" for i in ids], ncols=2)
        values, codes = _factorize(buf, start[0], end[0])
        raw = [i.encode() for i in ids]
        want = sorted(set(raw), key=lambda b: (len(b), b))
        assert values == want
        assert codes.tolist() == [want.index(b) for b in raw]

    def test_fields_at_the_edges_of_a_block(self):
        # the first field is narrower than its column's window, and the last
        # field is one digit with no LF after it
        buf, start, end = offsets(["7,1.5,123456", "12345,12.25,9"], ncols=3, trailing_newline=False)
        d, ok = _digits(buf, start[0], end[0])
        assert ok.all() and _join_digits(d, range(len(d))).tolist() == [7, 12345]
        d, ok = _decimals(buf, start[1], end[1])
        assert ok.all() and _decimal_values(d).tolist() == [1.5, 12.25]
        d, ok = _digits(buf, start[2], end[2])
        assert ok.all() and _join_digits(d, range(len(d))).tolist() == [123456, 9]
        d, ok = _decimals(buf, start[2], end[2])
        assert ok.all() and _positive(d).all()
        # a time as the last field: its 12-byte window runs past the block
        buf, start, end = offsets(["1,09:31:02.340", "2,09:31:02"], ncols=2, trailing_newline=False)
        time_ms, ok = _times(buf, start[1], end[1])
        assert ok.all() and time_ms.tolist() == [34_262_340, 34_262_000]
