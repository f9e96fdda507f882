import datetime as dt

import pytest

from polab.errors import ConfigError, DataError, InputError
from polab.marketdata.parse import iter_transactions, parse_transactions
from polab.marketdata.schema import ColumnSchema, ParseReport

HEADER = "trade_date,stock_id,time,price,volume,buy_serial,sell_serial"


def write(tmp_path, lines, name="tx.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRowParsing:
    def test_single_row_maps_fields_and_bar(self, tmp_path):
        path = write(tmp_path, [HEADER, "2015-05-08,000001,09:31:02.340,12.50,200,1042,998"])
        records, report = parse_transactions(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.trade_date == dt.date(2015, 5, 8)
        assert rec.stock_id == "000001"
        assert rec.price == 12.50
        assert rec.volume == 200
        assert rec.buy_serial == 1042
        assert rec.sell_serial == 998
        assert rec.bar == 2  # 09:31:02 falls in [09:31, 09:32)
        assert rec.time_of_day() == dt.time(9, 31, 2, 340_000)
        assert report.parsed_rows == 1 and report.malformed_rows == 0

    def test_pre_open_row_is_off_grid_but_kept(self, tmp_path):
        path = write(tmp_path, [HEADER, "2015-05-08,000001,09:29:59.000,12.50,200,1,2"])
        records, report = parse_transactions(path)
        assert len(records) == 1
        assert records[0].bar == 0
        assert report.off_grid_rows == 1

    def test_file_order_preserved(self, tmp_path):
        rows = [f"2015-05-08,0000{i:02d},09:31:00.000,10.0,100,{i+1},{i+2}" for i in range(20)]
        path = write(tmp_path, [HEADER] + rows)
        records, _ = parse_transactions(path)
        assert [r.stock_id for r in records] == [f"0000{i:02d}" for i in range(20)]

    def test_time_without_millis(self, tmp_path):
        path = write(tmp_path, [HEADER, "2015-05-08,000001,09:31:02,12.50,200,1,2"])
        records, _ = parse_transactions(path)
        assert records[0].time_ms == ((9 * 60 + 31) * 60 + 2) * 1000


class TestMalformedHandling:
    def test_malformed_counted_not_dropped_silently(self, tmp_path):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        rows = [good] * 2000 + ["2015-05-08,000001,notatime,10.0,100,1,2"]
        path = write(tmp_path, [HEADER] + rows)
        records, report = parse_transactions(path)
        assert len(records) == 2000
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
        _, report = parse_transactions(path)
        assert report.malformed_reasons == {reason: 1}

    def test_share_above_threshold_aborts_with_summary(self, tmp_path):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        path = write(tmp_path, [HEADER, good, "broken,row"])
        with pytest.raises(DataError, match="malformed share"):
            parse_transactions(path)

    def test_threshold_configurable(self, tmp_path):
        good = "2015-05-08,000001,09:31:00.000,10.0,100,1,2"
        path = write(tmp_path, [HEADER, good, "broken,row"])
        records, report = parse_transactions(path, malformed_threshold=0.6)
        assert len(records) == 1 and report.malformed_rows == 1

    def test_integer_beyond_int64_is_a_data_error(self, tmp_path):
        path = write(tmp_path, [HEADER, f"2015-05-08,000001,09:31:00.000,10.0,100,{2**64},2"])
        with pytest.raises(DataError, match="out of range"):
            parse_transactions(path)

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
            parse_transactions(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            parse_transactions(tmp_path / "missing.csv")

    def test_reordered_columns_via_schema(self, tmp_path):
        schema = ColumnSchema(
            columns=(
                "stock_id", "trade_date", "price", "time", "volume", "sell_serial", "buy_serial",
            ),
            delimiter=";",
        )
        path = write(tmp_path, [schema.header_line(), "000001;2015-05-08;12.5;09:31:02.340;200;998;1042"])
        records, _ = parse_transactions(path, schema)
        assert records[0].buy_serial == 1042 and records[0].sell_serial == 998
        assert records[0].bar == 2

    def test_headerless_mode(self, tmp_path):
        schema = ColumnSchema(has_header=False)
        path = write(tmp_path, ["2015-05-08,000001,09:31:02.340,12.5,200,1042,998"])
        records, _ = parse_transactions(path, schema)
        assert len(records) == 1

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
        records, report = parse_transactions(files.transactions)
        on_grid = [r for r in records if r.bar != 0]
        grouped = {}
        for r in on_grid:
            grouped.setdefault((r.stock_id, r.trade_date, r.bar), []).append(r)
        flattened = [r for batch in grouped.values() for r in batch]
        assert sorted(flattened) == sorted(on_grid)
        assert report.parsed_rows == len(records)

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
