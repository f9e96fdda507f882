import csv
import datetime as dt
import hashlib
import json

import numpy as np
import pytest

from polab.cli import main
from polab.errors import ConfigError
from polab.marketdata.schema import FIELDS, ColumnSchema
from polab.panel import PolarityPanel, derive_polarity
from polab.synth import RegimeSpec, brute_force_recount, generate, generate_causal_days

D1 = dt.date(2015, 5, 4)
D2 = dt.date(2015, 5, 5)


def serials_by_day(path) -> dict:
    """{trade_date text: the buy and sell serials traded that day} of a feed."""
    days = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            days.setdefault(row["trade_date"], set()).update(
                (int(row["buy_serial"]), int(row["sell_serial"]))
            )
    return days


class TestRegimeValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            RegimeSpec("r", buy_rate=-1.0)

    def test_pattern_excludes_rates(self):
        with pytest.raises(ConfigError, match="planted"):
            RegimeSpec("r", buy_rate=1.0, polarity_pattern=(1, -1))

    def test_one_sided_fixed_counts_infeasible(self):
        with pytest.raises(ConfigError, match="one-sided"):
            RegimeSpec("r", fixed_counts=(3, 0))

    def test_overlapping_regimes_rejected(self, tmp_path):
        a = RegimeSpec("a", buy_rate=1.0, sell_rate=1.0, bars=(5, 6))
        b = RegimeSpec("b", buy_rate=1.0, sell_rate=1.0, bars=(6, 7))
        with pytest.raises(ConfigError, match="overlap"):
            generate([a, b], 2, [D1], 0, tmp_path)

    def test_bad_bar_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            RegimeSpec("r", bars=(0, 238))


class TestExactConstruction:
    def test_three_buyers_two_sellers(self, tmp_path):
        regime = RegimeSpec("exact", fixed_counts=(3, 2), bars=(10,))
        files, truth = generate(regime, 1, [D1], 3, tmp_path)
        assert truth.buy[0, 0, 9] == 3 and truth.sell[0, 0, 9] == 2
        recount = brute_force_recount(files.transactions)
        assert [v for (_, _, bar), v in recount.cells.items() if bar == 10] == [(3, 2)]

    def test_partial_fills_duplicate_serials(self, tmp_path):
        regime = RegimeSpec("fills", fixed_counts=(2, 2), mean_fills=4.0, bars=(1,))
        files, truth = generate(regime, 1, [D1], 11, tmp_path)
        recount = brute_force_recount(files.transactions)
        assert recount.rows > 2  # more fills than participants
        assert list(recount.cells.values()) == [(2, 2)]

    def test_serials_reset_each_day_and_cover_a_contiguous_range(self, tmp_path):
        regime = RegimeSpec("flow", buy_rate=1.0, sell_rate=1.0, bars=tuple(range(1, 30)))
        files, _ = generate(regime, 4, [D1, D2], 17, tmp_path)
        by_day = serials_by_day(files.transactions)
        for day in (D1, D2):
            serials = by_day[day.isoformat()]
            assert min(serials) == 1
            assert serials == set(range(1, max(serials) + 1))

    def test_serials_order_by_quote_time_across_stocks(self, tmp_path):
        # within one bar the earliest quote gets the lowest serial, across all stocks
        regime = RegimeSpec("flow", buy_rate=2.0, sell_rate=2.0, bars=(1,))
        files, _ = generate(regime, 20, [D1], 23, tmp_path)
        (serials,) = serials_by_day(files.transactions).values()
        assert sorted(serials) == list(range(1, len(serials) + 1))


class TestDeterminism:
    def test_same_seed_same_bytes_and_same_truth(self, tmp_path):
        regime = RegimeSpec("flow", buy_rate=0.7, sell_rate=0.7, bars=tuple(range(1, 40)))
        digests = []
        truths = []
        for run in ("a", "b"):
            files, truth = generate(regime, 6, [D1, D2], 123, tmp_path / run)
            digest = tuple(
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (files.transactions, files.eod_prices, files.intraday_prices)
            )
            digests.append(digest)
            truths.append(truth)
        assert digests[0] == digests[1]
        np.testing.assert_array_equal(truths[0].buy, truths[1].buy)
        np.testing.assert_array_equal(truths[0].sell, truths[1].sell)
        assert truths[0].index_min_bar == truths[1].index_min_bar

    def test_different_seed_different_bytes(self, tmp_path):
        regime = RegimeSpec("flow", buy_rate=0.7, sell_rate=0.7, bars=(1, 2, 3))
        a, _ = generate(regime, 6, [D1], 1, tmp_path / "a")
        b, _ = generate(regime, 6, [D1], 2, tmp_path / "b")
        assert a.transactions.read_bytes() != b.transactions.read_bytes()


class TestPoissonRegimeMoments:
    def test_mean_emitted_polarity_at_steered_rates(self, tmp_path):
        # rates 10.8 / 9.2 put the conditional polarity mean at 0.0799
        # (double Poisson sum over both counts >= 1); 1e5 bars pins it tightly
        regime = RegimeSpec("steered", buy_rate=10.8, sell_rate=9.2)
        dates = [dt.date(2015, 5, 4) + dt.timedelta(days=i) for i in range(9)]
        files, truth = generate(regime, n_stocks=50, dates=dates, seed=31, out_dir=tmp_path)
        panel = PolarityPanel.from_transactions(files.transactions)
        pol = derive_polarity(panel.buy, panel.sell)
        vals = pol[np.isfinite(pol)]
        assert len(vals) > 100_000
        assert abs(vals.mean() - 0.08) <= 0.005
        np.testing.assert_array_equal(panel.buy, truth.buy)
        np.testing.assert_array_equal(panel.sell, truth.sell)


class TestQuietMinutes:
    """Minutes with zero rates and nothing planted emit nothing."""

    def test_quiet_day_after_an_active_day(self, tmp_path):
        regimes = [
            RegimeSpec("active", buy_rate=3.0, sell_rate=3.0, dates=(D1,)),
            RegimeSpec("quiet", dates=(D2,)),
        ]
        files, truth = generate(regimes, 3, [D1, D2], 1, tmp_path)
        assert truth.buy[:, 0].sum() > 0
        assert truth.buy[:, 1].sum() == 0 and truth.sell[:, 1].sum() == 0
        assert set(serials_by_day(files.transactions)) == {D1.isoformat()}

    def test_quiet_minutes_beside_planted_ones(self, tmp_path):
        regimes = [
            RegimeSpec("pattern", polarity_pattern=(1, -1), bars=(1, 2)),
            RegimeSpec("quiet", bars=tuple(range(3, 238))),
        ]
        _, truth = generate(regimes, 2, [D1, D2], 5, tmp_path)
        assert truth.buy[:, :, 2:].sum() == 0 and truth.sell[:, :, 2:].sum() == 0
        assert truth.buy[:, :, :2].tolist() == [[[2, 1], [2, 1]]] * 2

    @pytest.mark.parametrize(
        "regime", [RegimeSpec("quiet"), RegimeSpec("elsewhere", buy_rate=2.0, sell_rate=2.0, dates=(D2,))]
    )
    def test_a_market_quiet_from_the_start(self, tmp_path, regime):
        files, truth = generate(regime, 3, [D1], 1, tmp_path)
        assert truth.buy.sum() == 0 and truth.sell.sum() == 0
        assert files.transactions.read_text() == ",".join(FIELDS) + "\n"

    def test_cli_synth_of_a_quiet_market(self, tmp_path):
        out = tmp_path / "out"
        config = {
            "out_dir": str(out),
            "seed": 1,
            "synth": {"n_stocks": 3, "n_days": 2, "regimes": [{"name": "quiet"}]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert (out / "transactions.csv").read_text().count("\n") == 1
        assert (out / "truth_panel.csv").read_text().count("\n") == 1


class TestSchemaColumns:
    def test_extra_columns_are_written_empty_and_read_back(self, tmp_path):
        columns = ("venue",) + FIELDS[:3] + ("note",) + FIELDS[3:] + ("flag",)
        schema = ColumnSchema(columns=columns, delimiter="|")
        regime = RegimeSpec("flow", buy_rate=2.0, sell_rate=1.5, mean_fills=1.5, bars=tuple(range(1, 238, 4)))
        files, truth = generate(regime, 5, [D1, D2], 8, tmp_path, n_offgrid_rows=3, schema=schema)
        lines = files.transactions.read_text().splitlines()
        assert lines[0] == "|".join(columns)
        for line in lines[1:]:
            fields = line.split("|")
            assert len(fields) == len(columns)
            assert fields[0] == fields[4] == fields[-1] == ""
        panel = PolarityPanel.from_transactions(files.transactions, schema=schema)
        np.testing.assert_array_equal(panel.buy, truth.buy)
        np.testing.assert_array_equal(panel.sell, truth.sell)
        recount = brute_force_recount(files.transactions, schema)
        assert recount.cells == panel.active_cells() and recount.off_grid == 6

    def test_off_grid_rows_must_end_before_the_open(self, tmp_path):
        regime = RegimeSpec("flow", buy_rate=1.0, sell_rate=1.0, bars=(1,))
        with pytest.raises(ConfigError, match="n_offgrid_rows"):
            generate(regime, 1, [D1], 0, tmp_path, n_offgrid_rows=901)
        files, _ = generate(regime, 1, [D1], 0, tmp_path, n_offgrid_rows=900)
        assert brute_force_recount(files.transactions).off_grid == 900


class TestBruteForce:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n")
        out = brute_force_recount(path)
        assert out.cells == {} and out.rows == 0

    def test_single_off_grid_row(self, tmp_path):
        path = tmp_path / "off.csv"
        path.write_text(
            "trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n"
            "2015-05-04,000001,12:10:00.000,10.0,100,1,2\n"
        )
        out = brute_force_recount(path)
        assert out.cells == {} and out.off_grid == 1 and out.rows == 1

    def test_agrees_with_engine_on_scenario(self, small_scenario, small_panel):
        files, _ = small_scenario
        assert brute_force_recount(files.transactions).cells == small_panel.active_cells()


class TestCausalDays:
    def test_deterministic(self):
        a = generate_causal_days(3, seed=5)
        b = generate_causal_days(3, seed=5)
        for d in a:
            np.testing.assert_array_equal(a[d][0], b[d][0])
            np.testing.assert_array_equal(a[d][1], b[d][1])

    def test_planted_regression_structure(self):
        days = generate_causal_days(1, lag=2, coef=0.6, noise=0.0, seed=6)
        (x, y), = days.values()
        np.testing.assert_allclose(y[2:], 0.6 * x[:-2], atol=1e-12)

    def test_uncoupled_mode(self):
        days = generate_causal_days(5, coupled=False, seed=7)
        for x, y in days.values():
            assert abs(np.corrcoef(x[:-1], y[1:])[0, 1]) < 0.3
