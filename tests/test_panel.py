import csv
import datetime as dt
import math
import os
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polab.errors import DataError
from polab.marketdata import cache as cache_mod
from polab.marketdata.cache import panel_memo_path, write_cache
from polab.marketdata.grid import BARS_PER_DAY, assign_bar
from polab.marketdata.parse import _parse_row, iter_transactions
from polab.panel import (
    PolarityPanel,
    daily_polarity_at_index_min,
    derive_polarity,
    direction_ratios,
    market_polarity_series,
    polarity,
)
from polab.returns import build_return_series
from polab.synth import brute_force_recount

from cache_bytes import TRAILER, chunk_of
from panel_text import read_text

D = dt.date(2015, 5, 4)


class Fill(NamedTuple):
    """One valid feed row, as the panel reads it plus the time its bar comes from."""

    stock_id: str
    trade_date: dt.date
    time_ms: int
    bar: int
    buy_serial: int
    sell_serial: int


def rec(buy, sell, bar=1, stock="000001", time_ms=34_200_000):
    return Fill(stock, D, time_ms, bar, buy, sell)


def feed_fills(feed) -> list:
    """The valid rows of ``feed`` read through the per-row rule, in file order."""
    fills = []
    with open(feed, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out = _parse_row(row, (7, 0, 1, 2, 3, 4, 5, 6))
            if isinstance(out, tuple):
                day, stock, time_ms, _, _, buy, sell = out
                fills.append(Fill(stock, day, time_ms, assign_bar(time_ms), buy, sell))
    return fills


def panel_of(records, tmp_path, serial_scope="bar") -> PolarityPanel:
    """The panel of ``records`` read from a cache, one block per (stock, day)
    with its rows in record order."""
    keys = {}
    for r in records:
        keys.setdefault((r.stock_id, r.trade_date), []).append(r)
    path = tmp_path / "records.plab"
    cols = ("bar", "buy_serial", "sell_serial")
    with cache_mod.CacheWriter(path) as w:
        w.append(chunk_of(*(
            cache_mod.CacheBlock(stock, date, *(np.array([getattr(r, f) for r in rows]) for f in cols))
            for (stock, date), rows in keys.items()
        )))
    return PolarityPanel.from_cache(path, serial_scope=serial_scope)


def day_scope_reference(records) -> dict:
    """The day-scope rule as first written, one record at a time: the
    reference. Each serial counts once per (stock, day) and side, in the bar
    of its first on-grid fill by ``time_ms``, file order breaking ties.
    Returns {(stock, date, bar): (buy, sell)} over active cells."""
    first = {}
    for order, r in enumerate(records):
        if r.bar == 0:
            continue
        for side, serial in ((0, r.buy_serial), (1, r.sell_serial)):
            key = (r.stock_id, r.trade_date, side, serial)
            if key not in first or (r.time_ms, order) < first[key][:2]:
                first[key] = (r.time_ms, order, r.bar)
    cells = {}
    for (stock, date, side, _), (_, _, bar) in first.items():
        cells.setdefault((stock, date, bar), [0, 0])[side] += 1
    return {cell: tuple(counts) for cell, counts in cells.items()}


def assert_day_scope_follows_first_fill_rule(feed, work_dir) -> None:
    """Day-scope panels from the feed and from caches of it split into
    blocks of several sizes equal ``day_scope_reference``."""
    want = day_scope_reference(feed_fills(feed))
    assert PolarityPanel.from_transactions(feed, serial_scope="day").active_cells() == want
    for flush_rows in (1 << 20, 128, 7):
        path = work_dir / f"day-{flush_rows}.plab"
        write_cache(path, iter_transactions(feed), flush_rows)
        assert PolarityPanel.from_cache(path, serial_scope="day").active_cells() == want


#: days and times of the random day-scope feeds: session edges, repeats
#: within a minute, and off-grid times
FEED_DAYS = ("2015-05-04", "2015-05-05", "2015-05-06")
FEED_TIMES = (
    "09:25:00.000", "09:30:00.000", "09:30:59.999", "09:31:00.000",
    "09:31:30.500", "11:29:59.999", "11:30:00.000", "12:00:00.000", "13:00:00.000",
    "13:00:00.001", "14:56:59.999", "14:57:00.000",
)


def _write_text_per_cell(panel, path):
    """The writer ``write_text`` replaced, one format call per cell: the reference."""
    pol = derive_polarity(panel.buy, panel.sell)
    with open(path, "w", newline="") as fh:
        fh.write("stock_id,date,bar,buy,sell,polarity\n")
        for i, stock in enumerate(panel.stocks):
            for j, date in enumerate(panel.dates):
                for k in np.nonzero((panel.buy[i, j] != 0) | (panel.sell[i, j] != 0))[0]:
                    p = pol[i, j, k]
                    fh.write(
                        ",".join(
                            (
                                stock,
                                date.isoformat(),
                                str(k + 1),
                                str(int(panel.buy[i, j, k])),
                                str(int(panel.sell[i, j, k])),
                                "NA" if math.isnan(p) else format(p, ".12g"),
                            )
                        )
                    )
                    fh.write("\n")


class TestCountMantimes:
    def test_partial_fills_count_once(self, small_scenario):
        # generator duplicates serials across fills; distinct counts equal truth
        files, truth = small_scenario
        panel = PolarityPanel.from_transactions(files.transactions)
        np.testing.assert_array_equal(panel.buy, truth.buy)
        np.testing.assert_array_equal(panel.sell, truth.sell)


class TestPolarityFunction:
    def test_example_values(self):
        assert polarity(7, 3) == pytest.approx(0.4)
        assert polarity(0, 0) is None

    @pytest.mark.parametrize("k", [1, 2, 17, 4096])
    def test_balance_is_zero(self, k):
        assert polarity(k, k) == 0.0

    def test_extremes(self):
        assert polarity(5, 0) == 1.0
        assert polarity(0, 5) == -1.0

    def test_antisymmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for b, s in rng.integers(0, 500, (500, 2)):
            b, s = int(b), int(s)
            p = polarity(b, s)
            q = polarity(s, b)
            if p is None:
                assert q is None
                continue
            assert q == -p
            for k in (2, 3, 10):
                assert polarity(k * b, k * s) == pytest.approx(p)

    def test_bounded(self):
        rng = np.random.default_rng(12)
        for b, s in rng.integers(0, 10_000, (1000, 2)):
            p = polarity(int(b), int(s))
            if p is not None:
                assert -1.0 <= p <= 1.0


class TestPanelConstruction:
    def test_missing_iff_no_activity(self, small_panel):
        total = small_panel.buy + small_panel.sell
        pol = derive_polarity(small_panel.buy, small_panel.sell)
        assert np.all(np.isnan(pol) == (total == 0))

    def test_cell_accessor(self, small_panel):
        stock, date = small_panel.stocks[0], small_panel.dates[0]
        row = small_panel.row(stock, date)
        k = int(np.nonzero(np.isfinite(row))[0][0])
        b, s, p = small_panel.cell(stock, date, k + 1)
        assert p == pytest.approx((b - s) / (b + s))

    def test_oracle_equivalence(self, small_scenario, small_panel):
        files, _ = small_scenario
        assert small_panel.active_cells() == brute_force_recount(files.transactions).cells

    def test_serial_spanning_bars_counts_in_each(self, tmp_path):
        panel = panel_of([rec(1, 2, bar=1), rec(1, 3, bar=2, time_ms=34_260_000)], tmp_path)
        assert panel.cell("000001", D, 1)[:2] == (1, 1)
        assert panel.cell("000001", D, 2)[:2] == (1, 1)

    def test_day_scope_counts_serial_once(self, tmp_path):
        panel = panel_of(
            [rec(1, 2, bar=1), rec(1, 3, bar=2, time_ms=34_260_000)], tmp_path, "day"
        )
        # buyer serial 1 belongs to its first minute only
        assert panel.cell("000001", D, 1)[:2] == (1, 1)
        assert panel.cell("000001", D, 2)[:2] == (0, 1)

    def test_day_scope_first_bar_attribution_ignores_row_order(self, tmp_path):
        later = rec(4, 9, bar=3, time_ms=34_330_000)
        earlier = rec(4, 8, bar=2, time_ms=34_270_000)
        for batch in ([later, earlier], [earlier, later]):
            panel = panel_of(batch, tmp_path, "day")
            assert panel.cell("000001", D, 2)[:2] == (1, 1)
            assert panel.cell("000001", D, 3)[:2] == (0, 1)

    def test_text_export_roundtrip(self, small_panel, tmp_path):
        path = tmp_path / "panel.csv"
        small_panel.write_text(path)
        loaded = read_text(path)
        assert loaded.equals(small_panel)

    def test_text_export_with_explicit_missing_cells(self, small_panel, tmp_path):
        # an export that also lists the no-trade minutes, as "0,0,NA" rows
        path = tmp_path / "panel_full.csv"
        small_panel.write_text(path)
        active = {tuple(line.split(",")[:3]) for line in path.read_text().splitlines()[1:]}
        empty = [
            f"{stock},{date.isoformat()},{bar},0,0,NA\n"
            for stock in small_panel.stocks
            for date in small_panel.dates
            for bar in range(1, BARS_PER_DAY + 1)
            if (stock, date.isoformat(), str(bar)) not in active
        ]
        assert empty
        with open(path, "a") as fh:
            fh.writelines(empty)
        assert read_text(path).equals(small_panel)

    @pytest.mark.parametrize("line", [
        "A,2015-05-04,0,3,1,0.5",  # bar 0 would index the last bar
        "A,2015-05-04,238,3,1,0.5",
        "A,2015-05-04,7,3,1,0.5",  # the cell the line above holds
        "A,2015-05-04,8,-3,1,2",
        "A,2015-05-04,8,3,2147483648,-1",
        "A,2015-05-04,8",
        "A,2015-05-04,8,3.0,1,0.5",
        "A,2015-13-04,8,3,1,0.5",
    ], ids=["bar 0", "bar 238", "repeated cell", "negative", "past int32", "short", "not an integer", "bad date"])
    def test_malformed_export_is_a_data_error_at_its_line(self, tmp_path, line):
        path = tmp_path / "panel.csv"
        path.write_text(f"stock_id,date,bar,buy,sell,polarity\nA,2015-05-04,7,3,1,0.5\n{line}\n")
        with pytest.raises(DataError, match=f"{path} line 3"):
            read_text(path)

    @settings(max_examples=120, deadline=None)
    @given(
        n_stocks=st.integers(0, 4),
        n_dates=st.integers(0, 3),
        cells=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 2), st.integers(0, BARS_PER_DAY - 1),
                st.integers(0, 3) | st.integers(0, 1 << 30),
                st.integers(0, 3) | st.integers(0, 1 << 30),
            ),
            max_size=60,
        ),
        slice_cells=st.sampled_from([1, BARS_PER_DAY, 500, 1 << 12]),
    )
    # (1, 0) beside (0, 2**k): pairs a narrower (buy, sell) key would merge
    @example(
        n_stocks=1, n_dates=1,
        cells=[(0, 0, 0, 1, 0)] + [(0, 0, k, 0, 1 << k) for k in range(1, 31)],
        slice_cells=1 << 12,
    )
    # buy + sell beyond 2**31 - 1, which an int32 sum wraps negative
    @example(
        n_stocks=1, n_dates=1,
        cells=[(0, 0, 0, 1 << 30, 1 << 30), (0, 0, 1, 1 << 30, (1 << 30) - 1)],
        slice_cells=1 << 12,
    )
    def test_text_export_matches_per_cell_writer(
        self, tmp_path_factory, n_stocks, n_dates, cells, slice_cells
    ):
        shape = (n_stocks, n_dates, BARS_PER_DAY)
        buy, sell = np.zeros(shape, np.int32), np.zeros(shape, np.int32)
        for i, j, k, b, s in cells:
            if i < n_stocks and j < n_dates:
                buy[i, j, k], sell[i, j, k] = b, s
        stocks = [f"{600000 + i}" for i in range(n_stocks)]
        panel = PolarityPanel(stocks, [D + dt.timedelta(days=j) for j in range(n_dates)], buy, sell)
        root = tmp_path_factory.mktemp("panel_text")
        _write_text_per_cell(panel, root / "ref.csv")
        with mock.patch("polab.panel._WRITE_CELLS", slice_cells):
            panel.write_text(root / "new.csv")
        assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()

    def test_day_scope_stable_across_block_splits_and_threads(self, small_scenario, tmp_path):
        # splitting a stock-day across cache blocks must not change which
        # minute a serial's first fill lands in
        files, _ = small_scenario
        reference = PolarityPanel.from_transactions(files.transactions, serial_scope="day")
        whole = tmp_path / "whole.plab"
        split = tmp_path / "split.plab"
        write_cache(whole, iter_transactions(files.transactions))
        write_cache(split, iter_transactions(files.transactions), flush_rows=128)
        for path in (whole, split):
            panel = PolarityPanel.from_cache(path, serial_scope="day")
            np.testing.assert_array_equal(panel.buy, reference.buy)
            np.testing.assert_array_equal(panel.sell, reference.sell)

    def test_day_scope_follows_first_fill_rule_on_scenario(self, small_scenario, tmp_path):
        files, _ = small_scenario
        assert_day_scope_follows_first_fill_rule(files.transactions, tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.tuples(
            st.sampled_from(FEED_DAYS), st.sampled_from(("000001", "000002")),
            st.sampled_from(FEED_TIMES), st.integers(1, 6), st.integers(1, 6),
        ),
        min_size=1, max_size=80,
    ))
    def test_day_scope_follows_first_fill_rule_on_random_feeds(self, tmp_path_factory, rows):
        # few serials over few minutes and days, rows in no time order: a
        # serial trades in several bars, on several days, often in one
        # millisecond with another of its fills
        root = tmp_path_factory.mktemp("day_scope")
        feed = root / "tx.csv"
        lines = ["trade_date,stock_id,time,price,volume,buy_serial,sell_serial"]
        lines += [f"{d},{stock},{t},10.0,100,{b},{s}" for d, stock, t, b, s in rows]
        feed.write_text("\n".join(lines) + "\n")
        assert_day_scope_follows_first_fill_rule(feed, root)

    def test_serial_beyond_u32_is_a_data_error(self, tmp_path):
        # 2**33 + 5 differs from the next row's serial 5 only above bit 32
        feed = tmp_path / "tx.csv"
        feed.write_text(
            "trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n"
            f"2015-05-04,000001,09:31:10.000,10.0,100,{2**33 + 5},1\n"
            "2015-05-04,000001,09:32:10.000,10.0,100,5,2\n"
        )
        with pytest.raises(DataError, match="buy_serial overflows the cache's u32 column"):
            PolarityPanel.from_transactions(feed)


class TestDirectionRatios:
    def make_panel(self, values):
        buy = np.zeros((1, 1, 237), dtype=np.int32)
        sell = np.zeros_like(buy)
        for k, v in enumerate(values):
            if v is None:
                continue
            if v > 0:
                buy[0, 0, k], sell[0, 0, k] = 3, 1
            elif v < 0:
                buy[0, 0, k], sell[0, 0, k] = 1, 3
            else:
                buy[0, 0, k], sell[0, 0, k] = 2, 2
        return PolarityPanel(["000001"], [D], buy, sell)

    def test_counts_over_nonmissing_cells(self):
        panel = self.make_panel([0.2, -0.1, 0, 0.5])
        r = direction_ratios("000001", panel.stock_polarity(0))
        assert (r.pos_ratio, r.neg_ratio, r.zero_ratio) == (0.5, 0.25, 0.25)
        assert r.n == 4

    def test_all_positive(self):
        panel = self.make_panel([0.1, 0.4, 0.9])
        r = direction_ratios("000001", panel.stock_polarity(0))
        assert (r.pos_ratio, r.neg_ratio, r.zero_ratio) == (1.0, 0.0, 0.0)

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(21)
        values = [
            None if rng.random() < 0.3 else float(rng.choice([-0.5, 0.0, 0.5]))
            for _ in range(237)
        ]
        panel = self.make_panel(values)
        r = direction_ratios("000001", panel.stock_polarity(0))
        assert abs(r.pos_ratio + r.neg_ratio + r.zero_ratio - 1.0) < 1e-12

    def test_no_cells_returns_none(self):
        panel = self.make_panel([None] * 237)
        assert direction_ratios("000001", panel.stock_polarity(0)) is None

    def test_synthetic_regime_concentration(self):
        # P(pos)=0.6, P(neg)=0.3, P(zero)=0.1 over 1e5 draws recovers the mix
        rng = np.random.default_rng(77)
        n = 100_000
        draws = rng.choice([1, -1, 0], size=n, p=[0.6, 0.3, 0.1])
        buy = np.where(draws == 1, 3, np.where(draws == -1, 1, 2)).astype(np.int32)
        sell = np.where(draws == 1, 1, np.where(draws == -1, 3, 2)).astype(np.int32)
        days = [dt.date(2015, 5, 4) + dt.timedelta(days=j) for j in range(n // 237 + 1)]
        shaped = np.zeros((1, len(days), 237), dtype=np.int32)
        shaped_sell = np.zeros_like(shaped)
        shaped.reshape(-1)[:n] = buy
        shaped_sell.reshape(-1)[:n] = sell
        panel = PolarityPanel(["000001"], days, shaped, shaped_sell)
        r = direction_ratios("000001", panel.stock_polarity(0))
        assert abs(r.pos_ratio - 0.6) < 0.01
        assert abs(r.neg_ratio - 0.3) < 0.01
        assert abs(r.zero_ratio - 0.1) < 0.01


class TestMarketPolarity:
    def make_two_stock_panel(self, p1, p2):
        buy = np.zeros((2, 1, 237), dtype=np.int32)
        sell = np.zeros_like(buy)
        for i, p in enumerate((p1, p2)):
            if p is None:
                continue
            # realize polarity p with counts (k(1+p), k(1-p)); exact for p in 0.05 steps
            b, s = round(20 * (1 + p)), round(20 * (1 - p))
            buy[i, 0, 0], sell[i, 0, 0] = b, s
        return PolarityPanel(["A", "B"], [D], buy, sell)

    def first_minute(self, p1, p2):
        return market_polarity_series(self.make_two_stock_panel(p1, p2))[0, 0]

    def test_symmetric_stocks_average_to_zero(self):
        assert self.first_minute(0.4, -0.4) == pytest.approx(0.0)

    def test_missing_stock_excluded_from_mean(self):
        assert self.first_minute(0.4, None) == pytest.approx(0.4)

    def test_no_stocks_gives_nan(self):
        assert math.isnan(self.first_minute(None, None))

    def test_identical_polarity_is_identity(self):
        assert self.first_minute(0.25, 0.25) == pytest.approx(0.25)

    def test_stocks_are_added_in_order_not_pairwise(self):
        # numpy's pairwise mean of these eight polarities is exactly 0.0;
        # added stock by stock they leave a rounding residue
        pairs = [(1, 2), (1, 3), (2, 2), (2, 2), (2, 1), (1, 2), (2, 1), (3, 1)]
        counts = np.zeros((2, 8, 1, BARS_PER_DAY))
        counts[:, :, 0, 0] = np.transpose(pairs)
        panel = count_panel(*counts)
        pol = whole_polarity(panel)
        assert np.mean(pol[:, 0, 0]) == 0.0
        assert market_polarity_series(panel)[0, 0] == 6.938893903907228e-18
        assert whole_market_polarity(pol, 0, 1) == 6.938893903907228e-18

    def test_500_stock_panel_concentrates_per_bar(self):
        # per-stock polarity averages 0.08 under steered Poisson counts, so
        # the 500-stock mean stays inside 0.08 +/- 0.03 in every minute; the
        # stock-by-stock mean recomputation must agree exactly
        rng = np.random.default_rng(2015)
        shape = (500, 1, 237)
        buy = rng.poisson(10.8, shape).astype(np.int32)
        sell = rng.poisson(9.2, shape).astype(np.int32)
        none = (buy == 0) | (sell == 0)
        buy[none] = 0
        sell[none] = 0
        panel = PolarityPanel([f"{i:06d}" for i in range(500)], [D], buy, sell)
        series = market_polarity_series(panel)
        assert np.isfinite(series).all()
        assert np.all(np.abs(series - 0.08) <= 0.03)
        pol = whole_polarity(panel)
        for bar in (1, 118, 237):
            assert series[0, bar - 1] == whole_market_polarity(pol, 0, bar)

    def test_series_matches_scalar(self, small_panel):
        series = market_polarity_series(small_panel)
        pol = whole_polarity(small_panel)
        for j in range(len(small_panel.dates)):
            for bar in (1, 50, 237):
                assert _bits(series[j, bar - 1]) == _bits(whole_market_polarity(pol, j, bar))


class TestDailyPolarityAtIndexMin:
    def build_index(self, pct_by_bar, dates=(D,)):
        intraday = {d: np.full(237, np.nan) for d in dates}
        base = 100.0
        for bar, pct in pct_by_bar.items():
            intraday[D][bar - 1] = base * (1 + pct)
        eod = {D - dt.timedelta(days=1): base, D: base}
        return build_return_series("IDX", eod, intraday)

    def panel_with_bar_polarities(self, by_bar, n_dates=1):
        buy = np.zeros((1, n_dates, 237), dtype=np.int32)
        sell = np.zeros_like(buy)
        for bar, p in by_bar.items():
            buy[0, 0, bar - 1] = round(20 * (1 + p))
            sell[0, 0, bar - 1] = round(20 * (1 - p))
        return count_panel(buy, sell)

    def index_min_rows(self, panel, idx):
        return daily_polarity_at_index_min(market_polarity_series(panel), panel.dates, idx)

    def test_picks_argmin_bar(self):
        idx = self.build_index({1: -0.01, 2: -0.03, 3: 0.0})
        panel = self.panel_with_bar_polarities({1: 0.1, 2: 0.2, 3: 0.0})
        [(date, bar, value)] = self.index_min_rows(panel, idx)
        assert (date, bar) == (D, 2) and value == pytest.approx(0.2)

    def test_tie_breaks_to_earliest_bar(self):
        idx = self.build_index({1: -0.02, 2: -0.02, 3: -0.02})
        panel = self.panel_with_bar_polarities({1: 0.5, 2: -0.5, 3: 0.1})
        [(date, bar, value)] = self.index_min_rows(panel, idx)
        assert (date, bar) == (D, 1) and value == pytest.approx(0.5)

    def test_missing_index_day_is_skipped(self):
        # the second panel date has no index prices, then only unpriced minutes
        panel = self.panel_with_bar_polarities({1: 0.1}, n_dates=2)
        for dates in ((D,), (D, D + dt.timedelta(days=1))):
            idx = self.build_index({1: -0.01}, dates)
            assert [(d, bar) for d, bar, _ in self.index_min_rows(panel, idx)] == [(D, 1)]

    def test_planted_minimum_recovered(self, small_scenario, small_panel):
        from polab.marketdata.prices import load_eod_prices, load_intraday_prices

        files, truth = small_scenario
        eod = load_eod_prices(files.eod_prices)
        intraday = load_intraday_prices(files.intraday_prices)
        idx = build_return_series(files.index_id, eod[files.index_id], intraday[files.index_id])
        series = market_polarity_series(small_panel)
        rows = self.index_min_rows(small_panel, idx)
        assert [d for d, _, _ in rows] == small_panel.dates
        for j, (date, bar, value) in enumerate(rows):
            assert bar == truth.index_min_bar[date]
            assert _bits(value) == _bits(series[j, bar - 1])


# -- polarity derived a stock at a time, against the whole-panel formulas -------


def whole_polarity(panel):
    """Polarity derived over the whole panel at once, as the panel once kept
    it: the reference for every per-stock derivation."""
    total = panel.buy.astype(np.float64)
    total += panel.sell
    p = panel.buy.astype(np.float64)
    p -= panel.sell
    with np.errstate(invalid="ignore", divide="ignore"):
        p /= total
    p[total == 0] = np.nan
    return p


def whole_market_series(pol):
    """``market_polarity_series`` as one reduction over the stock axis."""
    with np.errstate(invalid="ignore"):
        counts = np.isfinite(pol).sum(axis=0)
        sums = np.nansum(pol, axis=0)
        return np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)


def whole_market_polarity(pol, j, bar):
    """One minute of ``market_polarity_series``, its stocks added in order."""
    total, n = 0.0, 0
    for p in pol[:, j, bar - 1]:
        if np.isfinite(p):
            total += p
            n += 1
    return total / n if n else math.nan


def count_panel(buy, sell):
    stocks = [f"S{i:03d}" for i in range(buy.shape[0])]
    dates = [D + dt.timedelta(days=j) for j in range(buy.shape[1])]
    return PolarityPanel(stocks, dates, buy.astype(np.int32), sell.astype(np.int32))


#: counts whose int32 sum would wrap
NEAR_MAX = (2**31 - 3, 2**31 - 2, 2**31 - 1)


@st.composite
def count_panels(draw):
    """Panels with no-trade minutes, one-sided minutes and counts near
    2**31 - 1, from one stock and one date up."""
    shape = (draw(st.integers(1, 20)), draw(st.integers(1, 3)), BARS_PER_DAY)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 12, (2, *shape))
    big = rng.random(counts.shape) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    counts[big] = rng.choice(NEAR_MAX, int(big.sum()))
    counts[rng.random(counts.shape) < 0.2] = 0  # one side idle
    counts[:, rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))] = 0
    return count_panel(*counts)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


EDGE_PANELS = (
    count_panel(np.full((1, 1, BARS_PER_DAY), 2**31 - 1), np.full((1, 1, BARS_PER_DAY), 2**31 - 1)),
    count_panel(np.zeros((2, 1, BARS_PER_DAY)), np.zeros((2, 1, BARS_PER_DAY))),
    count_panel(np.full((3, 2, BARS_PER_DAY), 2**31 - 1), np.ones((3, 2, BARS_PER_DAY))),
)


@settings(deadline=None)
@given(panel=count_panels())
@example(panel=EDGE_PANELS[0])
@example(panel=EDGE_PANELS[1])
@example(panel=EDGE_PANELS[2])
def test_per_stock_derivation_matches_the_whole_panel_bit_for_bit(panel):
    from polab.cli import _finite_polarity

    pol = whole_polarity(panel)
    n_stocks, n_dates = len(panel.stocks), len(panel.dates)
    assert _bits([panel.stock_polarity(i) for i in range(n_stocks)]) == _bits(pol)
    rows = [row for _, _, row in panel.iter_stock_days()]
    assert _bits(rows) == _bits(pol.reshape(-1, BARS_PER_DAY))
    assert _bits(panel.row(panel.stocks[-1], panel.dates[-1])) == _bits(pol[-1, -1])
    series = market_polarity_series(panel)
    assert _bits(series) == _bits(whole_market_series(pol))
    for j in range(n_dates):
        for bar in (1, 2, 118, 236, 237):
            assert _bits(series[j, bar - 1]) == _bits(whole_market_polarity(pol, j, bar))
    # the moments' arrays: every date, each single date and the last ones
    scopes = [slice(None), list(range(n_dates))] + [[j] for j in range(n_dates)] + [[]]
    scopes.append(list(range(1, n_dates)))
    for cols in scopes:
        vals = pol[:, cols, :]
        assert _bits(_finite_polarity(panel, cols)) == _bits(vals[np.isfinite(vals)])
    for i, stock in enumerate(panel.stocks):
        vals = pol[i][np.isfinite(pol[i])]
        got = direction_ratios(stock, panel.stock_polarity(i))
        if len(vals) == 0:
            assert got is None
        else:
            want = ((vals > 0).sum() / len(vals), (vals < 0).sum() / len(vals))
            assert (got.pos_ratio, got.neg_ratio, got.n) == (*want, len(vals))


def test_readers_hold_a_stock_slab_not_a_panel():
    import tracemalloc

    rng = np.random.default_rng(2015)
    shape = (300, 3, BARS_PER_DAY)
    panel = count_panel(rng.poisson(0.4, shape), rng.poisson(0.4, shape))
    budget = panel.buy.nbytes // 10  # the whole panel's polarity is 2x buy.nbytes

    def ratios_pass():
        for i, stock in enumerate(panel.stocks):
            direction_ratios(stock, panel.stock_polarity(i))

    passes = {
        "iter_stock_days": lambda: sum(1 for _ in panel.iter_stock_days()),
        "market_polarity_series": lambda: market_polarity_series(panel),
        "direction_ratios": ratios_pass,
    }
    tracemalloc.start()
    try:
        for name, run in passes.items():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < budget, f"{name} allocated {peak} B at peak, budget {budget} B"
    finally:
        tracemalloc.stop()
    held = [v for v in vars(panel).values() if isinstance(v, np.ndarray) and v.dtype == np.float64]
    assert held == []


def _reencode_ids(arrays, ids):
    raw = [s.encode("utf-8") for s in ids]
    arrays["stock_bytes"] = np.frombuffer(b"".join(raw), dtype=np.uint8)
    arrays["stock_ends"] = np.cumsum([len(b) for b in raw], dtype=np.int64)


def _swap_first_ids(arrays):
    bounds = np.concatenate([[0], arrays["stock_ends"]])
    raw = arrays["stock_bytes"].tobytes()
    ids = [raw[a:b].decode() for a, b in zip(bounds[:-1], bounds[1:])]
    _reencode_ids(arrays, [ids[1], ids[0]] + ids[2:])


def _built_dtype(panel) -> np.dtype:
    """The count type a build gives ``panel``'s counts: the narrowest
    unsigned type that holds the largest."""
    return np.min_scalar_type(max(int(panel.buy.max(initial=0)), int(panel.sell.max(initial=0))))


def _wider(counts):
    return counts.astype(f"u{2 * counts.itemsize}")


#: edits that make a memo unusable: the panel must be rebuilt from the cache
MEMO_DAMAGE = {
    "other cache": lambda a: a.update(key=a["key"] + np.array([0, 1, 0])),
    "other size": lambda a: a.update(key=a["key"] + np.array([0, 0, 1])),
    "other format": lambda a: a.update(key=a["key"] + np.array([1, 0, 0])),
    "other scope": lambda a: a.update(scope=np.array("day")),
    "int64 counts": lambda a: a.update(buy=a["buy"].astype(np.int64)),
    "version 2": lambda a: a.update(
        key=a["key"] - np.array([1, 0, 0]),
        buy=a["buy"].astype(np.int32), sell=a["sell"].astype(np.int32),
    ),
    "wider sell": lambda a: a.update(sell=_wider(a["sell"])),
    "short sell": lambda a: a.update(sell=a["sell"][:, :1]),
    "flat buy": lambda a: a.update(buy=a["buy"].reshape(-1)),
    "unsorted ids": _swap_first_ids,
    "duplicate ids": lambda a: _reencode_ids(a, ["000001"] * len(a["stock_ends"])),
    "ids past the bytes": lambda a: a.update(stock_ends=a["stock_ends"] + 1),
    "id not UTF-8": lambda a: a.update(stock_bytes=np.full_like(a["stock_bytes"], 0xFF)),
    "duplicate dates": lambda a: a.update(dates=np.repeat(a["dates"][:1], len(a["dates"]))),
    "bad date": lambda a: a["dates"].__setitem__(-1, 20151399),
    "int64 dates": lambda a: a.update(dates=a["dates"].astype(np.int64)),
    "no sell": lambda a: a.pop("sell"),
}


class TestPanelMemo:
    @pytest.fixture
    def cached(self, small_scenario, tmp_path):
        files, _ = small_scenario
        path = tmp_path / "c.plab"
        write_cache(path, iter_transactions(files.transactions))
        return path, PolarityPanel.from_cache(path)

    @staticmethod
    def load(path, **kwargs):
        """(panel, whether the cache was read to build it)."""
        with mock.patch.object(cache_mod, "iter_blocks", wraps=cache_mod.iter_blocks) as read:
            panel = PolarityPanel.from_cache_memo(path, **kwargs)
        return panel, read.called

    @staticmethod
    def same(a, b):
        return (
            a.stocks == b.stocks and a.dates == b.dates
            and np.array_equal(a.buy, b.buy) and np.array_equal(a.sell, b.sell)
            and a.buy.dtype == a.sell.dtype == b.buy.dtype == b.sell.dtype == _built_dtype(b)
        )

    def test_built_once_then_loaded(self, cached):
        path, reference = cached
        panel, built = self.load(path)
        assert built and self.same(panel, reference)
        panel, built = self.load(path)
        assert not built and self.same(panel, reference)
        names = sorted(p.name for p in path.parent.iterdir())
        assert names == ["c.plab", "c.plab.panel-bar.npz"]

    def test_scopes_keep_separate_memos(self, tmp_path):
        # buy serial 5 trades in bars 1 and 2: the scopes count it differently
        path = tmp_path / "scopes.plab"
        cols = dict(bar=[1, 2], buy_serial=[5, 5], sell_serial=[6, 7])
        block = cache_mod.CacheBlock("000001", D, **{k: np.array(v) for k, v in cols.items()})
        with cache_mod.CacheWriter(path) as w:
            w.append(chunk_of(block))
        for first in (True, False):
            for scope, want in (("bar", [1, 1]), ("day", [1, 0])):
                panel, built = self.load(path, serial_scope=scope)
                assert built == first and panel.buy[0, 0, :2].tolist() == want
        assert panel_memo_path(path, "bar").exists() and panel_memo_path(path, "day").exists()

    @pytest.mark.parametrize("name", sorted(MEMO_DAMAGE))
    def test_unusable_memo_is_rebuilt_and_replaced(self, cached, name):
        path, reference = cached
        self.load(path)
        memo = panel_memo_path(path, "bar")
        with np.load(memo) as z:
            arrays = dict(z)
        MEMO_DAMAGE[name](arrays)
        with open(memo, "wb") as fh:
            np.savez(fh, **arrays)
        panel, built = self.load(path)
        assert built and self.same(panel, reference)
        panel, built = self.load(path)
        assert not built and self.same(panel, reference)

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04", b"not a memo at all"])
    def test_unreadable_memo_is_rebuilt(self, cached, content):
        path, reference = cached
        panel_memo_path(path, "bar").write_bytes(content)
        panel, built = self.load(path)
        assert built and self.same(panel, reference)
        assert not self.load(path)[1]

    def test_damaged_cache_is_refused_beside_a_valid_memo(self, cached):
        path, _ = cached
        self.load(path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="does not match its checksum"):
            PolarityPanel.from_cache_memo(path)

    @pytest.mark.parametrize("memo", (False, True))
    def test_cache_without_its_trailer_is_refused(self, cached, memo):
        # the trailer is the cache's record of itself: without it neither a
        # memo nor a build is trusted, and no memo is written
        path, _ = cached
        if memo:
            self.load(path)
        memo_before = panel_memo_path(path, "bar").read_bytes() if memo else None
        path.write_bytes(path.read_bytes()[:-TRAILER])
        with pytest.raises(DataError, match=r"bad trailer magic .*re-run `polab ingest`"):
            PolarityPanel.from_cache_memo(path)
        memo_path = panel_memo_path(path, "bar")
        assert (memo_path.read_bytes() if memo_path.exists() else None) == memo_before

    def test_failed_memo_write_still_returns_the_panel(self, cached, monkeypatch):
        path, reference = cached

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        panel, built = self.load(path)
        assert built and self.same(panel, reference)
        assert sorted(p.name for p in path.parent.iterdir()) == ["c.plab"]

    def test_cache_replaced_during_the_build_is_not_memoised(self, cached, monkeypatch):
        path, reference = cached
        build = PolarityPanel.from_cache

        def build_then_replace(cache_path, **kwargs):
            panel = build(cache_path, **kwargs)
            first = next(cache_mod.iter_blocks(cache_path))
            with cache_mod.CacheWriter(cache_path) as w:
                w.append(chunk_of(first))
            return panel

        monkeypatch.setattr(PolarityPanel, "from_cache", build_then_replace)
        assert self.same(PolarityPanel.from_cache_memo(path), reference)
        assert not panel_memo_path(path, "bar").exists()


def _cache_of_counts(path, buys: int, sells: int = 1, rows_per_bar: int | None = None):
    """A one-block cache of ``max(buys, sells)`` rows with ``buys`` buy
    serials and ``sells`` sell serials, all in the first minute; with
    ``rows_per_bar``, that many rows to a minute instead."""
    n = max(buys, sells)
    bar = np.ones(n, np.uint8)
    if rows_per_bar is not None:
        bar = (np.arange(n) // rows_per_bar % BARS_PER_DAY + 1).astype(np.uint8)
    block = cache_mod.CacheBlock(
        "000001", D, bar,
        buy_serial=np.arange(n, dtype=np.uint32) % buys + 1,
        sell_serial=np.arange(n, dtype=np.uint32) % sells + 1,
    )
    with cache_mod.CacheWriter(path) as w:
        w.append(chunk_of(block))
    return path


class TestCountType:
    """A built panel holds its counts in the narrowest unsigned type that
    holds the largest; every reader widens them first."""

    @pytest.mark.parametrize("largest, dtype", [
        (1, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
    ])
    def test_type_follows_the_largest_count(self, tmp_path, largest, dtype):
        path = _cache_of_counts(tmp_path / "c.plab", largest)
        panel = PolarityPanel.from_cache(path)
        assert panel.buy.dtype == panel.sell.dtype == dtype
        assert panel.cell("000001", D, 1)[:2] == (largest, 1)
        (first, built), (second, rebuilt) = TestPanelMemo.load(path), TestPanelMemo.load(path)
        assert built and not rebuilt
        assert TestPanelMemo.same(first, panel) and TestPanelMemo.same(second, panel)

    def test_type_follows_the_largest_count_not_the_block_rows(self, tmp_path):
        # 70,000 rows in one block, at most 296 of them in any minute
        path = _cache_of_counts(tmp_path / "c.plab", 70_000, 70_000, rows_per_bar=296)
        panel = PolarityPanel.from_cache(path)
        assert panel.buy.dtype == panel.sell.dtype == np.uint16
        assert int(panel.buy.max()) == int(panel.sell.max()) == 296

    def test_empty_panel_holds_bytes(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("stock_id,date,bar,buy,sell,polarity\n")
        panel = read_text(path)
        assert panel.buy.shape == (0, 0, BARS_PER_DAY)
        assert panel.buy.dtype == panel.sell.dtype == np.uint8

    def test_read_text_of_the_largest_count_holds_uint32(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            "stock_id,date,bar,buy,sell,polarity\n"
            f"A,2015-05-04,7,{2**31 - 1},1,1\nA,2015-05-05,8,3,0,1\n"
        )
        panel = read_text(path)
        assert panel.buy.dtype == panel.sell.dtype == np.uint32
        assert panel.cell("A", D, 7)[:2] == (2**31 - 1, 1)

    @pytest.mark.parametrize("wider", [_wider, lambda c: c.astype(np.int32)], ids=["wider", "int32"])
    @pytest.mark.parametrize("largest", [255, 256, 65_536])
    def test_memo_in_another_type_is_rebuilt(self, tmp_path, largest, wider):
        path = _cache_of_counts(tmp_path / "c.plab", largest)
        reference, _ = TestPanelMemo.load(path)
        memo = panel_memo_path(path, "bar")
        with np.load(memo) as z:
            arrays = dict(z)
        arrays.update(buy=wider(arrays["buy"]), sell=wider(arrays["sell"]))
        with open(memo, "wb") as fh:
            np.savez(fh, **arrays)
        panel, built = TestPanelMemo.load(path)
        assert built and TestPanelMemo.same(panel, reference)
        with np.load(memo) as z:
            assert z["buy"].dtype == z["sell"].dtype == reference.buy.dtype

    def test_narrow_counts_that_sum_past_their_type_read_as_wide_ones(self, tmp_path):
        # 200 + 100 and 255 + 255 overflow a uint8 sum; 0 + 0 has no polarity
        shape = (2, 1, BARS_PER_DAY)
        buy = np.resize(np.array([200, 100, 255, 0, 1, 7], np.uint8), shape)
        sell = np.resize(np.array([100, 200, 255, 0, 0, 7], np.uint8), shape)
        wide = count_panel(buy, sell)
        narrow = PolarityPanel(wide.stocks, wide.dates, buy, sell)
        assert narrow.buy.dtype == np.uint8 and wide.buy.dtype == np.int32
        assert _bits(derive_polarity(narrow.buy, narrow.sell)) == _bits(
            derive_polarity(wide.buy, wide.sell)
        )
        assert narrow.cell("S000", D, 1) == (200, 100, 1 / 3)
        assert narrow.active_cells() == wide.active_cells()
        narrow.write_text(tmp_path / "narrow.csv")
        wide.write_text(tmp_path / "wide.csv")
        text = (tmp_path / "narrow.csv").read_bytes()
        assert text == (tmp_path / "wide.csv").read_bytes()
        assert b"S000,2015-05-04,1,200,100,0.333333333333\n" in text
        assert b"S000,2015-05-04,3,255,255,0\n" in text
