import datetime as dt
import math

import numpy as np
import pytest

from polab.errors import DataError
from polab.marketdata.grid import BARS_PER_DAY
from polab.returns import build_return_series, log_returns_in_place

D1 = dt.date(2015, 5, 4)
D2 = dt.date(2015, 5, 5)
D3 = dt.date(2015, 5, 6)


def intraday(values_by_bar):
    arr = np.full(BARS_PER_DAY, np.nan)
    for bar, v in values_by_bar.items():
        arr[bar - 1] = v
    return arr


class TestDailyPct:
    def test_basic_percentage_change(self):
        rs = build_return_series("S", {D1: 10.0, D2: 11.0})
        assert rs.daily_pct[D2] == pytest.approx(0.10)

    def test_first_day_has_no_return(self):
        rs = build_return_series("S", {D1: 10.0, D2: 11.0})
        assert D1 not in rs.daily_pct

    def test_limit_move_flagged_not_rejected(self):
        rs = build_return_series("S", {D1: 20.0, D2: 18.0})
        assert rs.daily_pct[D2] == pytest.approx(-0.10)
        assert D2 in rs.at_limit

    def test_move_beyond_the_band_is_printed_and_flagged(self, capsys):
        rs = build_return_series("S", {D1: 18.0, D2: 20.0})
        assert D2 in rs.at_limit
        err = capsys.readouterr().err
        assert err == "S moved 0.1111 on 2015-05-05, beyond the +/-10% daily band\n"

    def test_normal_move_not_flagged(self):
        rs = build_return_series("S", {D1: 20.0, D2: 20.6})
        assert D2 not in rs.at_limit

    def test_calendar_gaps_use_prior_trading_day(self):
        rs = build_return_series("S", {D1: 10.0, D3: 12.0})
        assert rs.daily_pct[D3] == pytest.approx(0.20)

    def test_nonpositive_close_is_hard_error(self):
        with pytest.raises(DataError, match="S.*2015-05-05"):
            build_return_series("S", {D1: 10.0, D2: -1.0})


class TestIntradayLog:
    def test_log_return_of_flat_prices_is_zero(self):
        rs = build_return_series("S", {D1: 10.0}, {D2: intraday({5: 10.0, 6: 10.0})})
        assert rs.intraday_log[D2][5] == pytest.approx(0.0)

    def test_log_return_values(self):
        rs = build_return_series("S", {}, {D1: intraday({1: 10.0, 2: 10.5})})
        assert rs.intraday_log[D1][1] == pytest.approx(math.log(10.5) - math.log(10.0))

    def test_missing_neighbor_gives_missing_return(self):
        rs = build_return_series("S", {}, {D1: intraday({1: 10.0, 3: 10.5})})
        logs = rs.intraday_log[D1]
        assert np.isnan(logs[1]) and np.isnan(logs[2])

    def test_first_bar_has_no_previous_minute(self):
        rs = build_return_series("S", {}, {D1: intraday({1: 10.0, 2: 10.5})})
        assert np.isnan(rs.intraday_log[D1][0])

    def test_nonpositive_intraday_price_is_hard_error(self):
        with pytest.raises(DataError, match="bar 7"):
            build_return_series("S", {}, {D1: intraday({7: 0.0})})


class TestIntradayLogInPlace:
    @staticmethod
    def grid(n_days, seed=0):
        """Rows of one 2-D grid, as the columnar price reader hands them out:
        views whose start is 8-byte but seldom 64-byte aligned."""
        rng = np.random.default_rng(seed)
        g = np.exp(np.cumsum(rng.normal(0, 0.01, (n_days, BARS_PER_DAY)), axis=1)) * 10
        g[rng.random(g.shape) < 0.3] = np.nan
        return g

    def test_bitwise_equal_to_an_out_of_place_log_difference(self):
        g = self.grid(64)
        want = np.full_like(g, np.nan)
        lp = np.log(g)
        want[:, 1:] = lp[:, 1:] - lp[:, :-1]
        assert all(log_returns_in_place(row) is row for row in g)
        assert g.tobytes() == want.tobytes()

    def test_a_block_of_days_gives_each_day_its_bits(self):
        # kl and impact take a stock's days as one (dates, 237) block; the
        # index series takes them a day at a time
        g = self.grid(64, seed=3)
        days = g.copy()
        for day in days:
            log_returns_in_place(day)
        assert log_returns_in_place(g).tobytes() == days.tobytes()

    def test_series_leaves_its_inputs_alone(self):
        arr = intraday({1: 10.0, 2: 10.5})
        before = arr.copy()
        build_return_series("S", {}, {D1: arr})
        assert arr.tobytes() == before.tobytes()


class TestIntradayPctVsPrevClose:
    def test_uses_prior_close_as_base(self):
        rs = build_return_series("S", {D1: 10.0, D2: 10.5}, {D2: intraday({1: 10.2})})
        assert rs.intraday_pct_vs_prev_close[D2][0] == pytest.approx(0.02)

    def test_first_day_without_base_is_all_missing(self):
        rs = build_return_series("S", {D1: 10.0}, {D1: intraday({1: 10.2})})
        assert np.all(np.isnan(rs.intraday_pct_vs_prev_close[D1]))

    def test_shape_validation(self):
        with pytest.raises(DataError, match="shape"):
            build_return_series("S", {}, {D1: np.ones(10)})
