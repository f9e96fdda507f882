import numpy as np
import pytest

from polab.marketdata.grid import (
    BARS_PER_DAY,
    OFF_GRID,
    assign_bar,
    assign_bars,
    bar_start_ms,
)


def ms(h, m, s=0, msec=0):
    return ((h * 60 + m) * 60 + s) * 1000 + msec


class TestAssignBar:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (ms(9, 30), 1),  # first interval opens the grid
            (ms(9, 31, 2, 340), 2),
            (ms(11, 29, 59, 999), 120),
            (ms(11, 30), OFF_GRID),  # morning close is exclusive
            (ms(12, 15), OFF_GRID),  # lunch break
            (ms(13, 0), 121),
            (ms(14, 56, 59, 999), 237),
            (ms(14, 57), OFF_GRID),  # closing call excluded
            (ms(9, 29, 59), OFF_GRID),  # opening auction
            (0, OFF_GRID),
            (ms(23, 59, 59, 999), OFF_GRID),
        ],
    )
    def test_boundaries(self, t, expected):
        assert assign_bar(t) == expected

    def test_total_over_the_day(self):
        all_ms = np.arange(0, 86_400_000, 997)
        bars = assign_bars(all_ms)
        assert bars.min() >= 0 and bars.max() <= BARS_PER_DAY

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 86_400_000, 20_000)
        vec = assign_bars(t)
        assert all(assign_bar(int(v)) == int(b) for v, b in zip(t, vec))

    def test_monotone_within_sessions(self):
        on_grid = [t for t in range(ms(9, 25), ms(15, 5), 213) if assign_bar(t) != OFF_GRID]
        bars = [assign_bar(t) for t in on_grid]
        assert bars == sorted(bars)

    def test_every_minute_covered_exactly_once(self):
        # each bar holds exactly 60000 ms of the day
        counts = np.bincount(assign_bars(np.arange(0, 86_400_000, 1000)), minlength=238)
        assert (counts[1:] == 60).all()
        assert counts.sum() == 86_400

    def test_bar_start_roundtrip(self):
        for bar in range(1, BARS_PER_DAY + 1):
            start = bar_start_ms(bar)
            assert assign_bar(start) == bar
            assert assign_bar(start + 59_999) == bar

    def test_bar_start_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bar_start_ms(0)
        with pytest.raises(ValueError):
            bar_start_ms(238)
