"""Flip statistics, and run lengths against their per-stock-day reference.

``reference_run_lengths`` is ``flips.run_lengths`` as it was before it took
whole slabs: one zero-removed stock-day at a time, one sample per interior
run. It is kept here as a test oracle only, like the per-row generator in
``test_synth_reference``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polab.flips import build_flip_series, flip_stats, run_lengths

NA = np.nan


def series(values):
    return build_flip_series(np.asarray(values, dtype=float))


def reference_run_lengths(fs) -> list:
    """(sign, length) of each interior same-sign run of one stock-day."""
    v = fs.values
    if len(v) == 0:
        return []
    signs = np.sign(v).astype(np.int8)
    change = np.nonzero(signs[1:] != signs[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(v)]))
    return [(int(signs[s]), int(e - s)) for s, e in zip(starts[1:-1], ends[1:-1])]


def runs(values) -> list:
    """(sign, length) of each run ``run_lengths`` finds in one row."""
    return [(sign, length) for _, sign, length in run_lengths(values).tolist()]


class TestBuildFlipSeries:
    def test_zeros_and_missing_removed_order_kept(self):
        fs = series([0.2, 0.0, -0.3, NA, 0.1])
        np.testing.assert_array_equal(fs.values, [0.2, -0.3, 0.1])
        assert fs.effective_length == 4  # zero minute counts, missing does not

    def test_all_missing_day(self):
        fs = series([NA] * 237)
        assert len(fs.values) == 0 and fs.effective_length == 0

    def test_planted_zero_positions(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.1, 0.9, 50)
        zero_at = rng.choice(50, 10, replace=False)
        values[zero_at] = 0.0
        fs = series(values)
        np.testing.assert_array_equal(fs.values, values[values != 0.0])
        assert fs.effective_length == 50


class TestFlipStats:
    def test_worked_five_minute_sequence(self):
        # one well-known five-minute day: two flips, depth 0.5 + 0.5
        fs = series([0.2, -0.3, -0.4, -0.2, 0.3])
        out = flip_stats(fs)
        assert out.flip_count == 2
        assert out.standardized_flips == pytest.approx(0.4)
        assert out.depth == pytest.approx(1.0)
        assert out.averaged_depth == pytest.approx(0.5)

    def test_monotone_sign_day(self):
        out = flip_stats(series([0.1, 0.5, 0.2, 0.9]))
        assert out.flip_count == 0
        assert out.depth == 0.0
        assert out.averaged_depth is None

    def test_perfect_alternation_closed_form(self):
        p = 0.7
        n = 31
        values = [p if i % 2 == 0 else -p for i in range(n)]
        out = flip_stats(series(values))
        assert out.flip_count == n - 1
        assert out.depth == pytest.approx((n - 1) * 2 * p)

    def test_empty_day_standardizes_to_zero(self):
        out = flip_stats(series([NA] * 5))
        assert out.standardized_flips == 0.0
        assert out.flip_count == 0

    def test_depth_counts_only_flip_positions(self):
        # the 0.2 step inside the negative run must not contribute
        out = flip_stats(series([0.5, -0.1, -0.9, 0.5]))
        assert out.flip_count == 2
        assert out.depth == pytest.approx(0.6 + 1.4)

    def test_sign_flip_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.uniform(-1, 1, 60)
            v[rng.random(60) < 0.2] = 0.0
            v[rng.random(60) < 0.2] = NA
            a = flip_stats(series(v))
            b = flip_stats(series(np.negative(v)))
            assert a.flip_count == b.flip_count
            assert a.depth == pytest.approx(b.depth, abs=1e-12)
            assert a.standardized_flips == b.standardized_flips

    def test_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = rng.uniform(-1, 1, rng.integers(1, 237))
            out = flip_stats(series(v))
            assert 0.0 <= out.standardized_flips <= 1.0
            assert out.depth <= 2.0 * max(out.flip_count, 1)


class TestRunLengths:
    def test_worked_example_negative_run_of_three(self):
        assert runs([0.2, -0.3, -0.4, -0.2, 0.3]) == [(-1, 3)]

    def test_unbounded_day_emits_nothing(self):
        out = run_lengths([0.1, 0.2, 0.3])
        assert out.shape == (0, 3) and out.dtype == np.int64

    def test_boundary_runs_censored(self):
        assert runs([0.1, 0.1, -0.2, 0.3, 0.3, 0.3, -0.4]) == [(-1, 1), (1, 3)]

    def test_alternating_sequence_interior_runs(self):
        m = 7
        values = [0.5 if i % 2 == 0 else -0.5 for i in range(2 * m + 1)]
        out = runs(values)
        assert len(out) == 2 * m - 1
        assert all(length == 1 for _, length in out)

    def test_duality_swaps_sign_labels(self):
        v = [0.2, -0.3, -0.4, 0.1, 0.1, -0.6, 0.9]
        a = runs(v)
        b = runs([-x for x in v])
        assert [(-sign, length) for sign, length in a] == b

    def test_zeros_do_not_split_runs(self):
        assert runs([0.5, -0.1, 0.0, -0.2, 0.7]) == [(-1, 2)]

    def test_day_permutation_independence(self):
        # statistics live strictly inside days: day order cannot matter
        days = [
            [0.2, -0.3, -0.4, -0.2, 0.3, NA],
            [0.5, -0.5, 0.5, NA, NA, NA],
            [-0.1, 0.2, 0.2, -0.8, NA, NA],
        ]
        fwd = run_lengths(days)
        rev = run_lengths(days[::-1])
        assert fwd[:, 0].tolist() == [0, 1, 2]
        assert sorted(fwd[:, 1:].tolist()) == sorted(rev[:, 1:].tolist())

    def test_edge_runs_of_adjacent_days_do_not_merge(self):
        # day 0 ends negative and day 1 starts negative: two censored runs
        out = run_lengths([[0.1, -0.2, 0.3, -0.4], [-0.5, 0.6, -0.7, NA]])
        assert out.tolist() == [[0, -1, 1], [0, 1, 1], [1, 1, 1]]


def _polarity_values():
    """Minute values with NaN, zero and both signs well represented."""
    return st.one_of(
        st.just(NA),
        st.just(0.0),
        st.sampled_from([-1.0, -0.5, 0.25, 1.0]),
        st.floats(-1.0, 1.0, allow_nan=False),
    )


@st.composite
def _slabs(draw):
    """One stock's polarity rows: 0 to 6 days of 1 to 12 minutes, some rows
    one-signed, and adjacent rows that may share their edge signs."""
    n_rows = draw(st.integers(0, 6))
    n_minutes = draw(st.integers(1, 12))
    slab = draw(hnp.arrays(np.float64, (n_rows, n_minutes), elements=_polarity_values()))
    for r in range(n_rows):
        if draw(st.booleans()):
            slab[r] = np.abs(slab[r]) * draw(st.sampled_from([1.0, -1.0]))
    return slab


@given(_slabs())
def test_slab_runs_match_the_per_stock_day_reference(slab):
    got = run_lengths(slab)
    assert got.dtype == np.int64 and got.shape == (len(got), 3)
    want = [
        (r, sign, length)
        for r, row in enumerate(slab)
        for sign, length in reference_run_lengths(series(row))
    ]
    assert [tuple(x) for x in got.tolist()] == want
    for r, row in enumerate(slab):
        assert runs(row) == reference_run_lengths(series(row))
