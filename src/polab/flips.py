"""Sign-flip statistics of daily polarity sequences.

A flip is a sign change between consecutive nonzero polarity values. Zero
and missing minutes are removed first (order preserved), so flip counting,
depth and run lengths all share one index set. Flip counts are standardized
by the day's count of non-missing values before zero removal, which keeps
stocks of different liquidity comparable.

A polarity row is one stock-day; a slab stacks one stock's rows, one per
date. Every statistic here lives inside one row: days never leak into each
other, even where adjacent rows' edge runs share a sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlipSeries:
    """One stock-day of nonzero polarity values, in minute order.

    ``effective_length`` counts the day's non-missing values before zero
    removal; it is the flip-count denominator.
    """

    values: np.ndarray
    effective_length: int


@dataclass(frozen=True)
class DailyFlipSummary:
    flip_count: int
    standardized_flips: float
    depth: float
    averaged_depth: float | None


def build_flip_series(polarity_row) -> FlipSeries:
    """Drop missing and zero minutes from one stock-day, keeping order."""
    row = np.asarray(polarity_row, dtype=np.float64)
    finite = row[np.isfinite(row)]
    values = finite[finite != 0.0]
    return FlipSeries(values, int(len(finite)))


def flip_stats(fs: FlipSeries) -> DailyFlipSummary:
    """Flip count, standardized flips, depth and averaged depth for one day.

    Depth sums |polarity_t - polarity_{t-1}| over exactly the flip
    positions of the zero-removed sequence; averaged depth is missing on
    days without flips.
    """
    v = fs.values
    if len(v) < 2:
        flips = 0
        depth = 0.0
    else:
        signs = np.sign(v)
        flip_mask = signs[1:] != signs[:-1]
        flips = int(flip_mask.sum())
        depth = float(np.abs(np.diff(v))[flip_mask].sum())
    standardized = flips / fs.effective_length if fs.effective_length else 0.0
    averaged = depth / flips if flips else None
    return DailyFlipSummary(flips, standardized, depth, averaged)


def run_lengths(pol) -> np.ndarray:
    """Completed same-sign runs of polarity rows, as (row, sign, length).

    ``pol`` is one row or a slab of rows. The result is an (n_runs, 3)
    int64 array in row, then minute order; sign is +1 or -1. A run starts
    wherever the row or the sign of the zero-removed sequence changes.
    Runs touching the start or end of their row are censored (their true
    length is unknown) and emit nothing. Lengths count sequence positions
    of the zero-removed series.
    """
    pol = np.atleast_2d(np.asarray(pol, dtype=np.float64))
    row, minute = np.nonzero(np.isfinite(pol) & (pol != 0.0))
    sign = np.sign(pol[row, minute]).astype(np.int64)
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (sign[1:] != sign[:-1])
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=len(row))
    run_row = row[starts]
    first = np.ones(len(starts), dtype=bool)
    first[1:] = run_row[1:] != run_row[:-1]
    interior = ~(first | np.append(first[1:], True))
    return np.column_stack((run_row, sign[starts], lengths))[interior].astype(np.int64)
