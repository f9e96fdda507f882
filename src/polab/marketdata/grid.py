"""The 237-minute trading grid of the Shenzhen continuous sessions.

Bars are half-open one-minute intervals [t, t+60s). The morning session
09:30:00-11:30:00 holds bars 1-120, the afternoon session 13:00:00-14:57:00
holds bars 121-237. A timestamp exactly at a session close (11:30:00.000,
14:57:00.000) belongs to no bar. Opening auction, lunch break and the
closing call 14:57-15:00 are off-grid: records there are kept but never
aggregated into bars.

Times are handled as integer milliseconds since midnight throughout.
"""

from __future__ import annotations

import numpy as np

MS_PER_MINUTE = 60_000

MORNING_OPEN_MS = (9 * 3600 + 30 * 60) * 1000  # 09:30:00.000
MORNING_CLOSE_MS = (11 * 3600 + 30 * 60) * 1000  # 11:30:00.000
AFTERNOON_OPEN_MS = 13 * 3600 * 1000  # 13:00:00.000
AFTERNOON_CLOSE_MS = (14 * 3600 + 57 * 60) * 1000  # 14:57:00.000

MORNING_BARS = 120
AFTERNOON_BARS = 117
BARS_PER_DAY = MORNING_BARS + AFTERNOON_BARS  # 237

#: Bar value used for records outside the continuous sessions.
OFF_GRID = 0


def assign_bar(time_ms: int) -> int:
    """Map a time of day (ms since midnight) to its bar index 1..237.

    Returns OFF_GRID (0) outside the two continuous sessions. Membership is
    half-open, so 11:30:00.000 is off-grid while 13:00:00.000 opens bar 121.
    """
    if MORNING_OPEN_MS <= time_ms < MORNING_CLOSE_MS:
        return (time_ms - MORNING_OPEN_MS) // MS_PER_MINUTE + 1
    if AFTERNOON_OPEN_MS <= time_ms < AFTERNOON_CLOSE_MS:
        return (time_ms - AFTERNOON_OPEN_MS) // MS_PER_MINUTE + MORNING_BARS + 1
    return OFF_GRID


def assign_bars(time_ms: np.ndarray) -> np.ndarray:
    """Vectorized assign_bar. Returns an int16 array, OFF_GRID where off-grid."""
    t = np.asarray(time_ms, dtype=np.int64)
    bars = np.zeros(t.shape, dtype=np.int16)
    morning = (t >= MORNING_OPEN_MS) & (t < MORNING_CLOSE_MS)
    afternoon = (t >= AFTERNOON_OPEN_MS) & (t < AFTERNOON_CLOSE_MS)
    bars[morning] = (t[morning] - MORNING_OPEN_MS) // MS_PER_MINUTE + 1
    bars[afternoon] = (t[afternoon] - AFTERNOON_OPEN_MS) // MS_PER_MINUTE + MORNING_BARS + 1
    return bars


def bar_start_ms(bar: int) -> int:
    """Start of a bar's interval in ms since midnight. Inverse of assign_bar."""
    if not 1 <= bar <= BARS_PER_DAY:
        raise ValueError(f"bar index out of range: {bar}")
    if bar <= MORNING_BARS:
        return MORNING_OPEN_MS + (bar - 1) * MS_PER_MINUTE
    return AFTERNOON_OPEN_MS + (bar - MORNING_BARS - 1) * MS_PER_MINUTE
