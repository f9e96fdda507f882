"""Tick-level trading polarity analytics.

Builds per-stock, per-minute buy/sell man-times polarity from raw
exchange transaction records and derives its behavioral statistics:
direction ratios, sign-flip counts and depth, run-length tail fits,
burstiness, market-level aggregates, and polarity-return coupling.
"""

__version__ = "0.1.0"
