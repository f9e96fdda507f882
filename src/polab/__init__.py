"""Tick-level trading polarity analytics.

Builds per-stock, per-minute buy/sell man-times polarity from raw
exchange transaction records and derives its behavioral statistics:
direction ratios, sign-flip counts and depth, run-length tail fits,
burstiness, market-level aggregates, and polarity-return coupling.
"""

__version__ = "0.1.0"

import importlib

# Each public name is imported from its module on first access (PEP 562), so
# a process pays only for the modules it uses: importing polab.cli must not
# load the synthetic generator, the oracle suite or the statistics modules.
_EXPORTS = {
    "Periods": "config",
    "RunConfig": "config",
    "ConfigError": "errors",
    "DataError": "errors",
    "FitRefusedError": "errors",
    "InputError": "errors",
    "NumericError": "errors",
    "PolabError": "errors",
    "DailyFlipSummary": "flips",
    "FlipSeries": "flips",
    "RunLengthSample": "flips",
    "build_flip_series": "flips",
    "flip_stats": "flips",
    "run_lengths": "flips",
    "DirectionRatios": "panel",
    "PolarityPanel": "panel",
    "daily_polarity_at_index_min": "panel",
    "direction_ratios": "panel",
    "market_polarity": "panel",
    "market_polarity_series": "panel",
    "polarity": "panel",
    "ReturnSeries": "returns",
    "build_return_series": "returns",
    "BurstinessResult": "tailfit",
    "PowerLawFit": "tailfit",
    "burstiness": "tailfit",
    "fit_power_law": "tailfit",
    "CorrDist": "coupling",
    "FiveNumberSummary": "coupling",
    "GrangerDayResult": "coupling",
    "GrangerSummary": "coupling",
    "build_corr_dist": "coupling",
    "emotion_correlation": "coupling",
    "granger_day": "coupling",
    "granger_pass_rates": "coupling",
    "kl_divergence": "coupling",
    "market_correlation": "coupling",
    "pearson": "coupling",
    "price_impact_groups": "coupling",
    "stock_day_correlation": "coupling",
    "GroundTruth": "synth",
    "RegimeSpec": "synth",
    "ScenarioFiles": "synth",
    "brute_force_recount": "synth",
    "generate": "synth",
    "generate_causal_days": "synth",
    "sample_discrete_power_law": "synth",
    "OracleReport": "verify",
    "run_oracle_suite": "verify",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
