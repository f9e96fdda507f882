"""Command-line entry point: ingest -> compute -> fit -> report.

Every subcommand reads one JSON config (``--config``), optionally patched
with ``--set key=value`` overrides, and writes delimited plot-ready tables
into the output directory. Artifacts carry the config hash and the method
decisions that produced them; re-running with unchanged inputs reproduces
them byte for byte.

Every subcommand runs through ``_run``. Inputs: ``_COMMANDS`` names a
command's inputs, ``_INPUTS`` each input's loader and the config keys it
requires or reads when set. The keys are checked before any file is read
(a required key not set is a config error, a set file that does not exist
an io error), then the inputs load. Every analysis reads its panel from one
cache, at ``cache`` or else ``<out_dir>/cache.plab``, where ``ingest``
writes it; an analysis whose cache is missing first runs that ingest.
Handler: the output directory is made, and the ``_cmd_*`` handler gets the
config, that directory and its inputs. Tables: the handler yields (file,
table name, columns, rows, meta) for each table it writes, in order, and
``_run`` writes it with the config hash.

Exit codes: 0 ok, 2 config, 3 io, 4 data, 5 numeric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Numpy loads an OpenBLAS that starts a pool of worker threads at import,
# about 70 ms of every polab process on 2 cores (scipy bundles another, but
# no polab module imports scipy). polab's only BLAS calls are tiny
# (coupling's lstsq on at most about 232 x 11, a 2 x 2 det, cov and
# corrcoef on 237 points), so processes started through this module
# run OpenBLAS on one thread unless the caller chose otherwise. OpenBLAS reads
# the variable when it loads, so this must precede the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import RunConfig, check_type, read_config
from .errors import ConfigError, DataError, FitRefusedError, PolabError
from .marketdata import cache as cache_mod
from .marketdata.grid import BARS_PER_DAY
from .marketdata.parse import iter_transactions
from .marketdata.prices import (
    fill_day, load_capitalization, load_emotion, load_eod_prices, load_intraday_prices,
    load_intraday_rows,
)
from .marketdata.schema import ColumnSchema, ParseReport
from .panel import (
    PolarityPanel,
    daily_polarity_at_index_min,
    direction_ratios,
    market_polarity_series,
)
from .returns import build_return_series, log_returns_in_place
from .tables import write_table

# coupling, flips, tailfit, synth and verify are imported by the commands
# that use them: a process loads only what its subcommand needs. The names
# above stay module attributes, and commands call through them, so they can
# be wrapped from outside (the benchmark's traced mode does).


def _cache_path(cfg: RunConfig) -> Path:
    return Path(cfg.cache) if cfg.cache else Path(cfg.out_dir) / "cache.plab"


def _load_panel(cfg: RunConfig) -> PolarityPanel:
    """The panel of the cache, which is first ingested if it is missing."""
    cache_path = _cache_path(cfg)
    if not cache_path.exists():
        if not cfg.transactions:
            raise ConfigError(f"no cache at {cache_path}, and no 'transactions' to ingest into it")
        _run(cfg, "ingest")
    elif cfg.transactions:
        cache_mod.check_feed(cache_path, cfg.transactions)
    return PolarityPanel.from_cache_memo(cache_path, serial_scope=cfg.serial_scope)


def _index_returns(cfg: RunConfig):
    """The index's ReturnSeries; both price files are validated in full."""
    eod = load_eod_prices(cfg.eod_prices, cfg.delimiter, cfg.has_header)
    intraday = load_intraday_prices(
        cfg.intraday_prices, cfg.delimiter, cfg.has_header, ids=(cfg.index_id,)
    )
    if cfg.index_id not in eod or cfg.index_id not in intraday:
        raise DataError(f"index id {cfg.index_id!r} absent from price files")
    return build_return_series(cfg.index_id, eod[cfg.index_id], intraday[cfg.index_id])


def _stock_day_returns(panel: PolarityPanel, intraday):
    """(stock, date, polarity row, log-returns or None) of each panel
    stock-day, in ``panel.iter_stock_days()`` order, from the rows
    ``load_intraday_rows`` returned; None where no minute of the day is
    priced. Each stock's log-returns are made in one (dates, 237) slab."""
    day_of = {day: k for k, day in enumerate(intraday[0])}
    n_dates = len(panel.dates)
    for n, (stock, date, row) in enumerate(panel.iter_stock_days()):
        j = n % n_dates
        if j == 0:  # the stock's first date
            found = [day_of.get((stock, d)) for d in panel.dates]
            logs = np.full((n_dates, BARS_PER_DAY), np.nan)
            for day, k in zip(logs, found):
                if k is not None:
                    fill_day(intraday, k, day)
            log_returns_in_place(logs)
        yield stock, date, row, None if found[j] is None else logs[j]


# -- subcommands ----------------------------------------------------------------


def _cmd_ingest(cfg: RunConfig, out: Path, feed: str):
    """Parse the feed into the cache and ingest_report.csv."""
    cache_path = _cache_path(cfg)
    report = ParseReport()
    n = cache_mod.write_cache(
        cache_path,
        iter_transactions(
            feed,
            ColumnSchema(columns=cfg.columns, delimiter=cfg.delimiter, has_header=cfg.has_header),
            report=report,
            malformed_threshold=cfg.malformed_threshold,
        ),
        feed=feed,
        report=report,
    )
    rows = [
        ("rows_total", report.total_rows),
        ("rows_parsed", report.parsed_rows),
        ("rows_malformed", report.malformed_rows),
        ("rows_off_grid", report.off_grid_rows),
        ("rows_cached", n),
    ]
    for reason, count in sorted(report.malformed_reasons.items()):
        rows.append((f"malformed_{reason}", count))
    yield (
        "ingest_report.csv", "ingest-report", ("metric", "value"), rows,
        {"cache": cache_path, "source": feed},
    )
    print(f"ingest: {n} rows cached to {cache_path} ({report.summary()})")


def _moments(values: np.ndarray):
    mean = float(values.mean())
    centered = values - mean
    m2 = float((centered**2).mean())
    m4 = float((centered**4).mean())
    std = float(np.sqrt(m2))
    kurt = m4 / (m2 * m2) - 3.0 if m2 > 0 else float("nan")
    return mean, std, kurt


def _scopes(cfg: RunConfig, panel: PolarityPanel) -> list:
    """("all", every date) and each period with its columns of the panel's dates."""
    periods = cfg.periods
    return [("all", slice(None))] + [
        (name, [j for j, d in enumerate(panel.dates) if periods.label(d) == name])
        for name in periods.names()
    ]


def _finite_polarity(panel: PolarityPanel, cols) -> np.ndarray:
    """The finite polarity values on the date columns ``cols``, in (stock,
    date, bar) order, derived a stock at a time."""
    pols = (panel.stock_polarity(i, cols) for i in range(len(panel.stocks) if cols else 0))
    return np.concatenate([p[np.isfinite(p)] for p in pols] + [np.empty(0)])


def _cmd_polarity(cfg: RunConfig, out: Path, panel: PolarityPanel):
    panel.write_text(out / "panel.csv")
    rows = []
    for name, cols in _scopes(cfg, panel):
        vals = _finite_polarity(panel, cols)
        if len(vals) == 0:
            rows.append((name, None, None, None, 0))
            continue
        mean, std, kurt = _moments(vals)
        rows.append((name, mean, std, kurt, len(vals)))
    yield (
        "polarity_moments.csv",
        "polarity-moments",
        ("period", "mean", "std", "kurtosis_excess", "n_minutes"),
        rows,
        {
            "units": "polarity in [-1,1], one value per stock-minute with activity",
            "kurtosis": "excess convention, normal = 0",
            "serial_scope": cfg.serial_scope,
        },
    )
    print(f"polarity: panel {len(panel.stocks)} stocks x {len(panel.dates)} dates -> {out}")


def _cmd_ratios(cfg: RunConfig, out: Path, panel: PolarityPanel, caps):
    scopes = _scopes(cfg, panel)
    rows = []
    for i, stock in enumerate(panel.stocks):
        pol = panel.stock_polarity(i)
        for name, cols in scopes:
            ratios = direction_ratios(stock, pol[cols], period=name)
            if ratios is None:
                continue
            row = [stock, name, ratios.pos_ratio, ratios.neg_ratio, ratios.zero_ratio, ratios.n]
            if caps is not None:
                row.append(caps.get(stock))
            rows.append(tuple(row))
    columns = ["stock_id", "period", "pos_ratio", "neg_ratio", "zero_ratio", "n_minutes"]
    if caps is not None:
        columns.append("capitalization")
    yield (
        "direction_ratios.csv", "direction-ratios", columns, rows,
        {"ratios": "shares over non-missing minutes; pos+neg+zero = 1"},
    )
    print(f"ratios: {len(rows)} rows -> {out / 'direction_ratios.csv'}")


def _cmd_flips(cfg: RunConfig, out: Path, panel: PolarityPanel, eod: dict):
    from . import coupling, flips

    periods = cfg.periods
    daily_returns = {}
    at_limit = {}
    for stock in panel.stocks:
        if stock in eod:
            rs = build_return_series(stock, eod[stock])
            daily_returns[stock] = rs.daily_pct
            at_limit[stock] = rs.at_limit

    day_rows = []
    by_date: dict = {}
    for stock, date, row in panel.iter_stock_days():
        fs = flips.build_flip_series(row)
        if fs.effective_length == 0:
            continue
        stats = flips.flip_stats(fs)
        ret = daily_returns.get(stock, {}).get(date)
        day_rows.append(
            (
                stock,
                date,
                periods.label(date),
                stats.flip_count,
                stats.standardized_flips,
                stats.depth,
                stats.averaged_depth,
                ret,
                date in at_limit.get(stock, ()),
            )
        )
        if stats.averaged_depth is not None:
            by_date.setdefault(date, []).append(stats.averaged_depth)
    yield (
        "flip_daily.csv",
        "flip-daily",
        (
            "stock_id", "date", "period", "flip_count", "standardized_flips",
            "depth", "averaged_depth", "daily_return", "at_limit",
        ),
        day_rows,
        {
            "preprocessing": "zeros and missing minutes removed before flip detection",
            "standardized_flips": "flip count / non-missing minutes of the day",
        },
    )

    summary_rows = []
    for date in sorted(by_date):
        s = coupling.five_number_summary(by_date[date])
        summary_rows.append(
            (date, s.q1, s.median, s.q3, s.lower_fence, s.upper_fence, s.n, s.n_outliers)
        )
    yield (
        "flip_depth_summary.csv",
        "flip-depth-summary",
        ("date", "q1", "median", "q3", "lower_fence", "upper_fence", "n", "n_outliers"),
        summary_rows,
        {"statistic": "averaged flipping depth per stock, summarized across stocks per day"},
    )
    print(f"flips: {len(day_rows)} stock-days -> {out}")


#: run signs as tables name them; -1 sorts before +1 as "negative" before
#: "positive" does
_SIGN_NAMES = {1: "positive", -1: "negative"}


def _cmd_runlengths(cfg: RunConfig, out: Path, panel: PolarityPanel):
    from . import flips

    rows = []
    for i, stock in enumerate(panel.stocks):
        for j, sign, length in flips.run_lengths(panel.stock_polarity(i)).tolist():
            rows.append((stock, panel.dates[j], _SIGN_NAMES[sign], length))
    yield (
        "run_lengths.csv",
        "run-lengths",
        ("stock_id", "date", "sign", "length"),
        rows,
        {
            "length": "positions of the zero-removed minute sequence, interior runs only",
            "boundary_runs": "censored at day edges, excluded",
        },
    )
    print(f"runlengths: {len(rows)} samples -> {out / 'run_lengths.csv'}")


def _cmd_fit(cfg: RunConfig, out: Path, panel: PolarityPanel):
    from . import flips, tailfit

    samples: dict = {}
    for i in range(len(panel.stocks)):
        for j, sign, length in flips.run_lengths(panel.stock_polarity(i)).tolist():
            samples.setdefault((j, sign), []).append(length)
    rows = []
    for (j, sign), lengths in sorted(samples.items()):
        date, sign = panel.dates[j], _SIGN_NAMES[sign]
        fit_fields = [None] * 5
        reason = None
        tail_lengths = lengths
        try:
            fit = tailfit.fit_power_law(lengths, min_samples=cfg.min_fit_samples)
            fit_fields = [fit.alpha, fit.stderr_alpha, fit.xmin, fit.ks_distance, fit.n_tail]
            if cfg.tail_only_burstiness:
                tail_lengths = [v for v in lengths if v >= fit.xmin]
        except FitRefusedError as exc:
            reason = str(exc)
        b = tailfit.burstiness(tail_lengths)
        rows.append(
            (date, sign, *fit_fields, len(lengths), b.b, b.mean_tau, b.std_tau, reason)
        )
    yield (
        "tail_fits.csv",
        "tail-fits",
        (
            "date", "sign", "alpha", "stderr_alpha", "xmin", "ks_distance",
            "n_tail", "n_total", "burstiness", "mean_tau", "std_tau", "refusal",
        ),
        rows,
        {
            "fit": "discrete maximum likelihood, cutoff by KS scan",
            "burstiness": "tail-only" if cfg.tail_only_burstiness else "raw empirical lengths",
        },
    )
    print(f"fit: {len(rows)} (date, sign) groups -> {out / 'tail_fits.csv'}")


def _cmd_market(cfg: RunConfig, out: Path, panel: PolarityPanel, index):
    from . import coupling

    mp = market_polarity_series(panel)
    pct = np.full(mp.shape, np.nan)
    for j, date in enumerate(panel.dates):
        day = index.intraday_pct_vs_prev_close.get(date)
        if day is not None:
            pct[j] = day
    rows = [(panel.dates[j], k + 1, mp[j, k], pct[j, k]) for j, k in np.ndindex(mp.shape)]
    yield (
        "market_minutes.csv",
        "market-minutes",
        ("date", "bar", "market_polarity", "index_pct_vs_prev_close"),
        rows,
        {"market_polarity": "mean polarity over stocks active in the minute"},
    )

    r = coupling.market_correlation(mp, pct)
    n_pairs = int(np.sum(np.isfinite(mp) & np.isfinite(pct)))
    yield (
        "market_summary.csv",
        "market-summary",
        ("statistic", "value"),
        [("pearson_r", r), ("n_minutes", n_pairs)],
        {"pairing": "minute-matched market polarity vs index change on prior close"},
    )

    yield (
        "daily_polarity_at_index_min.csv",
        "daily-polarity-at-index-min",
        ("date", "bar", "market_polarity"),
        daily_polarity_at_index_min(mp, panel.dates, index),
        {"bar": "minute of the day's lowest index change vs prior close, earliest on ties"},
    )
    print(f"market: r={r:.4f} over {n_pairs} minutes -> {out}")


def _cmd_kl(cfg: RunConfig, out: Path, panel: PolarityPanel, intraday):
    from . import coupling

    # stock by stock, so each date's coefficients come in stock order
    coeffs = {date: [] for date in panel.dates}
    for stock, date, row, logs in _stock_day_returns(panel, intraday):
        if logs is None:
            continue
        r = coupling.stock_day_correlation(row, logs, min_bars=cfg.min_corr_bars)
        if r is not None:
            coeffs[date].append(r)
    dists = [
        coupling.build_corr_dist(date, c, bins=cfg.bins, pseudo_count=cfg.pseudo_count)
        for date, c in coeffs.items()
    ]

    hist_rows = []
    for dist in dists:
        for b in range(len(dist.histogram)):
            hist_rows.append(
                (dist.trade_date, dist.bin_edges[b], dist.bin_edges[b + 1], dist.histogram[b])
            )
    yield (
        "corr_hists.csv",
        "correlation-histograms",
        ("date", "bin_lo", "bin_hi", "probability"),
        hist_rows,
        {
            "bins": f"{cfg.bins} equal-width bins on [-1,1]",
            "smoothing": f"additive pseudo-count {cfg.pseudo_count} per bin",
        },
    )

    kl_rows = []
    for prev, cur in zip(dists, dists[1:]):
        kl_rows.append(
            (cur.trade_date, coupling.kl_divergence(cur, prev), cur.n_stocks, prev.n_stocks)
        )
    yield (
        "corr_kl.csv",
        "correlation-divergence",
        ("date", "kl_vs_prev_day", "n_stocks", "n_stocks_prev"),
        kl_rows,
        {
            "divergence": "KL(today || previous trading day), natural log",
            "coefficients": f"stock-day Pearson r over >= {cfg.min_corr_bars} aligned minutes",
        },
    )
    print(f"kl: {len(kl_rows)} day pairs -> {out / 'corr_kl.csv'}")


def _granger_days(cfg: RunConfig, panel: PolarityPanel, index_series) -> dict:
    mp = market_polarity_series(panel)
    days = {}
    for j, date in enumerate(panel.dates):
        if cfg.return_mode == "vs-prev-close":
            ret = index_series.intraday_pct_vs_prev_close.get(date)
        else:
            ret = index_series.intraday_log.get(date)
        if ret is None:
            continue
        days[date] = (mp[j], ret)
    return days


def _cmd_granger(cfg: RunConfig, out: Path, panel: PolarityPanel, index):
    from . import coupling

    days = _granger_days(cfg, panel, index)
    summary = coupling.granger_pass_rates(
        days, max_lag=cfg.max_lag, min_minutes=cfg.min_granger_minutes
    )
    yield (
        "granger_days.csv",
        "granger-days",
        ("date", "direction", "lag", "f_stat", "p_value", "reject_at_5pct"),
        [
            (r.trade_date, r.direction, r.lag, r.f_stat, r.p_value, r.reject_at_5pct)
            for r in summary.results
        ],
        {
            "return_mode": cfg.return_mode,
            "lag_selection": f"BIC over 1..{cfg.max_lag}, per day",
        },
    )
    yield (
        "granger_summary.csv",
        "granger-summary",
        ("direction", "pass_rate", "n_tested", "n_skipped"),
        [
            (d, summary.pass_rate[d], summary.n_tested, len(summary.skipped))
            for d in coupling.DIRECTIONS
        ],
        {"pass": "F-test rejection at 5%"},
    )
    yield "granger_skipped.csv", "granger-skipped", ("date", "reason"), summary.skipped, None
    rates = {d: round(summary.pass_rate[d], 4) for d in coupling.DIRECTIONS}
    print(f"granger: {rates} over {summary.n_tested} days -> {out}")


def _cmd_impact(cfg: RunConfig, out: Path, panel: PolarityPanel, intraday):
    from . import coupling

    periods = cfg.periods
    scopes = ("all",) + periods.names()
    label = {date: scopes.index(periods.label(date)) for date in panel.dates}
    # each kept pair once, in stock, date and minute order, tagged with its
    # period. A pair needs a priced minute, so there are at most as many as
    # price rows; pairs fill the arrays from the front, so pages past the last
    # pair are never touched
    size = len(intraday[2])
    pol, ret, tag = np.empty(size), np.empty(size), np.empty(size, dtype=np.uint8)
    n = 0
    for stock, date, row, logs in _stock_day_returns(panel, intraday):
        if logs is None:
            continue
        keep = np.isfinite(row) & np.isfinite(logs)
        end = n + int(np.count_nonzero(keep))
        pol[n:end], ret[n:end], tag[n:end] = row[keep], logs[keep], label[date]
        n = end
    pol, ret, tag = pol[:n], ret[:n], tag[:n]
    del intraday  # before the scopes copy their pairs

    rows = []
    for k, scope in enumerate(scopes):
        mine = slice(None) if k == 0 else tag == k
        ps, rs = pol[mine], ret[mine]
        if len(ps) == 0:
            continue
        groups = coupling.price_impact_groups(ps, rs)
        # the next scope's copies are made after this one's are given back
        del ps, rs
        for group in coupling.GROUPS:
            s = groups[group]
            if s is None:
                rows.append((scope, group, None, None, None, None, None, 0, 0))
            else:
                rows.append(
                    (
                        scope, group, s.q1, s.median, s.q3,
                        s.lower_fence, s.upper_fence, s.n, s.n_outliers,
                    )
                )
    yield (
        "price_impact.csv",
        "price-impact",
        (
            "period", "sign_group", "q1", "median", "q3",
            "lower_fence", "upper_fence", "n", "n_outliers",
        ),
        rows,
        {
            "pairing": "minute polarity vs same-minute log-return, missing minutes excluded",
            "whiskers": "quartile fences at 1.5*IQR; outliers counted, not dropped",
        },
    )
    print(f"impact: {len(rows)} rows -> {out / 'price_impact.csv'}")


def _cmd_emotion(cfg: RunConfig, out: Path, panel: PolarityPanel, index, emotion: dict):
    from . import coupling

    mp = market_polarity_series(panel)
    days = daily_polarity_at_index_min(mp, panel.dates, index)
    corr = coupling.emotion_correlation({d: v for d, _, v in days}, emotion, cfg.periods)
    rows = [(name, *corr[name]) for name in ("overall",) + cfg.periods.names()]
    yield (
        "emotion_correlation.csv", "emotion-correlation", ("period", "pearson_r", "n_days"), rows,
        {"daily_polarity": "market polarity at the index-minimum minute"},
    )
    print(f"emotion: {rows} -> {out / 'emotion_correlation.csv'}")


#: the keys of the ``synth`` config and their JSON types
_SYNTH_KEYS = {
    "n_stocks": int, "n_days": int, "start_date": str, "regimes": list, "index_id": str,
    "start_price": float, "index_start": float, "return_scale": float, "n_offgrid_rows": int,
}


def _regime(raw):
    """One ``synth`` regime; its lists become tuples and its dates dates."""
    from .marketdata.dates import parse_date
    from .synth import RegimeSpec

    check_type("a synth regime", raw, dict)
    r = dict(raw)
    try:
        for key in ("bars", "dates", "polarity_pattern", "fixed_counts"):
            check_type(f"regime {key}", r.get(key), list, nullable=True)
            if r.get(key) is not None:
                r[key] = tuple(r[key])
        if r.get("dates") is not None:
            r["dates"] = tuple(parse_date(d) for d in r["dates"])
        return RegimeSpec(**r)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad regime spec {raw}: {exc}") from exc


def _scenario(cfg: RunConfig):
    """The ``synth`` spec as (regimes, n_stocks, dates, the other keys) for
    ``synth.generate``; a bad spec is a ConfigError."""
    from .marketdata.dates import parse_date
    from .synth import weekdays

    spec = cfg.synth
    if not spec:
        raise ConfigError("config key 'synth' must describe the scenario to generate")
    unknown = set(spec) - set(_SYNTH_KEYS)
    if unknown:
        raise ConfigError(f"unknown synth keys: {sorted(unknown)}")
    if "regimes" not in spec:
        raise ConfigError("synth config is missing 'regimes'")
    for key, value in spec.items():
        check_type(f"synth {key}", value, _SYNTH_KEYS[key])
    try:
        start = parse_date(spec.get("start_date", "2015-05-04"))
    except ValueError as exc:
        raise ConfigError(f"synth start_date must be a YYYY-MM-DD date: {exc}") from exc
    regimes = [_regime(r) for r in spec["regimes"]]
    extra = {
        k: v for k, v in spec.items() if k not in ("n_stocks", "n_days", "start_date", "regimes")
    }
    return regimes, spec.get("n_stocks", 10), weekdays(start, spec.get("n_days", 2)), extra


def _cmd_synth(cfg: RunConfig, out: Path, scenario):
    from .synth import generate

    regimes, n_stocks, dates, extra = scenario
    files, truth = generate(regimes, n_stocks, dates, cfg.seed, out, **extra)
    truth.panel().write_text(out / "truth_panel.csv")
    yield (
        "truth_index_min.csv", "truth-index-min", ("date", "bar"),
        sorted(truth.index_min_bar.items()), None,
    )
    print(
        f"synth: {files.transactions} ({n_stocks} stocks x {len(dates)} dates, "
        f"seed {cfg.seed}) -> {out}"
    )


def _cmd_verify(cfg: RunConfig, out: Path, scenarios: int):
    from .verify import run_oracle_suite

    report = run_oracle_suite(n_scenarios=scenarios, seed=cfg.seed)
    yield (
        "verify_report.csv",
        "verify-report",
        ("metric", "value"),
        [
            ("scenarios", report.n_scenarios),
            ("rows", report.n_rows),
            ("failures", len(report.failures)),
            ("seconds", round(report.seconds, 3)),
        ],
        None,
    )
    for failure in report.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    status = "ok" if report.ok else f"{len(report.failures)} failures"
    print(
        f"verify: {report.n_scenarios} scenarios, {report.n_rows} rows, "
        f"{report.seconds:.1f}s: {status}"
    )
    if not report.ok:
        raise DataError("oracle suite failed; see verify_report.csv and stderr")


# -- inputs and the run ------------------------------------------------------------

#: input -> (loader, config keys it requires, config keys it reads when set).
#: A loader calls the readers through this module's attributes when it runs,
#: so a wrapper put in their place (the benchmark's traced mode) sees each
#: call. ``scenarios``, the oracle suite's size, comes from ``--scenarios``.
_INPUTS = {
    "feed": (lambda cfg: cfg.transactions, ("transactions",), ()),
    "panel": (_load_panel, (), ()),
    "index": (_index_returns, ("eod_prices", "intraday_prices"), ()),
    "intraday": (
        lambda cfg: load_intraday_rows(cfg.intraday_prices, cfg.delimiter, cfg.has_header),
        ("intraday_prices",), (),
    ),
    "eod": (
        lambda cfg: (
            load_eod_prices(cfg.eod_prices, cfg.delimiter, cfg.has_header) if cfg.eod_prices else {}
        ),
        (), ("eod_prices",),
    ),
    "caps": (
        lambda cfg: load_capitalization(cfg.capitalization) if cfg.capitalization else None,
        (), ("capitalization",),
    ),
    "emotion": (lambda cfg: load_emotion(cfg.emotion), ("emotion",), ()),
    "scenario": (_scenario, (), ()),
}

#: subcommand -> (handler, the inputs it takes, in the order they load)
_COMMANDS = {
    "ingest": (_cmd_ingest, ("feed",)),
    "polarity": (_cmd_polarity, ("panel",)),
    "ratios": (_cmd_ratios, ("panel", "caps")),
    "flips": (_cmd_flips, ("panel", "eod")),
    "runlengths": (_cmd_runlengths, ("panel",)),
    "fit": (_cmd_fit, ("panel",)),
    "market": (_cmd_market, ("panel", "index")),
    "kl": (_cmd_kl, ("panel", "intraday")),
    "granger": (_cmd_granger, ("panel", "index")),
    "impact": (_cmd_impact, ("panel", "intraday")),
    "emotion": (_cmd_emotion, ("panel", "index", "emotion")),
    "synth": (_cmd_synth, ("scenario",)),
    "verify": (_cmd_verify, ("scenarios",)),
}


def _run(cfg: RunConfig, command: str, **given) -> int:
    """Run ``command`` on the inputs in ``given`` and the others it names,
    loaded here; only the handler holds them, so it can free one early."""
    handler, names = _COMMANDS[command]
    loaded = [name for name in names if name not in given]
    required = [key for name in loaded for key in _INPUTS[name][1]]
    for key in required:
        if not getattr(cfg, key):
            raise ConfigError(f"'{key}' is required for {command}")
    cfg.validate_paths(required + [key for name in loaded for key in _INPUTS[name][2]])
    inputs = {name: given[name] if name in given else _INPUTS[name][0](cfg) for name in names}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = handler(cfg, out, **inputs)
    del inputs, given
    config_hash = cfg.config_hash()
    for file, name, columns, rows, meta in tables:
        write_table(out / file, name, columns, rows, config_hash=config_hash, meta=meta)
    return 0


# -- argument plumbing ------------------------------------------------------------


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polab",
        description="Trading polarity analytics over tick-level transaction data.",
    )
    parser.add_argument("--version", action="version", version=f"polab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (JSON literals accepted)",
        )
        if name == "granger":
            p.add_argument("--return-mode", choices=("vs-prev-close", "vs-prev-minute"))
        if name == "verify":
            p.add_argument("--scenarios", type=int, default=100)
    return parser


def _resolve_config(args) -> RunConfig:
    raw = read_config(args.config) if args.config else {}
    for item in args.set:
        key, value = _parse_override(item)
        raw[key] = value
    if args.out is not None:
        raw["out_dir"] = args.out
    if getattr(args, "return_mode", None):
        raw["return_mode"] = args.return_mode
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command != "verify":
            return _run(cfg, args.command)
        if args.scenarios < 1:
            raise ConfigError(f"--scenarios must be >= 1, got {args.scenarios}")
        return _run(cfg, "verify", scenarios=args.scenarios)
    except PolabError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
