"""Output checks for every table a paper run writes.

Nothing here copies polab's current output. Counts and statistics are
recomputed with numpy from the generator's ``GroundTruth`` and from the
price files the generator wrote; where no truth exists, the method's own
properties are checked (ratios sum to 1, KL >= 0, histograms sum to 1,
p-values in [0, 1], |r| <= 1, tested + skipped days = all days).

``CHECKS`` maps each benchmark step to the checks of the tables it writes;
a check raises ``CheckError`` naming the first discrepancy.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BARS = 237
PRE_CRASH_END = dt.date(2015, 6, 12)
CRASH_END = dt.date(2015, 7, 7)
PERIODS = ("pre-crash", "crash", "post-crash")
BINS, PSEUDO_COUNT, MIN_CORR_BARS, MAX_LAG = 40, 0.5, 30, 5
TOL = 1e-9


class CheckError(AssertionError):
    pass


def period_of(d: dt.date) -> str:
    if d <= PRE_CRASH_END:
        return "pre-crash"
    return "crash" if d <= CRASH_END else "post-crash"


def read_rows(path: Path) -> list[dict]:
    """Rows of a polab table as dicts of strings, '#' header lines skipped."""
    try:
        with open(path, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
    except OSError as exc:
        raise CheckError(f"{path.name}: cannot read ({exc})") from exc
    return list(csv.DictReader(lines))


def num(text: str) -> float:
    return math.nan if text == "NA" else float(text)


def close(a: float, b: float, tol: float = TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Expected:
    """Truth-derived arrays shared by all checks of one run."""

    stocks: list
    dates: list
    buy: np.ndarray
    sell: np.ndarray
    pol: np.ndarray  # (S, D, 237), NaN where the minute has no activity
    market: np.ndarray  # (D, 237) equal-weighted mean over active stocks
    index_pct: np.ndarray  # (D, 237) index change vs the prior close
    stock_log: np.ndarray  # (S, D, 237) one-minute log-returns, NaN where undefined
    index_min_bar: dict
    inputs: object


def _price_arrays(root: Path, stocks, dates, index_id):
    """Index change vs prior close and per-stock log-returns, from the price files."""
    sidx = {s: i for i, s in enumerate(stocks)}
    didx = {d.isoformat(): j for j, d in enumerate(dates)}
    last = np.full((len(stocks), len(dates), BARS), np.nan)
    index_last = np.full((len(dates), BARS), np.nan)
    with open(root / "intraday.csv") as fh:
        next(fh)
        for line in fh:
            d, ident, bar, price = line.rstrip("\n").split(",")
            if ident == index_id:
                index_last[didx[d], int(bar) - 1] = float(price)
            else:
                last[sidx[ident], didx[d], int(bar) - 1] = float(price)
    closes = {}
    with open(root / "eod.csv") as fh:
        next(fh)
        for line in fh:
            d, ident, close_ = line.rstrip("\n").split(",")
            if ident == index_id:
                closes[dt.date.fromisoformat(d)] = float(close_)
    prev_close = np.array([closes[max(c for c in closes if c < d)] for d in dates])
    index_pct = index_last / prev_close[:, None] - 1.0
    stock_log = np.full_like(last, np.nan)
    with np.errstate(invalid="ignore"):
        stock_log[..., 1:] = np.diff(np.log(last), axis=-1)
    return index_pct, stock_log


def expected_from(inputs) -> Expected:
    t = inputs.truth
    total = (t.buy + t.sell).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        pol = (t.buy - t.sell) / total
    pol[total == 0] = np.nan
    counts = np.isfinite(pol).sum(axis=0)
    market = np.where(counts > 0, np.nansum(pol, axis=0) / np.maximum(counts, 1), np.nan)
    index_pct, stock_log = _price_arrays(inputs.root, t.stocks, t.dates, inputs.index_id)
    return Expected(
        list(t.stocks), list(t.dates), t.buy, t.sell, pol, market,
        index_pct, stock_log, dict(t.index_min_bar), inputs,
    )


# -- ingest -------------------------------------------------------------------


def check_ingest_report(e: Expected, out: Path) -> None:
    stats = {r["metric"]: int(r["value"]) for r in read_rows(out / "ingest_report.csv")}
    inputs = e.inputs
    planted = sum(inputs.malformed.values())
    expect(stats.get("rows_total") == inputs.feed_rows,
           f"ingest: rows_total {stats.get('rows_total')} != feed rows {inputs.feed_rows}")
    expect(stats.get("rows_malformed") == planted,
           f"ingest: rows_malformed {stats.get('rows_malformed')} != planted {planted}")
    expect(stats.get("rows_off_grid") == inputs.offgrid_rows,
           f"ingest: rows_off_grid {stats.get('rows_off_grid')} != planted {inputs.offgrid_rows}")
    for reason, count in inputs.malformed.items():
        got = stats.get(f"malformed_{reason}", 0)
        expect(got == count, f"ingest: malformed_{reason} {got} != planted {count}")
    expect(stats.get("rows_cached") == inputs.feed_rows - planted,
           f"ingest: rows_cached {stats.get('rows_cached')} != {inputs.feed_rows - planted}")


# -- panel and moments --------------------------------------------------------


def _check_panel(e: Expected, path: Path) -> None:
    sidx = {s: i for i, s in enumerate(e.stocks)}
    didx = {d.isoformat(): j for j, d in enumerate(e.dates)}
    with open(path) as fh:
        header = next(fh).rstrip("\n")
        expect(header == "stock_id,date,bar,buy,sell,polarity", f"{path.name}: header {header!r}")
        rows = [line.rstrip("\n").split(",") for line in fh]
    try:
        i = np.array([sidx[r[0]] for r in rows], dtype=np.int64)
        j = np.array([didx[r[1]] for r in rows], dtype=np.int64)
    except KeyError as exc:
        raise CheckError(f"{path.name}: unknown stock or date {exc}") from None
    k = np.array([int(r[2]) for r in rows], dtype=np.int64) - 1
    buy = np.array([int(r[3]) for r in rows], dtype=np.int64)
    sell = np.array([int(r[4]) for r in rows], dtype=np.int64)
    pol = np.array([num(r[5]) for r in rows])
    expect(bool(((k >= 0) & (k < BARS)).all()), f"{path.name}: bar outside 1..237")
    active = int(((e.buy + e.sell) > 0).sum())
    flat = (i * len(e.dates) + j) * BARS + k
    expect(len(np.unique(flat)) == len(rows), f"{path.name}: repeated cells")
    expect(len(rows) == active, f"{path.name}: {len(rows)} cells, truth has {active} active")
    bad = np.nonzero((e.buy[i, j, k] != buy) | (e.sell[i, j, k] != sell))[0]
    expect(len(bad) == 0, f"{path.name}: counts differ from truth at line {bad[:1] + 2}")
    err = np.abs(pol - e.pol[i, j, k])
    expect(bool((err <= 1e-11).all()), f"{path.name}: polarity differs by up to {err.max():.3g}")


def check_panel(e: Expected, out: Path) -> None:
    _check_panel(e, out / "panel.csv")


def check_panel_day_scope(e: Expected, out: Path) -> None:
    # no synthetic serial trades in two minutes, so day scope equals bar scope
    _check_panel(e, out.parent / "out_day" / "panel.csv")


def check_panel_threads2(e: Expected, out: Path) -> None:
    _check_panel(e, out.parent / "out_threads2" / "panel.csv")


def check_polarity_moments(e: Expected, out: Path) -> None:
    rows = {r["period"]: r for r in read_rows(out / "polarity_moments.csv")}
    expect(set(rows) == {"all", *PERIODS}, f"polarity_moments: periods {sorted(rows)}")
    for name in ("all", *PERIODS):
        cols = [j for j, d in enumerate(e.dates) if name == "all" or period_of(d) == name]
        vals = e.pol[:, cols, :]
        vals = vals[np.isfinite(vals)]
        r = rows[name]
        expect(int(r["n_minutes"]) == len(vals), f"polarity_moments {name}: n_minutes")
        if len(vals) == 0:
            expect(r["mean"] == "NA", f"polarity_moments {name}: empty period has a mean")
            continue
        c = vals - vals.mean()
        m2, m4 = (c**2).mean(), (c**4).mean()
        want = (vals.mean(), math.sqrt(m2), m4 / m2**2 - 3.0)
        for col, w in zip(("mean", "std", "kurtosis_excess"), want):
            expect(close(num(r[col]), w), f"polarity_moments {name}: {col} {r[col]} != {w:.12g}")


# -- ratios -------------------------------------------------------------------


def check_ratios(e: Expected, out: Path) -> None:
    rows = read_rows(out / "direction_ratios.csv")
    want = {}
    for i, stock in enumerate(e.stocks):
        for name in ("all", *PERIODS):
            cols = [j for j, d in enumerate(e.dates) if name == "all" or period_of(d) == name]
            v = e.pol[i, cols].ravel()
            v = v[np.isfinite(v)]
            if len(v):
                n = len(v)
                want[(stock, name)] = ((v > 0).sum() / n, (v < 0).sum() / n, (v == 0).sum() / n, n)
    got = {(r["stock_id"], r["period"]): r for r in rows}
    expect(len(got) == len(rows), "direction_ratios: repeated (stock, period)")
    expect(set(got) == set(want), f"direction_ratios: {len(got)} rows, expected {len(want)}")
    caps = e.inputs.capitalization
    for key, r in got.items():
        p, n, z = num(r["pos_ratio"]), num(r["neg_ratio"]), num(r["zero_ratio"])
        expect(close(p + n + z, 1.0), f"direction_ratios {key}: ratios sum to {p + n + z}")
        wp, wn, wz, wc = want[key]
        expect(int(r["n_minutes"]) == wc, f"direction_ratios {key}: n_minutes")
        expect(close(p, wp) and close(n, wn) and close(z, wz), f"direction_ratios {key}: shares")
        expect(close(num(r["capitalization"]), caps[key[0]]), f"direction_ratios {key}: capitalization")


# -- flips, run lengths, tail fits --------------------------------------------


def _day_values(e: Expected):
    """(stock, date, nonzero values, non-missing count) for every stock-day."""
    for i, stock in enumerate(e.stocks):
        for j, date in enumerate(e.dates):
            row = e.pol[i, j]
            finite = row[np.isfinite(row)]
            yield stock, date, finite[finite != 0], len(finite)


def _interior_runs(values: np.ndarray) -> list:
    if len(values) == 0:
        return []
    sign = np.sign(values)
    cuts = np.concatenate(([0], np.nonzero(sign[1:] != sign[:-1])[0] + 1, [len(values)]))
    return [
        ("positive" if sign[a] > 0 else "negative", int(b - a))
        for a, b in zip(cuts[1:-2], cuts[2:-1])
    ]


def check_flips(e: Expected, out: Path) -> None:
    got = {(r["stock_id"], r["date"]): r for r in read_rows(out / "flip_daily.csv")}
    n_want = 0
    for stock, date, v, n_finite in _day_values(e):
        if n_finite == 0:
            continue
        n_want += 1
        r = got.get((stock, date.isoformat()))
        expect(r is not None, f"flip_daily: missing {stock} {date}")
        sign = np.sign(v)
        at_flip = sign[1:] != sign[:-1]
        flips = int(at_flip.sum())
        depth = float(np.abs(np.diff(v))[at_flip].sum())
        expect(int(r["flip_count"]) == flips, f"flip_daily {stock} {date}: flip_count")
        expect(close(num(r["standardized_flips"]), flips / n_finite),
               f"flip_daily {stock} {date}: standardized_flips")
        expect(close(num(r["depth"]), depth), f"flip_daily {stock} {date}: depth")
        expect(r["period"] == period_of(date), f"flip_daily {stock} {date}: period")
    expect(len(got) == n_want, f"flip_daily: {len(got)} rows, expected {n_want}")


def _run_samples(e: Expected) -> list:
    return [
        (stock, date.isoformat(), sign, length)
        for stock, date, v, _ in _day_values(e)
        for sign, length in _interior_runs(v)
    ]


def check_run_lengths(e: Expected, out: Path) -> None:
    rows = read_rows(out / "run_lengths.csv")
    got = sorted((r["stock_id"], r["date"], r["sign"], int(r["length"])) for r in rows)
    want = sorted(_run_samples(e))
    expect(len(got) == len(want), f"run_lengths: {len(got)} samples, expected {len(want)}")
    expect(got == want, "run_lengths: samples differ from the truth's interior runs")


def check_tail_fits(e: Expected, out: Path) -> None:
    groups: dict = {}
    for _, date, sign, length in _run_samples(e):
        groups.setdefault((date, sign), []).append(length)
    rows = read_rows(out / "tail_fits.csv")
    got = {(r["date"], r["sign"]): r for r in rows}
    expect(set(got) == set(groups), f"tail_fits: {len(got)} groups, expected {len(groups)}")
    for key, r in got.items():
        lengths = np.array(groups[key], dtype=np.float64)
        expect(int(r["n_total"]) == len(lengths), f"tail_fits {key}: n_total")
        expect(close(num(r["mean_tau"]), lengths.mean()), f"tail_fits {key}: mean_tau")
        b = num(r["burstiness"])
        expect(-1.0 <= b <= 1.0, f"tail_fits {key}: burstiness {b} outside [-1, 1]")
        if r["refusal"] == "NA":
            alpha, n_tail, xmin = num(r["alpha"]), int(r["n_tail"]), int(r["xmin"])
            expect(1.0 < alpha <= 25.0, f"tail_fits {key}: alpha {alpha}")
            expect(1 <= n_tail <= len(lengths), f"tail_fits {key}: n_tail {n_tail}")
            expect(n_tail == int((lengths >= xmin).sum()), f"tail_fits {key}: n_tail vs xmin")
            expect(0.0 <= num(r["ks_distance"]) <= 1.0, f"tail_fits {key}: ks_distance")
        else:
            expect(r["alpha"] == "NA", f"tail_fits {key}: refused fit has an alpha")


# -- market -------------------------------------------------------------------


def check_market_minutes(e: Expected, out: Path) -> None:
    rows = read_rows(out / "market_minutes.csv")
    expect(len(rows) == len(e.dates) * BARS, f"market_minutes: {len(rows)} rows")
    mp = np.array([num(r["market_polarity"]) for r in rows]).reshape(len(e.dates), BARS)
    ip = np.array([num(r["index_pct_vs_prev_close"]) for r in rows]).reshape(len(e.dates), BARS)
    expect(np.array_equal(np.isnan(mp), np.isnan(e.market)), "market_minutes: missing minutes")
    expect(bool(np.nanmax(np.abs(mp - e.market)) <= 1e-11), "market_minutes: market polarity")
    expect(bool(np.nanmax(np.abs(ip - e.index_pct)) <= 1e-11), "market_minutes: index change")


def check_index_min(e: Expected, out: Path) -> None:
    rows = read_rows(out / "daily_polarity_at_index_min.csv")
    expect(len(rows) == len(e.dates), f"daily_polarity_at_index_min: {len(rows)} rows")
    for j, (d, r) in enumerate(zip(e.dates, rows)):
        bar = e.index_min_bar[d]
        expect(r["date"] == d.isoformat() and int(r["bar"]) == bar,
               f"daily_polarity_at_index_min {r['date']}: bar {r['bar']} != planted {bar}")
        expect(close(num(r["market_polarity"]), e.market[j, bar - 1]),
               f"daily_polarity_at_index_min {d}: market polarity")


def _pearson(x, y) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def check_market_summary(e: Expected, out: Path) -> None:
    stats = {r["statistic"]: num(r["value"]) for r in read_rows(out / "market_summary.csv")}
    keep = np.isfinite(e.market) & np.isfinite(e.index_pct)
    r = stats.get("pearson_r", math.nan)
    expect(abs(r) <= 1.0, f"market_summary: |r| = {abs(r)} > 1")
    expect(stats.get("n_minutes") == keep.sum(), "market_summary: n_minutes")
    expect(close(r, _pearson(e.market[keep], e.index_pct[keep])), "market_summary: pearson_r")


# -- correlation histograms and KL ----------------------------------------------


def _stock_day_corrs(e: Expected) -> list:
    """Per date, the stock-day Pearson r kept under the 30-minute floor."""
    out = []
    for j in range(len(e.dates)):
        coeffs = []
        for i in range(len(e.stocks)):
            p, r = e.pol[i, j], e.stock_log[i, j]
            keep = np.isfinite(p) & np.isfinite(r)
            if keep.sum() < MIN_CORR_BARS:
                continue
            p, r = p[keep], r[keep]
            if np.all(p == p[0]) or np.all(r == r[0]):
                continue
            coeffs.append(_pearson(p, r))
        out.append(np.array(coeffs))
    return out


def check_corr_hists(e: Expected, out: Path) -> None:
    rows = read_rows(out / "corr_hists.csv")
    expect(len(rows) == len(e.dates) * BINS, f"corr_hists: {len(rows)} rows")
    edges = np.linspace(-1.0, 1.0, BINS + 1)
    for j, coeffs in enumerate(_stock_day_corrs(e)):
        day = rows[j * BINS : (j + 1) * BINS]
        expect(all(r["date"] == e.dates[j].isoformat() for r in day), "corr_hists: date order")
        probs = np.array([num(r["probability"]) for r in day])
        expect(bool((probs > 0).all()), f"corr_hists {e.dates[j]}: empty bin")
        expect(close(probs.sum(), 1.0), f"corr_hists {e.dates[j]}: sums to {probs.sum()}")
        lo = np.array([num(r["bin_lo"]) for r in day])
        expect(bool(np.allclose(lo, edges[:-1], atol=1e-12)), f"corr_hists {e.dates[j]}: bins")
        counts = np.histogram(coeffs, bins=edges)[0] + PSEUDO_COUNT
        want = counts / counts.sum()
        expect(bool(np.allclose(probs, want, rtol=1e-9, atol=1e-12)),
               f"corr_hists {e.dates[j]}: probabilities differ from the recount")


def check_kl(e: Expected, out: Path) -> None:
    hist: dict = {}
    for r in read_rows(out / "corr_hists.csv"):
        hist.setdefault(r["date"], []).append(num(r["probability"]))
    rows = read_rows(out / "corr_kl.csv")
    expect(len(rows) == len(e.dates) - 1, f"corr_kl: {len(rows)} day pairs")
    n_kept = [len(c) for c in _stock_day_corrs(e)]
    for j, r in enumerate(rows, start=1):
        kl = num(r["kl_vs_prev_day"])
        expect(kl >= 0.0, f"corr_kl {r['date']}: KL {kl} < 0")
        p = np.array(hist[e.dates[j].isoformat()])
        q = np.array(hist[e.dates[j - 1].isoformat()])
        expect(close(kl, float(np.sum(p * np.log(p / q)))), f"corr_kl {r['date']}: KL value")
        expect(int(r["n_stocks"]) == n_kept[j] and int(r["n_stocks_prev"]) == n_kept[j - 1],
               f"corr_kl {r['date']}: coefficient counts")


# -- Granger, impact, emotion -------------------------------------------------


def check_granger(e: Expected, out: Path) -> None:
    days = read_rows(out / "granger_days.csv")
    summary = {r["direction"]: r for r in read_rows(out / "granger_summary.csv")}
    skipped = read_rows(out / "granger_skipped.csv")
    by_date: dict = {}
    for r in days:
        p, f, lag = num(r["p_value"]), num(r["f_stat"]), int(r["lag"])
        expect(0.0 <= p <= 1.0, f"granger_days {r['date']}: p-value {p} outside [0, 1]")
        expect(f >= 0.0, f"granger_days {r['date']}: F {f} < 0")
        expect(1 <= lag <= MAX_LAG, f"granger_days {r['date']}: lag {lag}")
        expect((r["reject_at_5pct"] == "true") == (p < 0.05), f"granger_days {r['date']}: reject flag")
        by_date.setdefault(r["date"], []).append(r)
    expect(all(len(v) == 2 for v in by_date.values()), "granger_days: a day lacks a direction")
    skipped_dates = {r["date"] for r in skipped}
    expect(not skipped_dates & set(by_date), "granger: a day is both tested and skipped")
    expect(skipped_dates | set(by_date) == {d.isoformat() for d in e.dates},
           "granger: tested and skipped days do not cover the sample")
    expect(set(summary) == {"polarity->return", "return->polarity"}, "granger_summary: directions")
    for direction, r in summary.items():
        n_tested, n_skipped = int(r["n_tested"]), int(r["n_skipped"])
        expect(n_tested + n_skipped == len(e.dates),
               f"granger_summary: n_tested + n_skipped = {n_tested + n_skipped} != {len(e.dates)} days")
        expect(n_tested == len(by_date) and n_skipped == len(skipped), "granger_summary: counts")
        passing = sum(
            1 for rows in by_date.values() for x in rows
            if x["direction"] == direction and x["reject_at_5pct"] == "true"
        )
        rate = num(r["pass_rate"])
        expect(close(rate, passing / n_tested if n_tested else math.nan),
               f"granger_summary {direction}: pass_rate {rate}")


def check_impact(e: Expected, out: Path) -> None:
    rows = {(r["period"], r["sign_group"]): r for r in read_rows(out / "price_impact.csv")}
    keep = np.isfinite(e.pol) & np.isfinite(e.stock_log)
    labels = np.array([period_of(d) for d in e.dates])
    for name in ("all", *PERIODS):
        scope = keep & (True if name == "all" else (labels == name)[None, :, None])
        if not scope.any():
            expect(not any(k[0] == name for k in rows), f"price_impact {name}: unexpected rows")
            continue
        p, r = e.pol[scope], e.stock_log[scope]
        for group, mask in (("negative", p < 0), ("zero", p == 0), ("positive", p > 0)):
            row = rows.get((name, group))
            expect(row is not None, f"price_impact: missing {name} {group}")
            expect(int(row["n"]) == int(mask.sum()), f"price_impact {name} {group}: n")
            if not mask.any():
                continue
            q1, med, q3 = (num(row[c]) for c in ("q1", "median", "q3"))
            expect(q1 <= med <= q3, f"price_impact {name} {group}: quartiles out of order")
            want = np.percentile(r[mask], [25.0, 50.0, 75.0])
            expect(all(close(a, b) for a, b in zip((q1, med, q3), want)),
                   f"price_impact {name} {group}: quartiles differ from the recount")


def check_emotion(e: Expected, out: Path) -> None:
    rows = {r["period"]: r for r in read_rows(out / "emotion_correlation.csv")}
    expect(set(rows) == {"overall", *PERIODS}, f"emotion_correlation: periods {sorted(rows)}")
    rjf = e.inputs.emotion
    daily = {d: e.market[j, e.index_min_bar[d] - 1] for j, d in enumerate(e.dates)}
    joined = [d for d in sorted(daily) if d in rjf and np.isfinite(daily[d])]
    for name in ("overall", *PERIODS):
        ds = [d for d in joined if name == "overall" or period_of(d) == name]
        r = rows[name]
        expect(int(r["n_days"]) == len(ds), f"emotion_correlation {name}: n_days")
        got = num(r["pearson_r"])
        expect(math.isnan(got) or abs(got) <= 1.0, f"emotion_correlation {name}: |r| > 1")
        if len(ds) >= 3:
            want = _pearson([daily[d] for d in ds], [rjf[d] for d in ds])
            expect(close(got, want), f"emotion_correlation {name}: r {got} != {want:.12g}")
        else:
            expect(math.isnan(got), f"emotion_correlation {name}: r from < 3 days")


CHECKS = {
    "ingest": (check_ingest_report,),
    "polarity": (check_panel, check_polarity_moments),
    "polarity_day": (check_panel_day_scope,),
    "polarity_threads2": (check_panel_threads2,),
    "ratios": (check_ratios,),
    "flips": (check_flips,),
    "runlengths": (check_run_lengths,),
    "fit": (check_tail_fits,),
    "market": (check_market_minutes, check_index_min, check_market_summary),
    "kl": (check_corr_hists, check_kl),
    "granger": (check_granger,),
    "impact": (check_impact,),
    "emotion": (check_emotion,),
}


def failed_checks(step: str, e: Expected, out: Path) -> list[str]:
    """Messages of the step's checks that fail; empty when all pass."""
    messages = []
    for check in CHECKS.get(step, ()):
        try:
            check(e, out)
        except CheckError as exc:
            messages.append(f"{check.__name__}: {exc}")
    return messages
