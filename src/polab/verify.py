"""End-to-end oracle suite over randomized synthetic scenarios.

Each scenario is generated, recounted by the naive oracle, and rebuilt by
the engine, which reaches the panel through the binary cache. The checks
are strict equalities: panel against recount, panel against ground truth,
planted sign patterns against the flip statistics built from the panel,
and the planted index-minimum minute against the return series loaded back
from the emitted files.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import flips
from .marketdata.prices import load_eod_prices, load_intraday_prices
from .panel import PolarityPanel, direction_ratios
from .returns import build_return_series
from .synth import RegimeSpec, brute_force_recount, generate, weekdays


@dataclass
class OracleReport:
    n_scenarios: int = 0
    n_rows: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_scenario(rng, max_stocks: int, max_days: int):
    n_stocks = int(rng.integers(1, max_stocks + 1))
    n_days = int(rng.integers(1, max_days + 1))
    dates = weekdays(dt.date(2015, 5, 4), n_days)
    k = int(rng.integers(3, 16))
    bars = tuple(sorted(int(b) + 1 for b in rng.choice(237, size=k, replace=False)))
    if rng.random() < 0.3:
        opts = (1, -1, 0, None)
        pattern = tuple(opts[int(v)] for v in rng.integers(0, 4, size=int(rng.integers(4, 13))))
        regime = RegimeSpec("planted-signs", polarity_pattern=pattern, bars=bars)
    else:
        regime = RegimeSpec(
            "poisson-flow",
            buy_rate=float(rng.uniform(0.05, 1.2)),
            sell_rate=float(rng.uniform(0.05, 1.2)),
            mean_fills=float(rng.uniform(1.0, 2.0)),
            coupling=float(rng.uniform(-3.0, 3.0)),
            bars=bars,
        )
    return regime, n_stocks, dates, int(rng.integers(0, 2**31))


def _expected_runs(signs: list) -> list:
    """Interior same-sign run lengths of a +/-1 sequence, the slow way."""
    runs = []
    for s in signs:
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return [(s, n) for s, n in runs[1:-1]]


def _check_planted(scenario_id, truth, panel, files, failures) -> None:
    for (stock, date), planted in truth.sign_pattern.items():
        try:
            row = panel.row(stock, date)
        except KeyError:
            if np.isfinite(planted).any():
                failures.append(f"[{scenario_id}] {stock} {date}: planted day missing from panel")
            continue
        finite = np.isfinite(planted)
        if not np.array_equal(np.sign(row[finite]), planted[finite]) or np.isfinite(
            row[~finite]
        ).any():
            failures.append(f"[{scenario_id}] {stock} {date}: polarity signs differ from plant")
            continue
        got = [(sign, length) for _, sign, length in flips.run_lengths(row).tolist()]
        want = _expected_runs([int(s) for s in planted[finite] if s != 0])
        if got != want:
            failures.append(f"[{scenario_id}] {stock} {date}: runs {got} != planted {want}")
        ratios = direction_ratios(stock, row)
        vals = planted[finite]
        if len(vals):
            want_ratios = (
                float((vals > 0).mean()),
                float((vals < 0).mean()),
                float((vals == 0).mean()),
            )
            got_ratios = (ratios.pos_ratio, ratios.neg_ratio, ratios.zero_ratio)
            if got_ratios != want_ratios:
                failures.append(
                    f"[{scenario_id}] {stock} {date}: ratios {got_ratios} != {want_ratios}"
                )

    intraday = load_intraday_prices(files.intraday_prices, ids=(files.index_id,))
    eod = load_eod_prices(files.eod_prices)
    idx_returns = build_return_series(
        files.index_id, eod[files.index_id], intraday[files.index_id]
    )
    for date, want_bar in truth.index_min_bar.items():
        pct = idx_returns.intraday_pct_vs_prev_close[date]
        got_bar = int(np.nanargmin(pct)) + 1
        if got_bar != want_bar:
            failures.append(f"[{scenario_id}] {date}: index minimum at {got_bar}, planted {want_bar}")


def run_oracle_suite(
    n_scenarios: int = 100,
    seed: int = 20150504,
    *,
    max_stocks: int = 200,
    max_days: int = 5,
    work_dir=None,
) -> OracleReport:
    report = OracleReport()
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        tmp = Path(tmp)
        first_digest = None
        first_params = None
        for s in range(n_scenarios):
            regime, n_stocks, dates, scen_seed = _random_scenario(rng, max_stocks, max_days)
            files, truth = generate(regime, n_stocks, dates, scen_seed, tmp)
            if s == 0:
                first_digest = hashlib.sha256(files.transactions.read_bytes()).hexdigest()
                first_params = (regime, n_stocks, dates, scen_seed)

            brute = brute_force_recount(files.transactions)
            report.n_rows += brute.rows
            panel = PolarityPanel.from_transactions(files.transactions)

            engine_cells = panel.active_cells()
            if engine_cells != brute.cells:
                report.failures.append(f"[{s}] engine cells differ from brute-force recount")
            if engine_cells != truth.panel().active_cells():
                report.failures.append(f"[{s}] engine cells differ from ground truth")
            _check_planted(s, truth, panel, files, report.failures)
            report.n_scenarios += 1

        # same seed, same bytes
        regime, n_stocks, dates, scen_seed = first_params
        files, _ = generate(regime, n_stocks, dates, scen_seed, tmp)
        digest = hashlib.sha256(files.transactions.read_bytes()).hexdigest()
        if digest != first_digest:
            report.failures.append("regeneration with the same seed changed the emitted bytes")

    report.seconds = time.perf_counter() - started
    return report
