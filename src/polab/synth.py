"""Synthetic market scenarios with known ground truth.

The generator emits transaction and price files in the exact market-data
formats, plus a GroundTruth object recording the true per-minute buy/sell
participant counts, any planted per-bar sign pattern, and each day's
planted index-minimum minute. Every draw comes from one seeded generator
in a fixed order, so the same seed reproduces byte-identical files.

The participant process is deliberately simple, not a market model:
per-minute Poisson participant counts per side, each participant filled
one or more times (geometric), trades only when both sides show up. A
bar with participants on a single side emits nothing, so the recorded
truth always equals the distinct serials present in the emitted rows.

``brute_force_recount`` is the independent oracle for the whole counting
pipeline: a deliberately naive reread of a transactions file with
per-cell serial sets and its own bar arithmetic. It shares no code with
the engine path.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .marketdata.grid import BARS_PER_DAY, bar_start_ms
from .marketdata.schema import DEFAULT_SCHEMA
from .panel import PolarityPanel
from .special import _zeta

_SIGN_COUNTS = {1: (2, 1), -1: (1, 2), 0: (1, 1)}


@dataclass(frozen=True)
class RegimeSpec:
    """One activity regime over a (dates, bars) patch of the horizon.

    Activity is exactly one of: Poisson participant rates per side, a
    forced per-bar sign pattern (+1, -1, 0, None cycling over the
    scheduled bars), exact per-bar participant counts, or alternating
    signs with power-law run lengths. ``coupling`` steers the stock's
    bar return toward its realized polarity; 0 leaves prices a plain
    random walk.
    """

    name: str
    buy_rate: float = 0.0
    sell_rate: float = 0.0
    mean_fills: float = 1.0
    coupling: float = 0.0
    bars: tuple | None = None
    dates: tuple | None = None
    polarity_pattern: tuple | None = None
    fixed_counts: tuple | None = None
    run_length_alpha: float | None = None
    run_length_xmin: int = 1

    def __post_init__(self):
        if self.buy_rate < 0 or self.sell_rate < 0:
            raise ConfigError(f"regime {self.name!r}: rates must be non-negative")
        if self.mean_fills < 1.0:
            raise ConfigError(f"regime {self.name!r}: mean_fills must be >= 1")
        planted = (
            (self.polarity_pattern is not None)
            + (self.fixed_counts is not None)
            + (self.run_length_alpha is not None)
        )
        if planted and (self.buy_rate or self.sell_rate):
            raise ConfigError(f"regime {self.name!r}: planted activity excludes rates")
        if planted > 1:
            raise ConfigError(
                f"regime {self.name!r}: choose one of polarity_pattern / fixed_counts / "
                f"run_length_alpha"
            )
        if self.run_length_alpha is not None and (
            self.run_length_alpha <= 1.0 or self.run_length_xmin < 1
        ):
            raise ConfigError(
                f"regime {self.name!r}: run lengths need alpha > 1 and xmin >= 1"
            )
        if self.polarity_pattern is not None:
            bad = [v for v in self.polarity_pattern if v not in (1, -1, 0, None)]
            if bad:
                raise ConfigError(f"regime {self.name!r}: bad pattern values {bad}")
        if self.fixed_counts is not None:
            nb, ns = self.fixed_counts
            if nb < 0 or ns < 0 or (nb == 0) != (ns == 0):
                raise ConfigError(
                    f"regime {self.name!r}: fixed_counts must be (0, 0) or two positive "
                    f"counts, got {self.fixed_counts}; one-sided interest cannot trade"
                )
        if self.bars is not None:
            out = [b for b in self.bars if not 1 <= b <= BARS_PER_DAY]
            if out:
                raise ConfigError(f"regime {self.name!r}: bars out of range {out}")


@dataclass
class GroundTruth:
    stocks: list
    dates: list
    buy: np.ndarray
    sell: np.ndarray
    index_min_bar: dict = field(default_factory=dict)
    sign_pattern: dict = field(default_factory=dict)

    def panel(self) -> PolarityPanel:
        return PolarityPanel(self.stocks, self.dates, self.buy, self.sell)


def weekdays(start: dt.date, n: int) -> list:
    """The first ``n`` weekdays from ``start`` on, the synthetic calendar."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


@dataclass(frozen=True)
class ScenarioFiles:
    transactions: Path
    eod_prices: Path
    intraday_prices: Path
    index_id: str


def _regime_coverage(regimes, dates):
    """Per-date regime index for every bar; -1 where no regime is active."""
    coverage = {}
    for d in dates:
        active = np.full(BARS_PER_DAY, -1, dtype=np.int32)
        for ri, spec in enumerate(regimes):
            if spec.dates is not None and d not in spec.dates:
                continue
            bars = spec.bars if spec.bars is not None else range(1, BARS_PER_DAY + 1)
            for b in bars:
                if active[b - 1] != -1:
                    raise ConfigError(
                        f"regimes {regimes[active[b - 1]].name!r} and {spec.name!r} "
                        f"overlap on {d} bar {b}"
                    )
                active[b - 1] = ri
        coverage[d] = active
    return coverage


def _fmt_time(ms: int) -> str:
    sec, msec = divmod(ms, 1000)
    minute, s = divmod(sec, 60)
    h, m = divmod(minute, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{msec:03d}"


def generate(
    regimes,
    n_stocks: int,
    dates,
    seed: int,
    out_dir,
    *,
    index_id: str = "SZSC",
    start_price: float = 10.0,
    index_start: float = 10_000.0,
    return_scale: float = 0.001,
    n_offgrid_rows: int = 0,
    schema=DEFAULT_SCHEMA,
):
    """Emit a full synthetic scenario; returns (ScenarioFiles, GroundTruth)."""
    if isinstance(regimes, RegimeSpec):
        regimes = [regimes]
    if n_stocks < 1:
        raise ConfigError(f"n_stocks must be >= 1, got {n_stocks}")
    dates = sorted(dates)
    if not dates:
        raise ConfigError("at least one date is required")
    coverage = _regime_coverage(regimes, dates)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    stocks = [f"{i + 1:06d}" for i in range(n_stocks)]

    buy_truth = np.zeros((n_stocks, len(dates), BARS_PER_DAY), dtype=np.int32)
    sell_truth = np.zeros_like(buy_truth)
    truth = GroundTruth(stocks, list(dates), buy_truth, sell_truth)

    prices = np.full(n_stocks, start_price, dtype=np.float64)
    index_close = index_start
    baseline_date = dates[0] - dt.timedelta(days=1)

    tx_path = out_dir / "transactions.csv"
    eod_path = out_dir / "eod.csv"
    intra_path = out_dir / "intraday.csv"

    eod_rows = [f"{baseline_date.isoformat()},{index_id},{index_start:.4f}"]
    for i, stock in enumerate(stocks):
        eod_rows.append(f"{baseline_date.isoformat()},{stock},{start_price:.4f}")
    intra_rows = []

    from .marketdata.schema import FIELDS

    with open(tx_path, "w", newline="") as tx_fh:
        if schema.has_header:
            tx_fh.write(schema.header_line() + "\n")
        # canonical field index of each file column, applied per emitted row
        column_order = [FIELDS.index(c) for c in schema.columns]
        delim = schema.delimiter

        for j, d in enumerate(dates):
            active = coverage[d]
            scheduled = (np.nonzero(active >= 0)[0] + 1).tolist()
            iso = d.isoformat()
            # quote registry for the day's serial assignment
            quote_times: list[np.ndarray] = []
            trades = []  # (bar, stock_idx, times, buyer_reg, seller_reg)
            n_participants = 0
            pattern_pos: dict[tuple[int, int], int] = {}
            run_state: dict[tuple[int, int], list] = {}

            n_sched = len(scheduled)
            rates = np.array(
                [
                    (regimes[active[b - 1]].buy_rate, regimes[active[b - 1]].sell_rate)
                    for b in scheduled
                ]
            )
            poisson_bars = rates.sum(axis=1) > 0

            for i in range(n_stocks):
                # one vector draw per stock-day instead of one call per minute
                if poisson_bars.any():
                    nb_draw = rng.poisson(rates[:, 0])
                    ns_draw = rng.poisson(rates[:, 1])
                for pos_b, b in enumerate(scheduled):
                    ri = active[b - 1]
                    spec = regimes[ri]
                    if spec.polarity_pattern is not None:
                        key = (i, ri)
                        pos = pattern_pos.get(key, 0)
                        pattern_pos[key] = pos + 1
                        sign = spec.polarity_pattern[pos % len(spec.polarity_pattern)]
                        if sign is None:
                            nb = ns = 0
                        else:
                            nb, ns = _SIGN_COUNTS[sign]
                        pat = truth.sign_pattern.setdefault(
                            (stocks[i], d), np.full(BARS_PER_DAY, np.nan)
                        )
                        pat[b - 1] = np.nan if sign is None else float(sign)
                    elif spec.run_length_alpha is not None:
                        # alternating signs with power-law run lengths; runs
                        # restart at each day so interior runs are whole draws
                        key = (i, ri)
                        state = run_state.get(key)
                        if state is None:
                            start = 1 if rng.random() < 0.5 else -1
                            state = run_state[key] = [start, 0, None, 0]
                        if state[1] == 0:
                            if state[2] is None or state[3] >= len(state[2]):
                                state[2] = sample_discrete_power_law(
                                    spec.run_length_alpha, spec.run_length_xmin, 256, rng
                                )
                                state[3] = 0
                            state[0] = -state[0]
                            state[1] = int(state[2][state[3]])
                            state[3] += 1
                        sign = state[0]
                        state[1] -= 1
                        nb, ns = _SIGN_COUNTS[sign]
                        pat = truth.sign_pattern.setdefault(
                            (stocks[i], d), np.full(BARS_PER_DAY, np.nan)
                        )
                        pat[b - 1] = float(sign)
                    elif spec.fixed_counts is not None:
                        nb, ns = spec.fixed_counts
                    else:
                        nb = int(nb_draw[pos_b])
                        ns = int(ns_draw[pos_b])
                        if nb == 0 or ns == 0:
                            nb = ns = 0  # one-sided interest never trades
                    if nb == 0:
                        continue
                    buy_truth[i, j, b - 1] = nb
                    sell_truth[i, j, b - 1] = ns

                    lo = float(bar_start_ms(b))
                    hi = lo + 60_000.0
                    quote_times.append(rng.uniform(lo, hi, nb + ns))
                    buyer_reg = n_participants + np.arange(nb)
                    seller_reg = n_participants + nb + np.arange(ns)
                    n_participants += nb + ns
                    if spec.mean_fills > 1.0:
                        fb = rng.geometric(1.0 / spec.mean_fills, nb)
                        fs = rng.geometric(1.0 / spec.mean_fills, ns)
                        total_b, total_s = int(fb.sum()), int(fs.sum())
                    else:
                        fb = fs = None
                        total_b, total_s = nb, ns
                    n_trades = max(total_b, total_s)
                    slots = []
                    for fills, total, count, reg in (
                        (fb, total_b, nb, buyer_reg),
                        (fs, total_s, ns, seller_reg),
                    ):
                        deficit = n_trades - total
                        if deficit == 0 and fills is None:
                            side = reg.copy()
                        else:
                            if fills is None:
                                fills = np.ones(count, dtype=np.int64)
                            if deficit > 0:
                                np.add.at(fills, rng.integers(0, count, deficit), 1)
                            side = np.repeat(reg, fills)
                        rng.shuffle(side)
                        slots.append(side)
                    times = np.sort(rng.uniform(lo, hi, n_trades))
                    trades.append((b, i, times, slots[0], slots[1]))

            # serials follow the day's quote sequence across stocks and sides
            if n_participants:
                all_quotes = np.concatenate(quote_times)
                serial_of = np.empty(n_participants, dtype=np.int64)
                serial_of[np.argsort(all_quotes, kind="stable")] = np.arange(
                    1, n_participants + 1
                )
            else:
                serial_of = np.empty(0, dtype=np.int64)

            # stock prices move bar by bar, optionally coupled to polarity
            day_rows = []
            for b, i, times, buyer_slots, seller_slots in trades:
                nb = buy_truth[i, j, b - 1]
                ns = sell_truth[i, j, b - 1]
                pol = (nb - ns) / (nb + ns)
                spec = regimes[active[b - 1]]
                z = rng.standard_normal()
                prices[i] *= float(np.exp(return_scale * (spec.coupling * pol + z)))
                px = f"{prices[i]:.4f}"
                stock = stocks[i]
                intra_rows.append(f"{iso},{stock},{b},{px}")
                vols = rng.integers(100, 10_000, len(times))
                for t, bs, ss, vol in zip(times, buyer_slots, seller_slots, vols):
                    ms = int(t)
                    canon = (
                        iso, stock, _fmt_time(ms), px, str(vol),
                        str(serial_of[bs]), str(serial_of[ss]),
                    )
                    day_rows.append((ms, stock, delim.join(canon[f] for f in column_order)))

            for k in range(n_offgrid_rows):
                ms = (9 * 3600 + 15 * 60) * 1000 + k * 1000
                canon = (
                    iso, stocks[0], _fmt_time(ms), f"{prices[0]:.4f}", "100", "1", "1",
                )
                day_rows.append((ms, stocks[0], delim.join(canon[f] for f in column_order)))

            day_rows.sort(key=lambda r: (r[0], r[1]))
            for _, _, line in day_rows:
                tx_fh.write(line + "\n")

            # index path with a planted, strictly unique minimum minute
            pct = return_scale * np.cumsum(rng.standard_normal(BARS_PER_DAY))
            min_bar = int(rng.integers(1, BARS_PER_DAY + 1))
            pct[min_bar - 1] = pct.min() - 2.0 * return_scale
            truth.index_min_bar[d] = min_bar
            index_last = index_close * (1.0 + pct)
            for b in range(1, BARS_PER_DAY + 1):
                intra_rows.append(f"{iso},{index_id},{b},{index_last[b - 1]:.4f}")
            index_close = float(index_last[-1])
            eod_rows.append(f"{iso},{index_id},{index_close:.4f}")
            for i, stock in enumerate(stocks):
                eod_rows.append(f"{iso},{stock},{prices[i]:.4f}")

    with open(eod_path, "w", newline="") as fh:
        fh.write("date,id,close\n")
        fh.write("\n".join(eod_rows) + "\n")
    with open(intra_path, "w", newline="") as fh:
        fh.write("date,id,bar_or_time,last_price\n")
        fh.write("\n".join(intra_rows) + "\n")

    return ScenarioFiles(tx_path, eod_path, intra_path, index_id), truth


# -- the naive oracle ----------------------------------------------------------


@dataclass
class BruteForceCount:
    cells: dict
    off_grid: int
    rows: int


def brute_force_recount(path, schema=DEFAULT_SCHEMA) -> BruteForceCount:
    """Recount man-times the slow, obvious way. Test oracle only.

    Loads every row, groups by (stock, date, minute) with one serial set
    per side, and does its own minute arithmetic from the wall-clock time.
    """
    i_date = schema.index_of("trade_date")
    i_stock = schema.index_of("stock_id")
    i_time = schema.index_of("time")
    i_buy = schema.index_of("buy_serial")
    i_sell = schema.index_of("sell_serial")

    sets: dict = {}
    off_grid = 0
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        if schema.has_header:
            next(reader, None)
        for row in reader:
            if not row:
                continue
            rows += 1
            hh, mm, rest = row[i_time].split(":")
            hh, mm = int(hh), int(mm)
            ss = float(rest)
            t = dt.time(hh, mm, int(ss), int(round((ss % 1) * 1e6)))
            if dt.time(9, 30) <= t < dt.time(11, 30):
                bar = (hh * 60 + mm) - (9 * 60 + 30) + 1
            elif dt.time(13, 0) <= t < dt.time(14, 57):
                bar = (hh * 60 + mm) - 13 * 60 + 121
            else:
                off_grid += 1
                continue
            key = (row[i_stock], dt.date.fromisoformat(row[i_date]), bar)
            cell = sets.get(key)
            if cell is None:
                cell = sets[key] = (set(), set())
            cell[0].add(row[i_buy])
            cell[1].add(row[i_sell])
    cells = {k: (len(b), len(s)) for k, (b, s) in sets.items()}
    return BruteForceCount(cells=cells, off_grid=off_grid, rows=rows)


# -- series-level generators for coupling tests ---------------------------------


def _zetas(alpha: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(alpha, q) per element, one scalar call per distinct q:
    the bisection asks for millions of values but only thousands differ."""
    distinct, inverse = np.unique(q, return_inverse=True)
    return np.array([_zeta(alpha, v) for v in distinct.tolist()])[inverse]


def sample_discrete_power_law(alpha: float, xmin: int, n: int, rng) -> np.ndarray:
    """Exact inverse-CDF samples of the integer power law via bisection."""
    if alpha <= 1.0 or xmin < 1:
        raise ConfigError(f"need alpha > 1 and xmin >= 1, got {alpha}, {xmin}")
    u = rng.random(n)
    target = (1.0 - u) * _zeta(alpha, xmin)
    lo = np.full(n, xmin, dtype=np.int64)
    hi = np.full(n, 2 * xmin + 1, dtype=np.int64)
    for _ in range(128):
        need = _zetas(alpha, hi + 1.0) > target
        if not need.any():
            break
        hi[need] = hi[need] * 2 + 1
    while True:
        undecided = hi > lo
        if not undecided.any():
            break
        mid = (lo + hi) // 2
        greater = _zetas(alpha, mid + 1.0) > target
        lo = np.where(undecided & greater, mid + 1, lo)
        hi = np.where(undecided & ~greater, mid, hi)
    return lo


def generate_causal_days(
    n_days: int,
    *,
    minutes: int = BARS_PER_DAY,
    lag: int = 1,
    coef: float = 0.8,
    noise: float = 1.0,
    coupled: bool = True,
    seed: int = 0,
    start: dt.date = dt.date(2015, 5, 4),
) -> dict:
    """Daily (x, y) minute pairs with a planted x->y lag coupling.

    With ``coupled`` False the two series are independent white noise,
    which calibrates the test's size.
    """
    rng = np.random.default_rng(seed)
    days = {}
    d = start
    for _ in range(n_days):
        x = rng.standard_normal(minutes)
        eps = noise * rng.standard_normal(minutes)
        if coupled:
            y = eps.copy()
            y[lag:] += coef * x[:-lag]
        else:
            y = eps
        days[d] = (x, y)
        d += dt.timedelta(days=1)
    return days
