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
Minutes that no regime covers, or whose regime has zero rates and
nothing planted, are quiet.

The bytes stay stable because the draws keep one order and take the same
bits. Each day:

1. For each stock in turn: when any of the day's scheduled bars has a
   positive rate, one ``poisson`` vector over all of them per side, buy
   first. Then, bar by bar, each planted or two-sided minute: the
   run-length start sign and power-law lengths when a run regime needs
   them; then for a minute that trades, the quote ``random``, one
   ``geometric`` fill vector over buyers then sellers when
   ``mean_fills > 1``, per side (buyers first) the ``integers`` for a
   deficit and a ``shuffle``, then the trade ``random``.
2. For each trading minute in the same order: one ``standard_normal``
   for the price step, then the volume ``integers``.
3. The index path: one ``standard_normal`` vector, then the minimum bar.

Several calls take a cheaper form that draws the same bits as the
straightforward one; ``tests/test_synth_streams.py`` checks each against
the installed numpy:

- ``lo + 60000.0 * random(n)`` is ``uniform(lo, lo + 60000.0, n)``: a
  quote or trade time in the bar starting at ``lo`` ms;
- one ``geometric(p, nb + ns)`` split in two is the two per-side calls;
- ``poisson(rate, n)`` is ``poisson`` over n equal rates, so a day whose
  scheduled bars share one rate per side draws with the scalar call, which
  skips numpy's checks of a rate array;
- ``integers(0, 1, n)`` draws nothing, so a lone participant takes its
  side's whole deficit with no call;
- a ``shuffle`` of at most one slot draws nothing, so none is made;
- k scalar ``integers(lo, hi)`` calls are one ``integers(lo, hi, k)``
  call. Up to three draws are made so: numpy spends most of a sized call
  on ``np.prod(size)``.

Draws are not batched across minutes. The price steps' normals and the
volumes' bounded integers interleave, and numpy keeps half of a 64-bit
draw for the next 32-bit one, so a batch would change the stream.

How the rows are then assembled and written draws nothing, so it may
change freely as long as it emits the same text.

``brute_force_recount`` is the independent oracle for the whole counting
pipeline: a deliberately naive reread of a transactions file with
per-cell serial sets and its own bar arithmetic. It shares no code with
the engine path.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
from array import array
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


#: rows formatted and written at a time; bounds the text held at once
_WRITE_SLICE = 8192

#: 09:15:00.000, where the planted off-grid rows start, one second apart
_OFFGRID_START_MS = (9 * 3600 + 15 * 60) * 1000

#: the planted off-grid rows must end before the 09:30 open
_MAX_OFFGRID_ROWS = 15 * 60

#: "hh:mm:", "ss." and "mmm" pieces of a time-of-day text
_MINUTE_TEXT = [f"{m // 60:02d}:{m % 60:02d}:" for m in range(24 * 60)]
_SECOND_TEXT = [f"{s:02d}." for s in range(60)]
_MILLI_TEXT = [f"{ms:03d}" for ms in range(1000)]


def _time_text(ms: np.ndarray) -> list:
    """The hh:mm:ss.mmm text of each time of day in ms since midnight."""
    sec, milli = np.divmod(ms, 1000)
    minute, sec = np.divmod(sec, 60)
    return [
        a + b + c
        for a, b, c in zip(
            map(_MINUTE_TEXT.__getitem__, minute.tolist()),
            map(_SECOND_TEXT.__getitem__, sec.tolist()),
            map(_MILLI_TEXT.__getitem__, milli.tolist()),
        )
    ]


def _ints(rng, low, high, k):
    """``rng.integers(low, high, k)`` as a list, with the same draws.

    Up to three draws are made as scalar calls: numpy spends most of a sized
    call on ``np.prod(size)``, about the cost of three scalar ones.
    """
    if k > 3:
        return rng.integers(low, high, k).tolist()
    return [rng.integers(low, high) for _ in range(k)]


def _side_slots(rng, base, count, fills, total, n_trades):
    """One side of a minute: the register of each trade's participant,
    shuffled, as a list.

    Participant ``base + k`` fills ``fills[k]`` times (once when ``fills`` is
    None); the side's deficit against ``n_trades`` goes to drawn participants.
    A lone participant takes the whole deficit without a call, and a single
    slot is not shuffled: neither would draw.
    """
    if count == 1:
        side = [base] * n_trades
        if n_trades > 1:
            # every slot holds the one register, so the shuffle is for its draws
            rng.shuffle(np.array(side))
        return side
    deficit = n_trades - total
    if deficit > 0:
        fills = [1] * count if fills is None else fills
        for k in _ints(rng, 0, count, deficit):
            fills[k] += 1
    side = np.arange(base, base + count)
    if fills is not None:
        side = side.repeat(fills)
    rng.shuffle(side)
    return side.tolist()


def _minute_trades(rng, nb, ns, mean_fills, base):
    """Draw one trading minute: (quote draws, buyer registers, seller
    registers, sorted trade draws), each a list.

    Registers count from ``base``. A draw ``u`` in [0, 1) stands for the
    time ``lo + 60000.0 * u`` in the bar starting at ``lo`` ms, which is
    what ``uniform(lo, lo + 60000.0)`` gives; that time never falls as
    ``u`` grows, so the sorted draws give the sorted times.
    """
    quotes = rng.random(nb + ns).tolist()
    if mean_fills > 1.0:
        fills = rng.geometric(1.0 / mean_fills, nb + ns).tolist()
        fb, fs = fills[:nb], fills[nb:]
        total_b, total_s = sum(fb), sum(fs)
    else:
        fb = fs = None
        total_b, total_s = nb, ns
    n_trades = max(total_b, total_s)
    buyers = _side_slots(rng, base, nb, fb, total_b, n_trades)
    sellers = _side_slots(rng, base + nb, ns, fs, total_s, n_trades)
    times = sorted(rng.random(n_trades).tolist())
    return quotes, buyers, sellers, times


def _write_rows(fh, schema, iso, stocks, rank, px_text, *, stock_of, price_of, ms, buy, sell, vol):
    """Write one day's feed rows, sorted stably by (time, stock id as text).

    Row k is stock ``stock_of[k]`` trading at ``px_text[price_of[k]]`` at
    ``ms[k]`` since midnight. Rows are formatted a slice at a time, in the
    schema's column order; a column beyond the canonical fields is empty.
    """
    order = np.argsort(ms * len(stocks) + rank[stock_of], kind="stable")
    for s in range(0, len(order), _WRITE_SLICE):
        rows = order[s : s + _WRITE_SLICE]
        text = {
            "trade_date": itertools.repeat(iso),
            "stock_id": map(stocks.__getitem__, stock_of[rows].tolist()),
            "time": _time_text(ms[rows]),
            "price": map(px_text.__getitem__, price_of[rows].tolist()),
            "volume": map(str, vol[rows].tolist()),
            "buy_serial": map(str, buy[rows].tolist()),
            "sell_serial": map(str, sell[rows].tolist()),
        }
        cols = [text[c] if c in text else itertools.repeat("") for c in schema.columns]
        fh.write("\n".join(map(schema.delimiter.join, zip(*cols))) + "\n")


def _poisson_args(rates: np.ndarray) -> tuple:
    """``Generator.poisson``'s arguments for one draw per rate: the one rate
    and the count when all are equal, which draws the same, else the rates."""
    if len(rates) and (rates == rates[0]).all():
        return float(rates[0]), len(rates)
    return (rates,)


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
    if not 0 <= n_offgrid_rows <= _MAX_OFFGRID_ROWS:
        raise ConfigError(
            f"n_offgrid_rows must be 0..{_MAX_OFFGRID_ROWS}, got {n_offgrid_rows}: the rows "
            f"are one second apart from 09:15:00 and must end before the 09:30 open"
        )
    coverage = _regime_coverage(regimes, dates)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    stocks = [f"{i + 1:06d}" for i in range(n_stocks)]
    # a day's rows sort by (time, stock id as text)
    rank = np.empty(n_stocks, dtype=np.int64)
    rank[sorted(range(n_stocks), key=stocks.__getitem__)] = np.arange(n_stocks)

    buy_truth = np.zeros((n_stocks, len(dates), BARS_PER_DAY), dtype=np.int32)
    sell_truth = np.zeros_like(buy_truth)
    truth = GroundTruth(stocks, list(dates), buy_truth, sell_truth)

    prices = [float(start_price)] * n_stocks
    index_close = index_start
    baseline_date = dates[0] - dt.timedelta(days=1)

    tx_path = out_dir / "transactions.csv"
    eod_path = out_dir / "eod.csv"
    intra_path = out_dir / "intraday.csv"

    offgrid_ms = _OFFGRID_START_MS + 1000 * np.arange(n_offgrid_rows, dtype=np.int64)

    # every file is written a day at a time, so memory follows the largest day
    with (
        open(tx_path, "w", newline="") as tx_fh,
        open(eod_path, "w", newline="") as eod_fh,
        open(intra_path, "w", newline="") as intra_fh,
    ):
        if schema.has_header:
            tx_fh.write(schema.header_line() + "\n")
        eod_rows = [f"{baseline_date.isoformat()},{index_id},{index_start:.4f}"]
        for stock in stocks:
            eod_rows.append(f"{baseline_date.isoformat()},{stock},{start_price:.4f}")
        eod_fh.write("date,id,close\n" + "\n".join(eod_rows) + "\n")
        intra_fh.write("date,id,bar_or_time,last_price\n")

        for j, d in enumerate(dates):
            iso = d.isoformat()
            intra_rows, eod_rows = [], []
            scheduled = np.flatnonzero(coverage[d] >= 0)
            bars = (scheduled + 1).tolist()
            regime_of = coverage[d][scheduled].tolist()
            specs = [regimes[ri] for ri in regime_of]
            bar_lo = np.array([float(bar_start_ms(b)) for b in bars])
            buy_rates = np.array([s.buy_rate for s in specs], dtype=np.float64)
            sell_rates = np.array([s.sell_rate for s in specs], dtype=np.float64)
            any_poisson = bool((buy_rates + sell_rates > 0).any())
            buy_args, sell_args = _poisson_args(buy_rates), _poisson_args(sell_rates)
            planted = [
                p
                for p, s in enumerate(specs)
                if s.polarity_pattern is not None
                or s.run_length_alpha is not None
                or s.fixed_counts is not None
            ]

            # the day's trading minutes, in (stock, bar) order, and their draws;
            # draws and registers go into flat arrays, 8 bytes each
            quote_u, time_u, vols = array("d"), array("d"), array("q")
            buyers_of, sellers_of, rows_of = array("q"), array("q"), []
            trade_stock, trade_pos, trade_nb, trade_ns = [], [], [], []
            n_participants = 0
            for i in range(n_stocks):
                visit = planted
                if any_poisson:
                    # one vector draw per side and stock-day
                    nb_draw = rng.poisson(*buy_args)
                    ns_draw = rng.poisson(*sell_args)
                    nb_of, ns_of = nb_draw.tolist(), ns_draw.tolist()
                    # one-sided interest never trades
                    trading = np.flatnonzero((nb_draw > 0) & (ns_draw > 0)).tolist()
                    visit = sorted(planted + trading) if planted else trading
                pattern_pos: dict[int, int] = {}
                run_state: dict[int, list] = {}
                for p in visit:
                    spec = specs[p]
                    if spec.polarity_pattern is not None:
                        ri = regime_of[p]
                        pos = pattern_pos.get(ri, 0)
                        pattern_pos[ri] = pos + 1
                        sign = spec.polarity_pattern[pos % len(spec.polarity_pattern)]
                        nb, ns = (0, 0) if sign is None else _SIGN_COUNTS[sign]
                        pat = truth.sign_pattern.setdefault(
                            (stocks[i], d), np.full(BARS_PER_DAY, np.nan)
                        )
                        pat[bars[p] - 1] = np.nan if sign is None else float(sign)
                    elif spec.run_length_alpha is not None:
                        # alternating signs with power-law run lengths; runs
                        # restart at each day so interior runs are whole draws
                        ri = regime_of[p]
                        state = run_state.get(ri)
                        if state is None:
                            start = 1 if rng.random() < 0.5 else -1
                            state = run_state[ri] = [start, 0, None, 0]
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
                        pat[bars[p] - 1] = float(sign)
                    elif spec.fixed_counts is not None:
                        nb, ns = spec.fixed_counts
                    else:
                        nb, ns = nb_of[p], ns_of[p]
                    if nb == 0:
                        continue
                    quotes, buyers, sellers, times = _minute_trades(
                        rng, nb, ns, spec.mean_fills, n_participants
                    )
                    n_participants += nb + ns
                    quote_u.fromlist(quotes)
                    time_u.fromlist(times)
                    buyers_of.fromlist(buyers)
                    sellers_of.fromlist(sellers)
                    rows_of.append(len(times))
                    trade_stock.append(i)
                    trade_pos.append(p)
                    trade_nb.append(nb)
                    trade_ns.append(ns)

            # serials follow the day's quote sequence across stocks and sides;
            # a draw u in a bar starting at lo is the time lo + 60000.0 * u
            nb_a = np.array(trade_nb, dtype=np.int64)
            ns_a = np.array(trade_ns, dtype=np.int64)
            pos_a = np.array(trade_pos, dtype=np.int64)
            lo_a = bar_lo[pos_a]
            quotes = np.repeat(lo_a, nb_a + ns_a) + 60_000.0 * np.frombuffer(quote_u)
            serial_of = np.empty(n_participants, dtype=np.int64)
            serial_of[np.argsort(quotes, kind="stable")] = np.arange(1, n_participants + 1)
            del quote_u, quotes

            # stock prices move bar by bar, optionally coupled to polarity
            z = []
            for n_trades in rows_of:
                z.append(rng.standard_normal())
                vols.fromlist(_ints(rng, 100, 10_000, n_trades))
            coupling = np.array([specs[p].coupling for p in trade_pos], dtype=np.float64)
            growth = np.exp(return_scale * (coupling * ((nb_a - ns_a) / (nb_a + ns_a)) + z))
            px_text = []
            for i, p, g in zip(trade_stock, trade_pos, growth.tolist()):
                prices[i] *= g
                px_text.append(f"{prices[i]:.4f}")
                intra_rows.append(f"{iso},{stocks[i]},{bars[p]},{px_text[-1]}")
            stock_a = np.array(trade_stock, dtype=np.int64)
            bar_a = scheduled[pos_a]
            buy_truth[stock_a, j, bar_a] = nb_a
            sell_truth[stock_a, j, bar_a] = ns_a

            # the day's rows as columns, each trade's rows in turn, then the
            # off-grid rows at the first stock's closing price
            px_text.append(f"{prices[0]:.4f}")
            ms = (np.repeat(lo_a, rows_of) + 60_000.0 * np.frombuffer(time_u)).astype(np.int64)
            del time_u
            rows_of.append(n_offgrid_rows)
            off = np.ones(n_offgrid_rows, dtype=np.int64)
            _write_rows(
                tx_fh,
                schema,
                iso,
                stocks,
                rank,
                px_text,
                stock_of=np.repeat(np.append(stock_a, 0), rows_of),
                price_of=np.repeat(np.arange(len(rows_of)), rows_of),
                ms=np.concatenate([ms, offgrid_ms]),
                buy=np.concatenate([serial_of[np.frombuffer(buyers_of, dtype=np.int64)], off]),
                sell=np.concatenate([serial_of[np.frombuffer(sellers_of, dtype=np.int64)], off]),
                vol=np.concatenate([np.frombuffer(vols, dtype=np.int64), 100 * off]),
            )
            del ms, buyers_of, sellers_of, vols

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
            intra_fh.write("\n".join(intra_rows) + "\n")
            eod_fh.write("\n".join(eod_rows) + "\n")

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
    with open(path, encoding="utf-8", newline="") as fh:
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
