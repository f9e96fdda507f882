"""``synth.generate`` against a frozen copy of its per-row reference.

``reference_generate`` is the generator as it was before the columnar
rewrite: one loop over every scheduled minute of every stock, one text row
at a time, sorted as tuples. It is kept here as a test oracle only, like
``brute_force_recount``. Two changes are carried over from the rewrite so
that the two may be compared on any scenario: minutes with zero rates and
nothing planted emit nothing (the old loop reused the previous stock-day's
Poisson draws there), and a day no regime covers is quiet (the old loop
raised on it). The new generator must make the same draws in the same
order, so the same seed must give the same bytes and the same truth.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polab.marketdata.grid import BARS_PER_DAY, bar_start_ms
from polab.marketdata.schema import DEFAULT_SCHEMA, FIELDS, ColumnSchema
from polab.synth import (
    _SIGN_COUNTS,
    GroundTruth,
    RegimeSpec,
    _regime_coverage,
    generate,
    sample_discrete_power_law,
)

DATES = [dt.date(2015, 5, 4), dt.date(2015, 5, 5), dt.date(2015, 5, 6)]


def _fmt_time(ms: int) -> str:
    sec, msec = divmod(ms, 1000)
    minute, s = divmod(sec, 60)
    h, m = divmod(minute, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{msec:03d}"


def reference_generate(
    regimes,
    n_stocks,
    dates,
    seed,
    *,
    index_id="SZSC",
    start_price=10.0,
    index_start=10_000.0,
    return_scale=0.001,
    n_offgrid_rows=0,
    schema=DEFAULT_SCHEMA,
):
    """The per-row generator; returns the three files' bytes and the truth."""
    dates = sorted(dates)
    coverage = _regime_coverage(regimes, dates)
    rng = np.random.default_rng(seed)
    stocks = [f"{i + 1:06d}" for i in range(n_stocks)]

    buy_truth = np.zeros((n_stocks, len(dates), BARS_PER_DAY), dtype=np.int32)
    sell_truth = np.zeros_like(buy_truth)
    truth = GroundTruth(stocks, list(dates), buy_truth, sell_truth)

    prices = np.full(n_stocks, start_price, dtype=np.float64)
    index_close = index_start
    baseline_date = dates[0] - dt.timedelta(days=1)

    eod_rows = [f"{baseline_date.isoformat()},{index_id},{index_start:.4f}"]
    for i, stock in enumerate(stocks):
        eod_rows.append(f"{baseline_date.isoformat()},{stock},{start_price:.4f}")
    intra_rows = []
    tx = [schema.header_line() + "\n"] if schema.has_header else []
    column_order = [FIELDS.index(c) for c in schema.columns]
    delim = schema.delimiter

    for j, d in enumerate(dates):
        active = coverage[d]
        scheduled = (np.nonzero(active >= 0)[0] + 1).tolist()
        iso = d.isoformat()
        quote_times = []
        trades = []
        n_participants = 0
        pattern_pos = {}
        run_state = {}

        rates = np.array(
            [(regimes[active[b - 1]].buy_rate, regimes[active[b - 1]].sell_rate) for b in scheduled]
        ).reshape(-1, 2)
        poisson_bars = rates.sum(axis=1) > 0

        for i in range(n_stocks):
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
                    pat = truth.sign_pattern.setdefault((stocks[i], d), np.full(BARS_PER_DAY, np.nan))
                    pat[b - 1] = np.nan if sign is None else float(sign)
                elif spec.run_length_alpha is not None:
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
                    pat = truth.sign_pattern.setdefault((stocks[i], d), np.full(BARS_PER_DAY, np.nan))
                    pat[b - 1] = float(sign)
                elif spec.fixed_counts is not None:
                    nb, ns = spec.fixed_counts
                elif spec.buy_rate + spec.sell_rate == 0:
                    nb = ns = 0  # quiet
                else:
                    nb = int(nb_draw[pos_b])
                    ns = int(ns_draw[pos_b])
                    if nb == 0 or ns == 0:
                        nb = ns = 0
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

        if n_participants:
            all_quotes = np.concatenate(quote_times)
            serial_of = np.empty(n_participants, dtype=np.int64)
            serial_of[np.argsort(all_quotes, kind="stable")] = np.arange(1, n_participants + 1)
        else:
            serial_of = np.empty(0, dtype=np.int64)

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
                canon = (iso, stock, _fmt_time(ms), px, str(vol), str(serial_of[bs]), str(serial_of[ss]))
                day_rows.append((ms, stock, delim.join(canon[f] for f in column_order)))

        for k in range(n_offgrid_rows):
            ms = (9 * 3600 + 15 * 60) * 1000 + k * 1000
            canon = (iso, stocks[0], _fmt_time(ms), f"{prices[0]:.4f}", "100", "1", "1")
            day_rows.append((ms, stocks[0], delim.join(canon[f] for f in column_order)))

        day_rows.sort(key=lambda r: (r[0], r[1]))
        tx.extend(line + "\n" for _, _, line in day_rows)

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

    files = (
        "".join(tx).encode(),
        ("date,id,close\n" + "\n".join(eod_rows) + "\n").encode(),
        ("date,id,bar_or_time,last_price\n" + "\n".join(intra_rows) + "\n").encode(),
    )
    return files, truth


@st.composite
def regime_sets(draw, dates):
    """Up to four regimes on disjoint bar sets, each on all or some dates."""
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(2, BARS_PER_DAY), min_size=n - 1, max_size=n - 1)))
    bounds = [1] + cuts + [BARS_PER_DAY + 1]
    regimes = []
    for k in range(n):
        step = draw(st.sampled_from([1, 3, 17]))
        bars = tuple(range(bounds[k], bounds[k + 1], step))
        on = draw(st.none() | st.sets(st.sampled_from(dates), min_size=1).map(tuple))
        common = dict(
            bars=bars,
            dates=on,
            mean_fills=draw(st.sampled_from([1.0, 1.3, 2.5])),
            coupling=draw(st.sampled_from([0.0, 1.5, -2.0])),
        )
        kind = draw(st.sampled_from(["poisson", "one-sided", "pattern", "fixed", "runs", "quiet"]))
        if kind == "poisson":
            spec = RegimeSpec(
                f"r{k}",
                buy_rate=draw(st.floats(0.1, 6.0)),
                sell_rate=draw(st.floats(0.1, 6.0)),
                **common,
            )
        elif kind == "one-sided":
            spec = RegimeSpec(f"r{k}", buy_rate=draw(st.floats(0.1, 3.0)), **common)
        elif kind == "pattern":
            pattern = draw(st.lists(st.sampled_from([1, -1, 0, None]), min_size=1, max_size=5))
            spec = RegimeSpec(f"r{k}", polarity_pattern=tuple(pattern), **common)
        elif kind == "fixed":
            counts = draw(st.sampled_from([(0, 0), (1, 1), (3, 2), (1, 4)]))
            spec = RegimeSpec(f"r{k}", fixed_counts=counts, **common)
        elif kind == "runs":
            spec = RegimeSpec(
                f"r{k}",
                run_length_alpha=draw(st.sampled_from([1.6, 2.2, 3.0])),
                run_length_xmin=draw(st.integers(1, 3)),
                **common,
            )
        else:
            spec = RegimeSpec(f"r{k}", **common)
        regimes.append(spec)
    return regimes


@st.composite
def scenarios(draw):
    dates = DATES[: draw(st.integers(1, 3))]
    schema = DEFAULT_SCHEMA
    if draw(st.booleans()):
        schema = ColumnSchema(
            columns=tuple(draw(st.permutations(FIELDS))),
            delimiter=draw(st.sampled_from([",", "|", "\t", ";"])),
            has_header=draw(st.booleans()),
        )
    return dict(
        regimes=draw(regime_sets(dates)),
        n_stocks=draw(st.integers(1, 4)),
        dates=dates,
        seed=draw(st.integers(0, 2**32 - 1)),
        n_offgrid_rows=draw(st.integers(0, 3)),
        schema=schema,
    )


def assert_same_as_reference(out_dir, regimes, n_stocks, dates, seed, **kw):
    want_files, want = reference_generate(regimes, n_stocks, dates, seed, **kw)
    files, got = generate(regimes, n_stocks, dates, seed, out_dir, **kw)
    got_files = tuple(p.read_bytes() for p in (files.transactions, files.eod_prices, files.intraday_prices))
    assert got_files == want_files
    assert got.stocks == want.stocks and got.dates == want.dates
    np.testing.assert_array_equal(got.buy, want.buy)
    np.testing.assert_array_equal(got.sell, want.sell)
    assert got.index_min_bar == want.index_min_bar
    assert got.sign_pattern.keys() == want.sign_pattern.keys()
    for key, pattern in want.sign_pattern.items():
        np.testing.assert_array_equal(got.sign_pattern[key], pattern)


@settings(
    max_examples=max(60, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenarios())
def test_generate_equals_the_per_row_reference(tmp_path, scenario):
    assert_same_as_reference(tmp_path, **scenario)


@pytest.mark.parametrize(
    "regimes, n_stocks",
    [
        # ~180 trades a minute put several pairs of one stock's rows on the
        # same millisecond; they keep the order the reference appended them in
        ([RegimeSpec("crowd", fixed_counts=(60, 60), mean_fills=3.0, bars=tuple(range(1, 31)))], 2),
        # Poisson minutes before and after planted ones: a stock's draws
        # follow bar order across regimes
        (
            [
                RegimeSpec("flow", buy_rate=2.0, sell_rate=2.0, bars=tuple(range(1, 20))),
                RegimeSpec("runs", run_length_alpha=2.0, bars=tuple(range(20, 40))),
                RegimeSpec("fills", buy_rate=1.0, sell_rate=3.0, mean_fills=1.5, bars=tuple(range(40, 60))),
            ],
            2,
        ),
        # paper_wide's thin flow: mostly one participant a side, so lone
        # participants take whole deficits and many minutes trade once
        ([RegimeSpec("thin", buy_rate=0.3, sell_rate=0.3, mean_fills=1.3, coupling=1.0)], 30),
        # paper_dense's flow: long deficits, drawn by sized integers calls
        ([RegimeSpec("dense", buy_rate=11.0, sell_rate=11.0)], 2),
    ],
    ids=["same-millisecond", "poisson-around-planted", "paper-wide-thin", "paper-dense"],
)
def test_fixed_scenarios_equal_the_reference(tmp_path, regimes, n_stocks):
    assert_same_as_reference(tmp_path, regimes, n_stocks, DATES[:2], 11)
