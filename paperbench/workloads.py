"""Seeded synthetic markets for the paper-run benchmark.

Each workload is one call of ``polab.synth.generate`` plus the side files a
full paper run reads: an emotion series, a capitalization table, and (on
``paper_wide``) malformed feed lines planted at seeded positions. Everything
derives from the run's ``--seed``, so the same seed rebuilds the same bytes.
The returned ``Inputs`` keeps the generator's ``GroundTruth`` and every
planted count, which the output checks compare against.
"""

from __future__ import annotations

import datetime as dt
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polab.synth import RegimeSpec, generate

ANALYSES = (
    "polarity", "ratios", "flips", "runlengths", "fit",
    "market", "kl", "granger", "impact", "emotion",
)

#: share of feed lines replaced by planted malformed lines (abort is at 0.1%)
MALFORMED_EVERY = 4000
MALFORMED_REASONS = ("field_count", "unparsable", "nonpositive", "bad_time")


@dataclass(frozen=True)
class Workload:
    name: str
    n_stocks: int
    dates: tuple
    regimes: tuple
    offgrid_per_day: int = 0
    plant_malformed: bool = False
    #: True when ``ingest`` counts as set-up time and is not in the timed sequence
    ingest_in_setup: bool = False
    #: extra timed subcommands: (step name, subcommand, extra CLI arguments)
    extra_steps: tuple = ()

    def timed_steps(self):
        """(step, subcommand, extra args) of the timed sequence, in order."""
        steps = [] if self.ingest_in_setup else [("ingest", "ingest", ())]
        steps += [(c, c, ()) for c in ANALYSES]
        return steps + list(self.extra_steps)


@dataclass
class Inputs:
    """Paths the run reads plus everything planted into them."""

    root: Path
    config: Path
    out_dir: Path
    truth: object
    generate_s: float
    feed_rows: int
    offgrid_rows: int
    malformed: dict = field(default_factory=dict)
    capitalization: dict = field(default_factory=dict)
    emotion: dict = field(default_factory=dict)
    index_id: str = "SZSC"


def weekdays(start: dt.date, end: dt.date) -> tuple:
    out, d = [], start
    while d <= end:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return tuple(out)


DAY_SCOPE = ("polarity_day", "polarity", ("--set", "serial_scope=day", "--out", "{root}/out_day"))
#: run by the traced mode only, as a reference figure for ``--threads 2``
THREADS2 = ("polarity_threads2", "polarity", ("--threads", "2", "--out", "{root}/out_threads2"))

WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP criterion 9's dense Poisson flow (11 participants per side and
        # minute) on 40 of its 165 stocks: ~245k rows, every minute active
        Workload(
            "paper_dense",
            n_stocks=40,
            dates=(dt.date(2015, 5, 4), dt.date(2015, 5, 5)),
            regimes=(RegimeSpec("dense", buy_rate=11.0, sell_rate=11.0),),
        ),
        # many thin stocks straddling the crash start; ~93% of minutes are empty
        Workload(
            "paper_wide",
            n_stocks=800,
            dates=(dt.date(2015, 6, 11), dt.date(2015, 6, 12), dt.date(2015, 6, 15)),
            regimes=(
                RegimeSpec("thin", buy_rate=0.3, sell_rate=0.3, mean_fills=1.3, coupling=1.0),
            ),
            offgrid_per_day=20,
            plant_malformed=True,
        ),
        # a handful of stocks over the paper's whole May-July 2015 horizon:
        # Poisson flow in the morning, planted power-law sign runs after lunch.
        # Run by hand only, not listed in BENCHMARK.json (see the README)
        Workload(
            "reanalyse_long",
            n_stocks=3,
            dates=weekdays(dt.date(2015, 5, 4), dt.date(2015, 7, 31)),
            regimes=(
                RegimeSpec(
                    "morning", buy_rate=3.0, sell_rate=3.0, coupling=2.0,
                    bars=tuple(range(1, 121)),
                ),
                RegimeSpec(
                    "afternoon-runs", run_length_alpha=2.2, coupling=2.0,
                    bars=tuple(range(121, 238)),
                ),
            ),
            offgrid_per_day=2,
            ingest_in_setup=True,
            extra_steps=(DAY_SCOPE,),
        ),
    )
}


def _plant_malformed(path: Path, rng) -> dict:
    """Insert a broken copy of a line after one line in every MALFORMED_EVERY.

    The positions are spread evenly through the file, so the parser's
    running abort check (0.1% share every 10k rows) never trips, and the
    reasons cycle so that each of the parser's four categories is planted.
    Every generated line stays, so the generator's truth still holds.
    """
    lines = path.read_text().split("\n")
    header, body = lines[0], lines[1:-1]  # the split leaves "" after the last newline
    counts = {reason: 0 for reason in MALFORMED_REASONS}
    out = [header]
    for k in range(0, len(body), MALFORMED_EVERY):
        segment = body[k : k + MALFORMED_EVERY]
        if len(segment) < MALFORMED_EVERY:
            out.extend(segment)
            break
        pos = int(rng.integers(0, MALFORMED_EVERY))
        f = segment[pos].split(",")
        reason = MALFORMED_REASONS[(k // MALFORMED_EVERY) % len(MALFORMED_REASONS)]
        if reason == "field_count":
            f = f[:-1]
        elif reason == "unparsable":
            f[3] = "1O.5"
        elif reason == "nonpositive":
            f[4] = "0"
        else:
            f[2] = "24:00:00.000"
        out.extend(segment[: pos + 1])
        out.append(",".join(f))
        out.extend(segment[pos + 1 :])
        counts[reason] += 1
    path.write_text("\n".join(out) + "\n")
    return counts


def build_inputs(workload: Workload, seed: int, root: Path) -> Inputs:
    """Generate the workload's market under ``root`` and write its run config."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    started = time.perf_counter()
    _, truth = generate(
        list(workload.regimes),
        workload.n_stocks,
        list(workload.dates),
        seed,
        root,
        n_offgrid_rows=workload.offgrid_per_day,
    )
    generate_s = time.perf_counter() - started
    tx = root / "transactions.csv"
    malformed = _plant_malformed(tx, rng) if workload.plant_malformed else {}
    with open(tx, "rb") as fh:
        feed_rows = sum(1 for _ in fh) - 1

    caps = {s: round(float(v), 2) for s, v in zip(truth.stocks, rng.lognormal(21.0, 1.0, len(truth.stocks)))}
    (root / "capitalization.csv").write_text(
        "id,capitalization\n" + "".join(f"{s},{v:.2f}\n" for s, v in caps.items())
    )
    rjf = {d: round(float(v), 4) for d, v in zip(truth.dates, rng.lognormal(0.0, 0.3, len(truth.dates)))}
    (root / "emotion.csv").write_text(
        "date,rjf\n" + "".join(f"{d.isoformat()},{v:.4f}\n" for d, v in rjf.items())
    )

    out = root / "out"
    config = {
        "transactions": str(tx),
        "cache": str(root / "cache.plab"),
        "eod_prices": str(root / "eod.csv"),
        "intraday_prices": str(root / "intraday.csv"),
        "emotion": str(root / "emotion.csv"),
        "capitalization": str(root / "capitalization.csv"),
        "out_dir": str(out),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    return Inputs(
        root=root,
        config=cfg_path,
        out_dir=out,
        truth=truth,
        generate_s=generate_s,
        feed_rows=feed_rows,
        offgrid_rows=workload.offgrid_per_day * len(workload.dates),
        malformed=malformed,
        capitalization=caps,
        emotion=rjf,
    )
