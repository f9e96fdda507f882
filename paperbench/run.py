"""Paper-run benchmark for polab.

Times a full paper run the way people use polab: ``polab ingest`` turns the
text feed into the cache, then the ten analysis subcommands each run off that
cache, each as its own process, one at a time, with the default threads=1.
Inputs come from ``polab.synth.generate`` with the given seed, and every table
is checked against the generator's truth (see checks.py).

    python3 paperbench/run.py --workload paper_dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. With
``--trace 0`` the last stdout line reports the end-to-end metrics of untraced
runs; with ``--trace 1`` it reports the per-layer metrics of a traced run
(see child.py). Scratch files live under paperbench/_work/ and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; setup_s is their median
REPEATS = 3
#: ingests at least per run; ingest_rows_per_s is their rows over their wall time
INGESTS = 4
#: untraced start-up probes per traced run
STARTUP_PROBES = 3


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int


def run_child(args, env, work: Path, trace_path=None) -> Proc:
    """Run ``child.py`` with polab arguments; wall time and the child's peak RSS."""
    hwm = work / "peak_rss_kb"
    argv = [sys.executable, str(HERE / "child.py"), str(hwm), str(trace_path or "-"), *args]
    with open(work / "polab.log", "ab") as log:
        log.write(f"$ polab {' '.join(args)}\n".encode())
        log.flush()
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=log)
        try:
            _, status, _ = os.wait4(child.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    # a child killed before its exit handler ran has failed by its exit code
    rss_mb = int(hwm.read_text()) / 1024.0 if hwm.exists() else 0.0
    hwm.unlink(missing_ok=True)
    return Proc(wall, rss_mb, child.returncode)


def step_args(cmd, extra, inputs) -> list:
    return [cmd, "--config", str(inputs.config), *(a.format(root=inputs.root) for a in extra)]


def snapshot(root: Path) -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def persisted_bytes(before: dict, after: dict) -> int:
    """Bytes of files an ingest created or rewrote, result tables excepted."""
    total = 0
    for path, meta in after.items():
        if before.get(path) == meta:
            continue
        with open(path, "rb") as fh:
            if fh.read(14) == b"# polab table=":
                continue
        total += meta[0]
    return total


class Run:
    """One benchmark run: set-up, timed rounds, checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.inputs = None
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.correct = True

    # -- set-up -------------------------------------------------------------

    def setup(self, times: int) -> dict:
        """Generate the inputs ``times`` times, each followed by a checked ingest.

        Where the workload builds its cache in set-up, the ingest is part of
        set-up time. Elsewhere it is timed apart, as one more sample of the
        ingest rate spread through the run, and the last set-up has none,
        since the timed sequence starts with an ingest.
        """
        from checks import expected_from
        from workloads import build_inputs

        setup_s, generate_s, ingest = [], [], []
        for k in range(times):
            started = time.perf_counter()
            self.inputs = build_inputs(self.w, self.seed, self.work / "inputs")
            setup_s.append(time.perf_counter() - started)
            generate_s.append(self.inputs.generate_s)
            if self.expected is None:
                self.expected = expected_from(self.inputs)
            if self.w.ingest_in_setup or k < times - 1:
                proc, persisted = self.ingest(None)
                if self.w.ingest_in_setup:
                    setup_s[-1] += proc.wall_s
                self.check("ingest", proc.code)
                ingest.append((proc, persisted))
        if self.failed:
            raise RuntimeError("set-up ingest failed; see the messages above")
        return {"setup_s": setup_s, "generate_s": generate_s, "ingest": ingest}

    def ingest(self, trace_path):
        """Run ``polab ingest``; (process, bytes it persisted)."""
        before = snapshot(self.inputs.root)
        proc = run_child(step_args("ingest", (), self.inputs), self.env, self.work, trace_path)
        return proc, persisted_bytes(before, snapshot(self.inputs.root))

    # -- rounds ---------------------------------------------------------------

    def fail(self, message: str) -> None:
        print(f"paperbench: {message}", file=sys.stderr)
        log = self.work / "polab.log"
        tail = log.read_text(errors="replace").splitlines()[-20:] if log.exists() else []
        for line in tail:
            print(f"  | {line}", file=sys.stderr)

    def check(self, step: str, code: int = 0) -> None:
        from checks import failed_checks

        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.fail(f"{step} exited {code}")
            return
        messages = failed_checks(step, self.expected, self.inputs.out_dir)
        if messages:
            self.failed += 1
            self.correct = False
            for m in messages:
                print(f"paperbench: {step}: {m}", file=sys.stderr)

    def round(self, steps, traces: Path | None = None):
        """Run the steps in order, then check their outputs.

        Returns ({step: (Proc, persisted bytes or None)}, wall seconds of the
        sequence, checks excluded).
        """
        out = {}
        started = time.perf_counter()
        for step, cmd, extra in steps:
            trace_path = traces / f"{step}.json" if traces else None
            if cmd == "ingest":
                out[step] = self.ingest(trace_path)
            else:
                args = step_args(cmd, extra, self.inputs)
                out[step] = (run_child(args, self.env, self.work, trace_path), None)
        wall = time.perf_counter() - started
        for step, (proc, _) in out.items():
            self.check(step, proc.code)
        return out, wall


def end_to_end(run: Run, seconds: float) -> dict:
    """Median end-to-end metrics over whole rounds started within ``seconds``.

    One ingest is a single short process, too noisy alone. The machine's
    speed drifts over tens of seconds, so the rate is taken over at least
    INGESTS ingests spread through the run (the set-up ingests, each
    round's, and checked ones after the rounds): all their feed lines over
    all their wall time. Cache size is the median over the same ingests.
    """
    setup = run.setup(REPEATS)
    rows = run.inputs.feed_rows
    ingests = [(p.wall_s, persisted) for p, persisted in setup["ingest"]]
    per_round = []
    deadline = time.perf_counter() + seconds
    while not per_round or time.perf_counter() < deadline:
        steps, run_s = run.round(run.w.timed_steps())
        if "ingest" in steps:
            proc, persisted = steps["ingest"]
            ingests.append((proc.wall_s, persisted))
        procs = [p for s, (p, _) in steps.items() if s != "ingest"]
        per_round.append((run_s, sum(p.wall_s for p in procs),
                          max(p.rss_mb for p, _ in steps.values())))
    while len(ingests) < INGESTS:
        proc, persisted = run.ingest(None)
        run.check("ingest", proc.code)
        ingests.append((proc.wall_s, persisted))
    median = statistics.median
    return {
        "setup_s": (median(setup["setup_s"]), "s"),
        "run_s": (median(r[0] for r in per_round), "s"),
        "ingest_rows_per_s": (rows * len(ingests) / sum(wall for wall, _ in ingests), "rows/s"),
        "reanalysis_s": (median(r[1] for r in per_round), "s"),
        "peak_rss_mb": (median(r[2] for r in per_round), "MB"),
        "cache_bytes_per_row": (median(b for _, b in ingests) / rows, "B/row"),
    }


def per_layer(run: Run) -> dict:
    from workloads import ANALYSES, DAY_SCOPE, THREADS2

    setup = run.setup(1)
    w, inputs = run.w, run.inputs
    timed = w.timed_steps()
    untraced, _ = run.round(timed)
    traces = run.work / "traces"
    traces.mkdir(exist_ok=True)
    steps = [("ingest", "ingest", ())] + [(c, c, ()) for c in ANALYSES] + [DAY_SCOPE, THREADS2]
    traced, _ = run.round(steps, traces)
    probes = [run_child([], run.env, run.work) for _ in range(STARTUP_PROBES)]

    data = {step: json.loads((traces / f"{step}.json").read_text()) for step, _, _ in steps}

    def spans(name, step_names):
        return [sp for s in step_names for sp in data[s]["spans"] if sp[0] == name]

    def total(name, step_names=ANALYSES):
        return sum(sp[2] - sp[1] for sp in spans(name, step_names))

    def count(key, step_names=ANALYSES):
        return sum(data[s]["counts"].get(key, 0) for s in step_names)

    m = {
        "cli.startup_s": (statistics.median(p.wall_s for p in probes), "s"),
        "cli.startup_rss_mb": (statistics.median(p.rss_mb for p in probes), "MB"),
    }
    for step, (proc, _) in traced.items():
        covered = sum(sp[2] - sp[1] for sp in data[step]["spans"] if sp[3] is None)
        m[f"cli.{step}.s"] = (proc.wall_s, "s")
        m[f"cli.{step}.self_s"] = (proc.wall_s - covered, "s")
        m[f"cli.{step}.peak_rss_mb"] = (proc.rss_mb, "MB")

    ingest = ["ingest"]
    parse_busy = count("parse.busy_s", ingest)
    parse_rows = count("parse.rows", ingest)
    build_s = total("panel.from_cache")
    m.update(
        {
            "parse.busy_s": (parse_busy, "s"),
            "parse.rows": (parse_rows, "count"),
            "parse.rows_per_s": (parse_rows / parse_busy, "rows/s"),
            "parse.malformed_rows": (count("parse.malformed_rows", ingest), "count"),
            "parse.off_grid_rows": (count("parse.off_grid_rows", ingest), "count"),
            "cache.write_busy_s": (total("cache.write_cache", ingest) - parse_busy, "s"),
            "cache.blocks_written": (count("cache.blocks_written", ingest), "count"),
            "cache.bytes": (traced["ingest"][1], "B"),
            "cache.read_busy_s": (count("cache.read_busy_s"), "s"),
            "cache.blocks_read": (count("cache.blocks_read"), "count"),
            "panel.build_s": (build_s, "s"),
            "panel.build_rows_per_s": (count("cache.rows_read") / build_s, "rows/s"),
            "panel.build_day_scope_s": (total("panel.from_cache", ["polarity_day"]), "s"),
            "panel.build_threads2_s": (total("panel.from_cache", ["polarity_threads2"]), "s"),
            "panel.stock_days": (count("panel.stock_days", ["polarity"]), "count"),
            "panel.active_cells": (count("panel.active_cells", ["polarity"]), "count"),
            "panel.write_text_s": (total("panel.write_text", ["polarity"]), "s"),
            "prices.intraday_load_s": (total("prices.load_intraday_prices"), "s"),
            "prices.intraday_rows": (count("prices.intraday_rows"), "count"),
            "prices.eod_load_s": (total("prices.load_eod_prices"), "s"),
            "returns.build_s": (total("returns.build_return_series"), "s"),
            "flips.series_s": (total("flips.build_flip_series"), "s"),
            "flips.stats_s": (total("flips.flip_stats"), "s"),
            "flips.run_lengths_s": (total("flips.run_lengths"), "s"),
            "flips.run_samples": (count("flips.run_samples"), "count"),
            "tailfit.fit_s": (total("tailfit.fit_power_law"), "s"),
            "tailfit.groups": (len(spans("tailfit.fit_power_law", ANALYSES)), "count"),
            "tailfit.refused": (count("tailfit.refused"), "count"),
            "coupling.stock_day_corr_s": (total("coupling.stock_day_correlation"), "s"),
            "coupling.corr_kept": (count("coupling.corr_kept"), "count"),
            "coupling.corr_dropped": (count("coupling.corr_dropped"), "count"),
            "coupling.kl_s": (
                total("coupling.build_corr_dist") + total("coupling.kl_divergence"), "s"
            ),
            "coupling.granger_s": (total("coupling.granger_pass_rates"), "s"),
            "coupling.granger_tested": (count("coupling.granger_tested"), "count"),
            "coupling.granger_skipped": (count("coupling.granger_skipped"), "count"),
            "coupling.impact_s": (total("coupling.price_impact_groups"), "s"),
            "tables.write_s": (total("tables.write_table"), "s"),
            "tables.rows_written": (count("tables.rows_written"), "count"),
            "synth.generate_s": (setup["generate_s"][0], "s"),
            "trace.overhead_s": (
                sum(traced[s][0].wall_s - untraced[s][0].wall_s for s, _, _ in timed), "s"
            ),
        }
    )
    return m


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="keep starting rounds until then")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "polab" / "cli.py").is_file():
        print(f"paperbench: no polab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    except RuntimeError as exc:
        print(f"paperbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
