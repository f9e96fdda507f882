"""Child-process entry: one polab subcommand, optionally traced.

Usage: python3 paperbench/child.py HWM_FILE TRACE_JSON|- [polab arguments]

Runs ``polab.cli.main`` as the ``polab`` console script would, then writes
the process's own peak RSS (``VmHWM``, kB) to HWM_FILE at exit. The peak
comes from the process itself because the ``ru_maxrss`` that ``wait4``
returns starts from the parent's high-water mark, which would hide the
subcommand's own. With no polab arguments the process only imports
``polab.cli`` (the start-up probe).

With TRACE_JSON other than ``-``, before ``polab.cli.main`` runs the module
attributes the command line calls through are replaced, in this process
only, by wrappers that record one span per call as [name, start, end,
parent index]. Generators that the callee drains (the text parser, the
cache reader) are timed per item and reported as busy seconds. Counts come
from arguments and results. Spans stay in memory and are written to
TRACE_JSON when the subcommand returns.
"""

from __future__ import annotations

import atexit
import json
import sys
import time


def write_peak_rss(path: str) -> None:
    try:
        with open("/proc/self/status") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w") as fh:
        fh.write(f"{kb}\n")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def busy(self, key, iterable, on_item=None):
        """Yield from ``iterable``, adding the seconds spent inside it to ``key``."""
        it, clock, total = iter(iterable), time.perf_counter, 0.0
        try:
            while True:
                t = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    total += clock() - t
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            self.add(key, total)


def install(rec: Recorder, reports: list) -> None:
    import numpy as np

    import polab.cli as cli
    from polab import coupling, flips, tailfit
    from polab.errors import FitRefusedError
    from polab.marketdata import cache
    from polab.panel import PolarityPanel

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), **hooks))

    # marketdata.parse: the generator ingest hands to the cache writer
    parse = cli.iter_transactions

    def iter_transactions(*args, **kwargs):
        reports.append(kwargs.get("report"))
        return rec.busy("parse.busy_s", parse(*args, **kwargs))

    cli.iter_transactions = iter_transactions

    # marketdata.cache
    patch(cache, "write_cache", "cache.write_cache")
    append = cache.CacheWriter.append

    def counted_append(self, block):
        rec.add("cache.blocks_written", 1)
        return append(self, block)

    cache.CacheWriter.append = counted_append
    read = cache.iter_blocks

    def on_block(blk):
        rec.add("cache.blocks_read", 1)
        rec.add("cache.rows_read", blk.n_rows)

    cache.iter_blocks = lambda path: rec.busy("cache.read_busy_s", read(path), on_block)

    # panel
    def on_panel(panel, args, kwargs):
        rec.counts["panel.stock_days"] = len(panel.stocks) * len(panel.dates)
        rec.counts["panel.active_cells"] = int(np.count_nonzero(panel.buy + panel.sell))

    PolarityPanel.from_cache = staticmethod(
        rec.wrap("panel.from_cache", PolarityPanel.from_cache, on_result=on_panel)
    )
    patch(PolarityPanel, "write_text", "panel.write_text")
    for attr in ("direction_ratios", "market_polarity_series", "daily_polarity_at_index_min"):
        patch(cli, attr, f"panel.{attr}")

    # marketdata.prices and returns
    def on_intraday(result, args, kwargs):
        rows = sum(int(np.isfinite(a).sum()) for days in result.values() for a in days.values())
        rec.add("prices.intraday_rows", rows)

    patch(cli, "load_intraday_prices", "prices.load_intraday_prices", on_result=on_intraday)
    patch(cli, "load_eod_prices", "prices.load_eod_prices")
    patch(cli, "build_return_series", "returns.build_return_series")

    # flips and tailfit, called through their modules
    patch(flips, "build_flip_series", "flips.build_flip_series")
    patch(flips, "flip_stats", "flips.flip_stats")
    patch(flips, "run_lengths", "flips.run_lengths",
          on_result=lambda r, a, k: rec.add("flips.run_samples", len(r)))

    def on_refused(exc):
        if isinstance(exc, FitRefusedError):
            rec.add("tailfit.refused", 1)

    patch(tailfit, "fit_power_law", "tailfit.fit_power_law", on_error=on_refused)
    patch(tailfit, "burstiness", "tailfit.burstiness")

    # coupling
    patch(coupling, "stock_day_correlation", "coupling.stock_day_correlation",
          on_result=lambda r, a, k: rec.add(
              "coupling.corr_dropped" if r is None else "coupling.corr_kept", 1))
    patch(coupling, "build_corr_dist", "coupling.build_corr_dist")
    patch(coupling, "kl_divergence", "coupling.kl_divergence")

    def on_granger(summary, args, kwargs):
        rec.add("coupling.granger_tested", summary.n_tested)
        rec.add("coupling.granger_skipped", len(summary.skipped))

    patch(coupling, "granger_pass_rates", "coupling.granger_pass_rates", on_result=on_granger)
    patch(coupling, "price_impact_groups", "coupling.price_impact_groups")
    patch(coupling, "market_correlation", "coupling.market_correlation")
    patch(coupling, "emotion_correlation", "coupling.emotion_correlation")

    # tables
    patch(cli, "write_table", "tables.write_table",
          on_result=lambda r, a, k: rec.add("tables.rows_written", len(a[3])))


def main() -> int:
    hwm_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    atexit.register(write_peak_rss, hwm_path)
    import polab.cli

    if not argv:
        return 0
    if trace_path == "-":
        return polab.cli.main(argv)
    rec, reports = Recorder(), []
    install(rec, reports)
    try:
        return polab.cli.main(argv)
    finally:
        for report in reports:
            if report is not None:
                rec.add("parse.rows", report.total_rows)
                rec.add("parse.malformed_rows", report.malformed_rows)
                rec.add("parse.off_grid_rows", report.off_grid_rows)
        with open(trace_path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
