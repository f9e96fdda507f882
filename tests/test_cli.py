import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polab.cli import main
from polab.errors import DataError
from polab.marketdata import cache as cache_mod
from polab.marketdata.cache import FeedStamp, panel_memo_path, read_trailer
from polab.marketdata.parse import iter_transactions
from polab.panel import PolarityPanel

from cache_bytes import SEAL, TRAILER, sealed
from panel_text import read_text
from table_text import read_table


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synthetic market generated through the CLI, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    config = {
        "out_dir": str(out),
        "seed": 1234,
        "synth": {
            "n_stocks": 30,
            "n_days": 4,
            "start_date": "2015-06-10",
            "regimes": [
                {
                    "name": "flow",
                    "buy_rate": 1.1,
                    "sell_rate": 0.9,
                    "mean_fills": 1.4,
                    "coupling": 2.0,
                }
            ],
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(cfg_path)]) == 0

    # analysis config pointing at the generated files
    analysis = {
        "out_dir": str(out),
        "transactions": str(out / "transactions.csv"),
        "cache": str(out / "cache.plab"),
        "eod_prices": str(out / "eod.csv"),
        "intraday_prices": str(out / "intraday.csv"),
        "pre_crash_end": "2015-06-12",
        "crash_end": "2015-07-07",
        "min_corr_bars": 20,
        "min_fit_samples": 30,
    }
    analysis_path = root / "analysis.json"
    analysis_path.write_text(json.dumps(analysis))
    # emotion series joined on the panel's dates
    emotion_path = root / "emotion.csv"
    lines = ["date,rjf"]
    for i, day in enumerate(("2015-06-10", "2015-06-11", "2015-06-12", "2015-06-15")):
        lines.append(f"{day},{1.0 + 0.1 * i:.3f}")
    emotion_path.write_text("\n".join(lines) + "\n")
    analysis["emotion"] = str(emotion_path)
    analysis_path.write_text(json.dumps(analysis))
    # ingested here, so that no analysis, whichever runs first, ingests the
    # feed into its output directory
    assert main(["ingest", "--config", str(analysis_path)]) == 0
    return root, out, analysis_path


def run(analysis_path, *args):
    return main([args[0], "--config", str(analysis_path), *args[1:]])


class TestPipeline:
    def test_ingest_builds_cache_and_report(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "ingest") == 0
        assert (out / "cache.plab").exists()
        meta, cols, rows = read_table(out / "ingest_report.csv")
        stats = dict(rows)
        assert stats["rows_malformed"] == "0"
        assert int(stats["rows_cached"]) == int(stats["rows_total"])

    def test_polarity_tables(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "polarity") == 0
        meta, cols, rows = read_table(out / "polarity_moments.csv")
        assert cols == ["period", "mean", "std", "kurtosis_excess", "n_minutes"]
        overall = rows[0]
        assert overall[0] == "all"
        assert 0.0 < float(overall[1]) < 0.3  # buy-tilted regime
        assert (out / "panel.csv").exists()

    def test_idempotent_rerun(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "polarity") == 0
        first = (out / "polarity_moments.csv").read_bytes()
        panel_first = (out / "panel.csv").read_bytes()
        assert run(cfg, "polarity") == 0
        assert (out / "polarity_moments.csv").read_bytes() == first
        assert (out / "panel.csv").read_bytes() == panel_first

    def test_threads_do_not_change_artifacts(self, workdir, tmp_path):
        # neither the worker count nor the output directory may change a
        # byte of any table, headers (and their config hash) included
        root, out, cfg = workdir
        memo = panel_memo_path(out / "cache.plab", "bar")
        tables = {}
        for name, extra in (("one", ()), ("two", ("--threads", "2"))):
            for command in ("polarity", "fit"):
                memo.unlink(missing_ok=True)  # so that every run builds the panel
                assert run(cfg, command, "--out", str(tmp_path / name), *extra) == 0
            tables[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert sorted(tables["one"]) == ["panel.csv", "polarity_moments.csv", "tail_fits.csv"]
        assert tables["one"] == tables["two"]

    def test_ratios(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "ratios") == 0
        meta, cols, rows = read_table(out / "direction_ratios.csv")
        all_rows = [r for r in rows if r[1] == "all"]
        assert len(all_rows) == 30
        for r in all_rows:
            total = float(r[2]) + float(r[3]) + float(r[4])
            assert abs(total - 1.0) < 1e-9

    def test_ratios_with_capitalization_join(self, workdir):
        root, out, cfg = workdir
        caps = root / "caps.csv"
        lines = ["id,capitalization"] + [f"{i + 1:06d},{1e9 * (i + 1):.0f}" for i in range(30)]
        caps.write_text("\n".join(lines) + "\n")
        assert run(cfg, "ratios", "--set", f"capitalization={caps}") == 0
        meta, cols, rows = read_table(out / "direction_ratios.csv")
        assert cols[-1] == "capitalization"
        assert any(r[-1] != "NA" for r in rows)

    def test_flips_and_summary(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "flips") == 0
        meta, cols, rows = read_table(out / "flip_daily.csv")
        assert len(rows) > 0
        sf = [float(r[cols.index("standardized_flips")]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in sf)
        meta, cols, rows = read_table(out / "flip_depth_summary.csv")
        assert len(rows) == 4  # one summary per day

    def test_runlengths_and_fit(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "runlengths") == 0
        meta, cols, rows = read_table(out / "run_lengths.csv")
        assert all(int(r[3]) >= 1 for r in rows)
        assert run(cfg, "fit") == 0
        meta, cols, rows = read_table(out / "tail_fits.csv")
        assert len(rows) == 8  # 4 days x 2 signs
        b_idx = cols.index("burstiness")
        assert all(-1.0 <= float(r[b_idx]) <= 1.0 for r in rows if r[b_idx] != "NA")

    def test_fit_tail_only_burstiness_mode(self, workdir, tmp_path):
        root, out, cfg = workdir
        alt = tmp_path / "alt"
        assert run(cfg, "fit", "--out", str(alt), "--set", "tail_only_burstiness=true") == 0
        meta, cols, rows = read_table(alt / "tail_fits.csv")
        assert meta["burstiness"] == "tail-only"

    def test_market_and_granger(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "market") == 0
        meta, cols, rows = read_table(out / "market_summary.csv")
        stats = dict(rows)
        assert float(stats["n_minutes"]) > 200
        assert run(cfg, "granger") == 0
        meta, cols, rows = read_table(out / "granger_summary.csv")
        assert {r[0] for r in rows} == {"polarity->return", "return->polarity"}
        meta, cols, rows = read_table(out / "daily_polarity_at_index_min.csv")
        assert len(rows) == 4

    def test_kl_chain(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "kl") == 0
        meta, cols, rows = read_table(out / "corr_kl.csv")
        assert len(rows) == 3  # 4 days -> 3 transitions
        assert all(float(r[1]) >= 0.0 for r in rows)
        meta, cols, rows = read_table(out / "corr_hists.csv")
        by_date = {}
        for r in rows:
            by_date.setdefault(r[0], []).append(float(r[3]))
        for probs in by_date.values():
            assert abs(sum(probs) - 1.0) < 1e-9

    def test_impact(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "impact") == 0
        meta, cols, rows = read_table(out / "price_impact.csv")
        all_rows = [r for r in rows if r[0] == "all"]
        assert {r[1] for r in all_rows} == {"negative", "zero", "positive"}
        n_idx = cols.index("n")
        assert sum(int(r[n_idx]) for r in all_rows) > 0

    def test_emotion(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "emotion") == 0
        meta, cols, rows = read_table(out / "emotion_correlation.csv")
        assert rows[0][0] == "overall"
        assert int(rows[0][2]) == 4

    def test_fit_recovers_planted_run_length_exponent(self, tmp_path):
        # a market whose polarity runs are drawn from a known heavy-tail law:
        # the whole pipeline (synth -> runlengths -> fit) must hand it back
        out = tmp_path / "out"
        config = {
            "out_dir": str(out),
            "seed": 404,
            "min_fit_samples": 50,
            "synth": {
                "n_stocks": 60,
                "n_days": 1,
                "start_date": "2015-05-04",
                "regimes": [
                    {"name": "planted-tail", "run_length_alpha": 3.5, "run_length_xmin": 1}
                ],
            },
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg)]) == 0
        analysis = {
            "out_dir": str(out),
            "transactions": str(out / "transactions.csv"),
        }
        cfg.write_text(json.dumps(analysis))
        assert main(["runlengths", "--config", str(cfg)]) == 0
        assert main(["fit", "--config", str(cfg)]) == 0
        meta, cols, rows = read_table(out / "tail_fits.csv")
        assert len(rows) == 2  # one day, both signs
        a_idx = cols.index("alpha")
        for r in rows:
            assert r[a_idx] != "NA"
            assert 3.4 <= float(r[a_idx]) <= 3.6

    def test_verify_subcommand(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "verify", "--scenarios", "3") == 0
        meta, cols, rows = read_table(out / "verify_report.csv")
        assert dict(rows)["failures"] == "0"

    def test_config_hash_in_headers(self, workdir):
        root, out, cfg = workdir
        assert run(cfg, "polarity") == 0
        meta, _, _ = read_table(out / "polarity_moments.csv")
        assert "config=" in meta["_banner"]


#: a Poisson regime for the synth configs below
FLOW = {"name": "flow", "buy_rate": 1.0, "sell_rate": 1.0}

ANALYSES = (
    "polarity", "ratios", "flips", "runlengths", "fit",
    "market", "kl", "granger", "impact", "emotion",
)

#: (command, arguments) for each bad value, on every command that reads its
#: key; the analyses read ``delimiter`` when they ingest their missing cache
BAD_READ_VALUES = [
    *((command, ["--set", f"delimiter={value}"])
      for command in ("ingest", *ANALYSES) for value in ('";;"', '"::"', '""')),
    *((command, ["--set", "seed=-1"]) for command in ("synth", "verify")),
    *(("verify", ["--scenarios", count]) for count in ("0", "-1")),
]


class TestErrorMapping:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"no_such_key": 1}')
        assert main(["polarity", "--config", str(cfg)]) == 2
        assert "category=config" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["polarity", "--config", str(tmp_path / "nope.json")]) == 3
        assert "category=io" in capsys.readouterr().err

    def test_missing_inputs_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path)}))
        assert main(["polarity", "--config", str(cfg)]) == 2

    def test_nonexistent_input_path_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"transactions": str(tmp_path / "nope.csv"), "out_dir": str(tmp_path)})
        )
        assert main(["polarity", "--config", str(cfg)]) == 3
        assert "category=io" in capsys.readouterr().err

    def test_malformed_transactions_is_data_error(self, tmp_path, capsys):
        tx = tmp_path / "tx.csv"
        tx.write_text(
            "trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n"
            "garbage\n"
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"transactions": str(tx), "out_dir": str(tmp_path)}))
        assert main(["polarity", "--config", str(cfg)]) == 4
        assert "category=data" in capsys.readouterr().err

    def test_serial_beyond_u32_without_a_cache_is_a_data_error(self, tmp_path, capsys):
        tx = tmp_path / "tx.csv"
        tx.write_text(
            "trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n"
            f"2015-05-04,000001,09:31:10.000,10.0,100,{2**33 + 5},1\n"
            "2015-05-04,000001,09:32:10.000,10.0,100,5,2\n"
        )
        out = tmp_path / "out"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"transactions": str(tx), "out_dir": str(out)}))
        assert main(["polarity", "--config", str(cfg)]) == 4
        assert "buy_serial overflows the cache's u32 column" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_degenerate_market_is_numeric_error(self, workdir, tmp_path, capsys):
        root, out, cfg_path = workdir
        # an index whose only close is on the final day has no prior close
        # anywhere, so no usable return minutes exist
        eod = tmp_path / "eod.csv"
        eod.write_text("date,id,close\n2015-06-15,SZSC,10000.0\n")
        raw = json.loads(cfg_path.read_text())
        raw["eod_prices"] = str(eod)
        raw["out_dir"] = str(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main(["market", "--config", str(cfg)]) == 5
        assert "category=numeric" in capsys.readouterr().err

    def test_set_override_changes_behavior(self, workdir, tmp_path):
        root, out, cfg = workdir
        alt = tmp_path / "alt"
        assert run(cfg, "polarity", "--out", str(alt), "--set", "serial_scope=day") == 0
        meta, _, _ = read_table(alt / "polarity_moments.csv")
        assert meta["serial_scope"] == "day"

    def test_bad_set_syntax(self, workdir, capsys):
        root, out, cfg = workdir
        assert main(["polarity", "--config", str(cfg), "--set", "oops"]) == 2

    @pytest.mark.parametrize(
        "command,overrides,synth",
        [
            ("polarity", ["columns=5"], None),
            ("fit", ['tail_only_burstiness="no"'], None),
            ("kl", ["pseudo_count=NaN"], None),
            ("synth", [], {"n_stock": 3, "regimes": [FLOW]}),
            ("synth", [], {"start_date": 20150504, "regimes": [FLOW]}),
            ("synth", [], {"start_date": "2015-13-01", "regimes": [FLOW]}),
            ("synth", [], {"regimes": FLOW}),
            ("synth", [], {"regimes": [{**FLOW, "bars": 5}]}),
            ("synth", [], {"regimes": [{**FLOW, "dates": ["2015-13-01"]}]}),
        ],
        ids=[
            "columns-number", "bool-as-string", "pseudo-count-nan", "misspelt-synth-key",
            "start-date-number", "start-date-month-13", "regimes-object", "regime-bars-number",
            "regime-date-month-13",
        ],
    )
    def test_bad_config_value_is_a_config_error_before_any_file(
        self, workdir, tmp_path, capsys, command, overrides, synth
    ):
        # the analyses run on the module's market, whose cache they could read
        raw = json.loads(workdir[2].read_text()) if synth is None else {"synth": synth}
        out = tmp_path / "out"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**raw, "out_dir": str(out)}))
        args = [command, "--config", str(cfg)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,args", BAD_READ_VALUES, ids=[" ".join([c, *a]) for c, a in BAD_READ_VALUES]
    )
    def test_bad_value_of_a_key_the_command_reads_is_a_config_error(
        self, workdir, tmp_path, capsys, command, args
    ):
        # the analyses get the module's feed and prices but no cache
        raw = {**json.loads(workdir[2].read_text()), "cache": str(tmp_path / "cache.plab")}
        if command in ("synth", "verify"):
            raw = {"synth": {"n_stocks": 2, "n_days": 1, "regimes": [FLOW]}}
        out = tmp_path / "out"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**raw, "out_dir": str(out)}))
        assert main([command, "--config", str(cfg), *args]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ("ingest", *ANALYSES))
    def test_periods_out_of_order_are_a_config_error_before_any_file(
        self, workdir, tmp_path, capsys, command
    ):
        # a feed and no cache: an analysis used to ingest it and write its
        # tables before it read the periods
        raw = {**json.loads(workdir[2].read_text()), "cache": str(tmp_path / "cache.plab"),
               "out_dir": str(tmp_path / "out")}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main([command, "--config", str(cfg), "--set", "pre_crash_end=2015-08-01"]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err
        assert "pre_crash_end 2015-08-01 must precede crash_end 2015-07-07" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_synth_regime_dates_are_iso_dates(self, tmp_path):
        out = tmp_path / "out"
        synth = {"n_days": 2, "start_date": "2015-05-04",
                 "regimes": [{**FLOW, "dates": ["2015-05-05"]}]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": str(out), "synth": synth}))
        assert main(["synth", "--config", str(cfg)]) == 0
        dates = {line.split(",")[1] for line in (out / "truth_panel.csv").read_text().splitlines()[1:]}
        assert dates == {"2015-05-05"}

    @pytest.mark.parametrize(
        "command,key,text",
        [
            ("ratios", "capitalization", "id,capitalization\n000001,1e9\n000002,abc\n"),
            ("ratios", "capitalization", "id,capitalization\n000001,1e9\n000002\n"),
            ("emotion", "emotion", "date,rjf\n2015-06-10,1.0\n2015-06-11,x1\n"),
            ("emotion", "emotion", "date,rjf\n2015-06-10,1.0\n2015-06-31,1.2\n"),
        ],
    )
    def test_bad_value_in_side_file_is_data_error(
        self, workdir, tmp_path, capsys, command, key, text
    ):
        root, out, cfg = workdir
        bad = tmp_path / f"{key}.csv"
        bad.write_text(text)
        args = ("--out", str(tmp_path / "out"), "--set", f"{key}={bad}")
        assert run(cfg, command, *args) == 4
        err = capsys.readouterr().err
        assert "category=data" in err and f"{bad} line 3" in err


#: names the commands call through polab.cli's module attributes, so that
#: they can be wrapped from outside (the benchmark's traced mode does)
CLI_ATTRIBUTES = (
    "iter_transactions", "load_eod_prices", "load_intraday_prices", "load_intraday_rows",
    "build_return_series", "write_table", "direction_ratios", "market_polarity_series",
    "daily_polarity_at_index_min",
)


# OpenBLAS also sizes its pool from these; importing polab.cli in this process
# has set the first, so each subprocess below gets an environment built here
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_env(**variables) -> dict:
    import polab

    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(polab.__file__).parents[1])
    env.update(variables)
    return env


def _last_line(code: str, env: dict, *args) -> str:
    """Run ``code`` in a fresh interpreter; the last line it printed."""
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _loaded_modules(code: str, *args) -> list:
    """Run ``code`` in a fresh interpreter; the modules it had loaded at exit."""
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    return _last_line(code, _blas_env(), *args).split()


def test_cli_imports_without_scipy():
    # a process loads only what its subcommand uses: scipy alone costs half a
    # second, the process pool 20 ms, each polab module its compile time
    code = "import polab.cli as cli\n" + "".join(
        f"assert callable(cli.{name})\n" for name in CLI_ATTRIBUTES
    )
    unused = (
        "polab.synth", "polab.verify", "polab.coupling", "polab.tailfit", "polab.flips",
        "concurrent.futures.process", "logging",
    )
    loaded = _loaded_modules(code)
    assert "polab.cli" in loaded
    assert [m for m in loaded if m in unused or m.split(".")[0] == "scipy"] == []


#: the benchmark's child process, whose traced mode wraps polab functions by name
BENCH_CHILD = Path(__file__).resolve().parents[1] / "paperbench" / "child.py"


def test_traced_bench_child_counts_every_run(workdir, tmp_path):
    # a wrapper the commands no longer call would count 0 here, not fail
    root, out, cfg = workdir
    counts = {}
    for command in ("runlengths", "fit"):
        trace = tmp_path / f"{command}.json"
        subprocess.run(
            [sys.executable, str(BENCH_CHILD), tmp_path / "hwm", trace,
             command, "--config", cfg, "--out", tmp_path],
            env=_blas_env(), capture_output=True, check=True,
        )
        counts[command] = json.loads(trace.read_text())["counts"]["flips.run_samples"]
    _, _, runs = read_table(tmp_path / "run_lengths.csv")
    _, cols, fits = read_table(tmp_path / "tail_fits.csv")
    assert len(runs) > 100
    assert counts == {"runlengths": len(runs), "fit": len(runs)}
    assert sum(int(r[cols.index("n_total")]) for r in fits) == len(runs)

    # ingest into a cache of its own, then an analysis that builds its panel
    own = tmp_path / "own"
    own_cfg = tmp_path / "own.json"
    own_cfg.write_text(json.dumps({**json.loads(Path(cfg).read_text()),
                                   "cache": str(own / "cache.plab"), "out_dir": str(own)}))
    traced = {}
    for command in ("ingest", "polarity"):
        trace = tmp_path / f"{command}.json"
        subprocess.run(
            [sys.executable, str(BENCH_CHILD), tmp_path / "hwm", trace, command, "--config", own_cfg],
            env=_blas_env(), capture_output=True, check=True,
        )
        traced[command] = json.loads(trace.read_text())["counts"]
    n_blocks = sum(1 for _ in cache_mod.iter_blocks(own / "cache.plab"))
    feed = json.loads(own_cfg.read_text())["transactions"]
    with open(feed, "rb") as fh:
        feed_rows = sum(1 for _ in fh) - 1
    assert n_blocks == 120  # 30 stocks x 4 days
    assert traced["ingest"]["parse.rows"] == feed_rows
    # the wrapped ``CacheWriter.append`` takes each parse chunk once
    assert traced["ingest"]["cache.blocks_written"] == len(list(iter_transactions(feed)))
    assert traced["polarity"]["cache.blocks_read"] == n_blocks


def test_fit_run_loads_no_scipy(workdir, tmp_path):
    # the power-law fit carries its own ports of scipy's zeta and minimiser
    root, out, cfg = workdir
    code = (
        "from polab.cli import main\nimport sys\n"
        "assert main(['fit', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0"
    )
    loaded = _loaded_modules(code, cfg, tmp_path)
    assert "polab.tailfit" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    meta, cols, rows = read_table(tmp_path / "tail_fits.csv")
    assert rows


def test_granger_run_loads_no_scipy(workdir, tmp_path):
    # the F survival function is computed in decimal (special._f_survival)
    root, out, cfg = workdir
    code = (
        "import sys\nfrom polab.cli import main\n"
        "code = main(['granger', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _last_line(code, _blas_env(), cfg, tmp_path) == "0 []"
    meta, cols, rows = read_table(tmp_path / "granger_days.csv")
    assert rows


def test_analyses_load_no_scipy(workdir, tmp_path):
    # no polab module imports scipy, which would cost an analysis process
    # about 26 MB and 0.3 s
    root, out, cfg = workdir
    code = (
        "import sys\nfrom polab.cli import main\n"
        f"for command in {ANALYSES!r}:\n"
        "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0, command"
    )
    loaded = _loaded_modules(code, cfg, tmp_path)
    assert {"polab.coupling", "polab.tailfit", "polab.flips"} <= set(loaded)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert (tmp_path / "granger_days.csv").exists() and (tmp_path / "corr_kl.csv").exists()


def test_ratios_run_loads_no_openssl_scipy_or_generator(workdir, tmp_path):
    # what an analysis process does not use it does not load: OpenSSL's
    # libcrypto alone is about 3.6 MB of a process that needs one digest
    from importlib.util import find_spec

    root, out, cfg = workdir
    code = (
        "import sys\nfrom polab.cli import main\n"
        "assert main(['ratios', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0"
    )
    loaded = set(_loaded_modules(code, cfg, tmp_path))
    assert "polab.cli" in loaded and (tmp_path / "direction_ratios.csv").exists()
    unused = ("polab.synth", "polab.verify")
    assert [m for m in loaded if m in unused or m.split(".")[0] == "scipy"] == []
    if not (find_spec("_sha2") or find_spec("_sha256")):
        pytest.skip("this interpreter has no builtin SHA-256, so the config hash loads hashlib's")
    assert "_hashlib" not in loaded


def test_synth_with_planted_run_lengths_loads_no_scipy(tmp_path):
    # the power-law sampler takes its Hurwitz zeta from tailfit's port
    out = tmp_path / "out"
    config = {
        "out_dir": str(out),
        "seed": 404,
        "synth": {
            "n_stocks": 4,
            "n_days": 1,
            "start_date": "2015-05-04",
            "regimes": [{"name": "planted-tail", "run_length_alpha": 2.5, "run_length_xmin": 1}],
        },
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = "import sys\nfrom polab.cli import main\nassert main(['synth', '--config', sys.argv[1]]) == 0"
    loaded = _loaded_modules(code, cfg)
    assert "polab.synth" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert (out / "transactions.csv").stat().st_size > 0


def _return_series_logs(panel, intraday_path) -> dict:
    """{(stock, date): log-returns} of each panel stock-day that the
    intraday file prices, through ``build_return_series``."""
    from polab.marketdata.prices import load_intraday_prices
    from polab.returns import build_return_series

    want = {}
    for stock, per_day in load_intraday_prices(intraday_path).items():
        series = build_return_series(stock, {}, per_day)
        for date in panel.dates:
            if stock in panel.stocks and date in series.intraday_log:
                want[(stock, date)] = series.intraday_log[date]
    return want


def _stock_day_logs(panel, intraday_path) -> dict:
    """{(stock, date): log-returns or None} of every panel stock-day, as
    ``kl`` and ``impact`` walk them, each row checked against the panel's."""
    from polab import cli
    from polab.marketdata.prices import load_intraday_rows

    got = {}
    walk = cli._stock_day_returns(panel, load_intraday_rows(intraday_path))
    for stock, date, row, logs in walk:
        assert row.tobytes() == panel.row(stock, date).tobytes()
        got[(stock, date)] = None if logs is None else logs.copy()
    return got


#: the tables of the commands that pair polarity with stock log-returns
PRICE_TABLES = ("corr_hists.csv", "corr_kl.csv", "price_impact.csv")


class TestStockLogReturns:
    def test_bitwise_equal_to_the_return_series(self, workdir):
        from polab import cli
        from polab.config import RunConfig, read_config

        root, out, cfg = workdir
        rc = RunConfig.from_dict(read_config(cfg))
        panel = cli._load_panel(rc)
        want = _return_series_logs(panel, rc.intraday_prices)
        got = _stock_day_logs(panel, rc.intraday_prices)
        assert list(got) == [(s, d) for s in panel.stocks for d in panel.dates]
        assert len(want) == len(got)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    @pytest.mark.parametrize("variant", ["shuffled", "quoted"])
    def test_price_row_order_and_reader_leave_the_tables(self, workdir, tmp_path, variant):
        # a file in another row order is put in key order; a quoted field
        # sends the file through the row loop; the tables keep their bytes
        from polab.marketdata import prices

        root, out, cfg = workdir
        ordered = (out / "intraday.csv").read_text()
        header, *lines = ordered.splitlines()
        if variant == "shuffled":
            lines = [lines[k] for k in np.random.default_rng(29).permutation(len(lines))]
        else:
            date, stock, rest = lines[0].split(",", 2)
            lines[0] = f'{date},"{stock}",{rest}'
        path = tmp_path / "intraday.csv"
        tables = []
        for text in (ordered, "\n".join([header, *lines]) + "\n"):
            path.write_text(text)
            args = ("--out", str(tmp_path / "out"), "--set", f"intraday_prices={path}")
            assert run(cfg, "kl", *args) == 0 and run(cfg, "impact", *args) == 0
            tables.append([(tmp_path / "out" / t).read_bytes() for t in PRICE_TABLES])
        assert tables[1] == tables[0]
        key = prices._read(path, ",", True, prices.INTRADAY_COLUMNS)[1]
        assert bool((np.diff(key) > 0).all()) == (variant == "quoted")
        assert (prices._columnar(path, ",", True, prices.INTRADAY_COLUMNS) is None) == (
            variant == "quoted"
        )

    def test_unpriced_stock_and_stock_day_are_skipped(self, workdir, tmp_path):
        # a panel stock with no price row, and a panel stock-day with none,
        # yield no log-returns, and every other stock-day keeps its bits
        from polab import cli
        from polab.config import RunConfig, read_config

        root, out, cfg = workdir
        rc = RunConfig.from_dict(read_config(cfg))
        panel = cli._load_panel(rc)
        gone_stock, (day_stock, day) = panel.stocks[3], (panel.stocks[5], panel.dates[1])
        header, *lines = (out / "intraday.csv").read_text().splitlines()
        fields = [line.split(",")[:2] for line in lines]
        assert [day.isoformat(), day_stock] in fields
        assert {d for d, stock in fields if stock == gone_stock} == {
            d.isoformat() for d in panel.dates
        }
        kept = [
            line for line, (d, stock) in zip(lines, fields)
            if stock != gone_stock and [d, stock] != [day.isoformat(), day_stock]
        ]
        thin = tmp_path / "intraday.csv"
        thin.write_text("\n".join([header, *kept]) + "\n")
        want = _return_series_logs(panel, thin)
        got = _stock_day_logs(panel, thin)
        skipped = [k for k, logs in got.items() if logs is None]
        assert skipped == [(gone_stock, d) for d in panel.dates] + [(day_stock, day)]
        assert sorted(want) == sorted(k for k in got if k not in skipped)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_bad_price_outside_the_panel_is_a_data_error(self, workdir, tmp_path, capsys):
        # every date of a panel stock is checked, not only the panel's dates
        root, out, cfg = workdir
        text = (out / "intraday.csv").read_text()
        stock = text.splitlines()[1].split(",")[1]
        bad = tmp_path / "intraday.csv"
        bad.write_text(text + f"2015-06-16,{stock},5,0.0\n")
        args = ("--out", str(tmp_path / "out"), "--set", f"intraday_prices={bad}")
        assert run(cfg, "kl", *args) == 4
        err = capsys.readouterr().err
        assert f"non-positive last price for {stock} on 2015-06-16 bar 5" in err


def test_kl_and_impact_hold_no_dense_price_grid(tmp_path):
    # on a thin market a float64 (stock-days, 237) grid of last prices would
    # outweigh all that kl and impact need: the uint8 panel, the priced rows
    # and one stock's slab of log-returns
    import datetime as dt
    import tracemalloc

    from polab.marketdata.grid import BARS_PER_DAY
    from polab.synth import RegimeSpec, generate, weekdays

    n_stocks, dates = 800, weekdays(dt.date(2015, 6, 11), 3)
    thin = RegimeSpec("thin", buy_rate=0.1, sell_rate=0.1, mean_fills=1.3, coupling=1.0)
    generate([thin], n_stocks, dates, 7, tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"),
        "transactions": str(tmp_path / "transactions.csv"),
        "cache": str(tmp_path / "cache.plab"),
        "intraday_prices": str(tmp_path / "intraday.csv"),
    }))
    assert run(cfg, "polarity") == 0  # the cache and its panel memo
    grid = n_stocks * len(dates) * BARS_PER_DAY * 8
    for command in ("kl", "impact"):
        tracemalloc.start()
        try:
            assert run(cfg, command) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid, (command, peak, grid)


THREAD_COUNT = "\nimport os; print(len(os.listdir('/proc/self/task')))"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and two usable CPUs, where OpenBLAS starts a pool",
)
def test_cli_process_starts_no_blas_thread_pool():
    assert int(_last_line("import numpy" + THREAD_COUNT, _blas_env())) >= 2
    assert _last_line("import polab.cli" + THREAD_COUNT, _blas_env()) == "1"
    assert _last_line("import polab.cli" + THREAD_COUNT, _blas_env(OPENBLAS_NUM_THREADS="2")) == "2"


@pytest.mark.parametrize("caller, seen", [(None, "1"), ("2", "2")])
def test_cli_keeps_the_callers_thread_setting(caller, seen):
    env = _blas_env() if caller is None else _blas_env(OPENBLAS_NUM_THREADS=caller)
    code = "import os, polab.cli\nprint(repr(os.environ['OPENBLAS_NUM_THREADS']))"
    assert _last_line(code, env) == repr(seen)


def test_library_import_leaves_the_environment_alone():
    code = (
        "import os\nbefore = dict(os.environ)\n"
        "import polab, polab.panel, polab.coupling\nprint(dict(os.environ) == before)"
    )
    assert _last_line(code, _blas_env()) == "True"


def test_granger_tables_do_not_depend_on_blas_threads(workdir, tmp_path):
    # the regressions are tiny, but their bytes must not depend on the pool
    root, out, cfg = workdir
    code = "import sys\nfrom polab.cli import main\nprint(main(sys.argv[1:]))"
    tables = {}
    for name, env in (("default", _blas_env()), ("two", _blas_env(OPENBLAS_NUM_THREADS="2"))):
        assert _last_line(code, env, "granger", "--config", cfg, "--out", tmp_path / name) == "0"
        tables[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert "granger_days.csv" in tables["default"]
    assert tables["default"] == tables["two"]


class TestFailedIngest:
    def test_aborted_ingest_leaves_no_cache(self, tmp_path, capsys):
        good = [
            f"2015-05-04,{1 + i % 5:06d},{9 + i % 2:02d}:{31 + i % 20:02d}:00.000,"
            f"10.0,100,{1 + i % 97},{1 + i % 89}"
            for i in range(30_000)
        ]
        tx = tmp_path / "tx.csv"
        header = "trade_date,stock_id,time,price,volume,buy_serial,sell_serial"
        tx.write_text("\n".join([header] + good) + "\n")
        cache_path = tmp_path / "cache.plab"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"transactions": str(tx), "cache": str(cache_path), "out_dir": str(tmp_path / "out")}
        ))
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert cache_path.exists()

        corrupt = [line if i % 100 else "2015-05-04,000001,garbage" for i, line in enumerate(good)]
        tx.write_text("\n".join([header] + corrupt) + "\n")
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg)]) == 4
        assert "malformed share" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out", "tx.csv"]
        assert main(["polarity", "--config", str(cfg)]) != 0


#: ``polab`` with the cache's move patched: the process dies right after the
#: move (argv[1] "after") or in its place ("before"), as a kill would end it
_KILLED_INGEST = """
import functools, os, sys
from polab import cli
from polab.marketdata import cache, parse
replace, append, write_cache = cache.os.replace, cache.CacheWriter.append, cache.write_cache
appended = []

def killed(src, dst):
    if sys.argv[1] == "after":
        replace(src, dst)
    os._exit(137)

def killed_appending(writer, chunk):
    # at the third chunk, once the fragments file holds a flush or more
    append(writer, chunk)
    appended.append(chunk)
    if len(appended) == 3:
        writer._fh.flush()
        os._exit(137 if os.fstat(writer._fh.fileno()).st_size else 1)

if sys.argv[1] == "appending":  # chunks of a few rows, a flush of a few chunks
    parse._BLOCK_BYTES = 512
    cache.write_cache = functools.partial(write_cache, flush_rows=16)
    cache.CacheWriter.append = killed_appending
cache.os.replace = killed
cli.main(sys.argv[2:])
"""


class TestKilledIngest:
    """An ingest killed at any point leaves a cache that the next command
    uses as it is, or the cache that was there before it."""

    @pytest.mark.parametrize("moment", ("after", "before", "appending"))
    def test_next_command_runs_on_what_the_kill_left(self, tmp_path, moment):
        cfg, _, cache_path, out = _ingest_market(tmp_path)
        assert main(["polarity", "--config", str(cfg)]) == 0
        want, old_cache = (out / "panel.csv").read_bytes(), cache_path.read_bytes()
        shutil.rmtree(out)
        if moment == "after":  # no cache, nor anything kept beside one
            for path in tmp_path.glob(f"{cache_path.name}*"):
                path.unlink()
        before = sorted(p.name for p in tmp_path.iterdir())
        code = subprocess.run([sys.executable, "-c", _KILLED_INGEST, moment, "ingest", "--config",
                               str(cfg)], env=_blas_env(), capture_output=True).returncode
        assert code == 137
        assert cache_path.read_bytes() == old_cache
        if moment == "appending":  # the fragments had no name to leave behind
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + [out.name])
            assert not any(out.iterdir())
        assert not (out / "ingest_report.csv").exists()
        assert main(["polarity", "--config", str(cfg)]) == 0
        assert (out / "panel.csv").read_bytes() == want


def _market_files(root, n_stocks=3, n_days=2, seed=17, **extra):
    """A small synthetic market's feed and price files, under ``root / "feed"``."""
    import datetime as dt

    from polab.synth import RegimeSpec, generate, weekdays

    regime = RegimeSpec(
        "flow", buy_rate=0.8, sell_rate=0.8, mean_fills=1.6, bars=tuple(range(1, 238, 9))
    )
    days = weekdays(dt.date(2015, 5, 4), n_days)
    return generate(regime, n_stocks, days, seed, root / "feed", **extra)[0]


def _ingest_market(root, n_stocks=3, n_days=2, seed=17, **extra):
    """A small synthetic market ingested through the CLI: (config, feed, cache, out)."""
    files = _market_files(root, n_stocks, n_days, seed, **extra)
    cache_path, out = root / "cache.plab", root / "out"
    cfg = root / "c.json"
    cfg.write_text(json.dumps(
        {"transactions": str(files.transactions), "cache": str(cache_path), "out_dir": str(out)}
    ))
    assert main(["ingest", "--config", str(cfg)]) == 0
    return cfg, files.transactions, cache_path, out


def test_cache_holds_three_bytes_a_row_of_a_thin_day(tmp_path):
    # header, then per block its stock id, date, row count and label widths,
    # then a u8 bar and a u8 label a side a row, as no block here has more
    # than 256 orders a side, then the trailer: a column added later fails here
    cfg, _, cache_path, out = _ingest_market(tmp_path, n_stocks=4, n_days=3, n_offgrid_rows=2)
    _, _, rows = read_table(out / "ingest_report.csv")
    report = dict(rows)
    assert int(report["rows_off_grid"]) == 6
    blocks = list(cache_mod.iter_blocks(cache_path))
    assert len(blocks) == 12  # one block per (stock, day): the feed is under a flush
    assert {(b.buy_serial.dtype.str, b.sell_serial.dtype.str) for b in blocks} == {("|u1", "|u1")}
    heads = sum(2 + len(b.stock_id.encode("utf-8")) + 9 for b in blocks)
    assert cache_path.stat().st_size == 16 + heads + 3 * int(report["rows_cached"]) + TRAILER


@pytest.mark.parametrize("id_bytes, code", ((65_535, 0), (65_536, 4)))
def test_stock_id_longer_than_the_cache_holds_is_refused(tmp_path, capsys, id_bytes, code):
    # a block holds its stock id's length as u16; "é" is two UTF-8 bytes
    long_id = "é" + "1" * (id_bytes - 2)
    tx = tmp_path / "tx.csv"
    tx.write_text("trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n"
                  + "".join(f"2015-05-04,{stock},09:31:00.000,10.0,100,{k},2\n"
                            for k, stock in enumerate(("000001", long_id, "000002", long_id), 1)),
                  encoding="utf-8")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"transactions": str(tx), "out_dir": str(tmp_path / "out")}))
    assert main(["ingest", "--config", str(cfg)]) == code
    cache_path = tmp_path / "out" / "cache.plab"
    if code:
        assert "longer than the cache's 65,535 UTF-8 bytes" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []
    else:
        blocks = list(cache_mod.iter_blocks(cache_path))
        assert [(b.stock_id, b.n_rows) for b in blocks] == [("000001", 1), (long_id, 2), ("000002", 1)]


class TestFeedFingerprint:
    """A cache records the feed it was built from and refuses a changed one."""

    def test_trailer_records_the_feed(self, tmp_path):
        _, tx, cache_path, out = _ingest_market(tmp_path)
        _, _, rows = read_table(out / "ingest_report.csv")
        st = tx.stat()
        rows_total = int(dict(rows)["rows_total"])
        assert read_trailer(cache_path)[2] == FeedStamp(st.st_size, st.st_mtime_ns, rows_total)

    @pytest.mark.parametrize("change", ("rewrite", "touch"))
    def test_changed_feed_is_refused(self, tmp_path, capsys, change):
        cfg, tx, cache_path, out = _ingest_market(tmp_path)
        if change == "rewrite":
            tx.write_text(tx.read_text() + "2015-05-04,000001,09:31:00.000,10.0,100,1,2\n")
        else:
            st = tx.stat()
            os.utime(tx, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        capsys.readouterr()
        assert main(["polarity", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "category=data" in err and str(cache_path) in err and str(tx) in err
        assert "re-run `polab ingest`" in err
        assert not (out / "panel.csv").exists()
        assert not cache_mod.panel_memo_path(cache_path, "bar").exists()

    def test_unchanged_feed_runs(self, tmp_path):
        cfg, tx, cache_path, out = _ingest_market(tmp_path)
        assert main(["polarity", "--config", str(cfg)]) == 0
        assert read_text(out / "panel.csv").equals(PolarityPanel.from_transactions(tx))

    @pytest.mark.parametrize("feed", ("unnamed", "deleted"))
    def test_no_feed_to_compare_runs(self, tmp_path, feed):
        cfg, tx, cache_path, out = _ingest_market(tmp_path)
        want = PolarityPanel.from_transactions(tx)
        tx.write_text("")  # the feed the cache was built from is gone either way
        if feed == "unnamed":
            cfg.write_text(json.dumps({"cache": str(cache_path), "out_dir": str(out)}))
        else:
            tx.unlink()
        assert main(["polarity", "--config", str(cfg)]) == 0
        assert read_text(out / "panel.csv").equals(want)


class TestOldCacheVersion:
    @pytest.mark.parametrize("old_memo", (False, True))
    def test_version_1_cache_is_refused(self, tmp_path, capsys, old_memo):
        import datetime as dt
        import zlib

        from polab import panel as panel_mod

        cache_path, out = tmp_path / "cache.plab", tmp_path / "out"
        raw = cache_mod.MAGIC + (1).to_bytes(2, "little") + bytes(9)  # a version-1 header
        cache_path.write_bytes(raw)
        memo = panel_memo_path(cache_path, "bar")
        if old_memo:  # as the previous format's polab kept it, keyed to this cache
            counts = np.zeros((1, 1, 237), np.int32)
            panel = PolarityPanel(["000001"], [dt.date(2015, 5, 4)], counts, counts)
            key = np.array([1, zlib.crc32(raw), len(raw)], dtype=np.int64)
            panel_mod._save_memo(memo, panel, key, "bar")
        memo_before = memo.read_bytes() if old_memo else None
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"cache": str(cache_path), "out_dir": str(out)}))
        capsys.readouterr()
        assert main(["polarity", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "unsupported cache version 1" in err and "re-run `polab ingest`" in err
        assert not (out / "panel.csv").exists()
        assert (memo.read_bytes() if memo.exists() else None) == memo_before

    def test_version_2_cache_is_refused(self, tmp_path, capsys):
        # as the previous format wrote it: u32 serials, no label widths
        cache_path, out = tmp_path / "cache.plab", tmp_path / "out"
        sid = b"000001"
        block = (len(sid).to_bytes(2, "little") + sid + (20150504).to_bytes(4, "little")
                 + (2).to_bytes(4, "little") + bytes([1, 2]) + np.array([7, 9, 8, 8], "<u4").tobytes())
        raw = cache_mod.MAGIC + (2).to_bytes(2, "little") + bytes(1) + (1).to_bytes(8, "little") + block
        cache_path.write_bytes(raw)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"cache": str(cache_path), "out_dir": str(out)}))
        capsys.readouterr()
        assert main(["polarity", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "category=data" in err and "unsupported cache version 2" in err
        assert "re-run `polab ingest`" in err
        assert not (out / "panel.csv").exists()
        assert not panel_memo_path(cache_path, "bar").exists()

    def test_version_3_cache_is_refused_by_every_reader(self, tmp_path, capsys):
        # as the previous format wrote it: this format's header and blocks,
        # no trailer, its record in a file beside it, which is not read
        cfg, _, cache_path, out = _ingest_market(tmp_path)
        raw = bytearray(cache_path.read_bytes()[:-TRAILER])
        raw[5] = 3
        cache_path.write_bytes(bytes(raw))
        (tmp_path / "cache.plab.crc32").write_text(f"{zlib.crc32(raw):08x} {len(raw)}\n")
        message = "unsupported cache version 3"
        with pytest.raises(DataError, match=message):
            list(cache_mod.iter_blocks(cache_path))
        for config in (json.loads(cfg.read_text()), {"cache": str(cache_path), "out_dir": str(out)}):
            # with the feed named check_feed reads the cache first; without, the memo path
            cfg.write_text(json.dumps(config))
            capsys.readouterr()
            assert main(["polarity", "--config", str(cfg)]) == 4
            err = capsys.readouterr().err
            assert f"category=data: {message} in {cache_path}" in err and "re-run `polab ingest`" in err
            assert not (out / "panel.csv").exists()
        assert not panel_memo_path(cache_path, "bar").exists()
        assert (tmp_path / "cache.plab.crc32").exists()


class TestSplitKeyCache:
    def test_cache_with_a_repeated_key_is_refused(self, tmp_path, capsys):
        # as an older polab wrote it when a (stock, day) spanned two flushes
        cache_path, out = tmp_path / "cache.plab", tmp_path / "out"
        cols = (np.array([1, 2], np.uint8), np.array([0, 1], np.uint8), np.array([1, 0], np.uint8))
        block = cache_mod._block_bytes("000001", 20150504, *cols)
        raw = cache_mod._HEADER.pack(cache_mod.MAGIC, cache_mod.VERSION, 0, 2) + block + block
        cache_path.write_bytes(sealed(raw))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"cache": str(cache_path), "out_dir": str(out)}))
        capsys.readouterr()
        assert main(["polarity", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "category=data" in err and "second block for ('000001', 2015-05-04)" in err
        assert "re-run `polab ingest`" in err
        assert not (out / "panel.csv").exists()
        assert not panel_memo_path(cache_path, "bar").exists()


def _polab(*args):
    """Run the polab CLI in a fresh interpreter: (exit code, stderr)."""
    out = subprocess.run(
        [sys.executable, "-m", "polab.cli", *map(str, args)],
        env=_blas_env(), capture_output=True, text=True,
    )
    return out.returncode, out.stderr


class TestNotUtf8:
    """A byte that is not UTF-8 in any input file ends in a categorised error."""

    HEADER = b"trade_date,stock_id,time,price,volume,buy_serial,sell_serial"
    ROW = b"2015-05-04,000001,09:31:00.000,10.0,100,1,2"

    def _ingest(self, tmp_path, lines, *args):
        tx = tmp_path / "tx.csv"
        tx.write_bytes(b"\n".join(lines) + b"\n")
        cache = tmp_path / "cache.plab"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"transactions": str(tx), "cache": str(cache), "out_dir": str(tmp_path / "out")}
        ))
        code, err = _polab("ingest", "--config", cfg, *args)
        return code, err, cache

    def test_feed_row_is_an_unparsable_row_at_its_line(self, tmp_path):
        bad = self.ROW.replace(b"000001", b"0000\xff1")
        code, err, cache = self._ingest(tmp_path, [self.HEADER, self.ROW, bad, self.ROW])
        assert code == 4 and "Traceback" not in err
        assert "malformed share" in err and "first_lines=[(3, 'unparsable')]" in err
        assert not cache.exists()

    def test_feed_row_counts_toward_the_abort_share(self, tmp_path):
        bad = self.ROW.replace(b"000001", b"0000\xff1")
        lines = [self.HEADER, self.ROW, bad, self.ROW]
        code, err, _ = self._ingest(tmp_path, lines, "--set", "malformed_threshold=0.5")
        assert code == 0 and "Traceback" not in err
        _, _, rows = read_table(tmp_path / "out" / "ingest_report.csv")
        report = dict(rows)
        assert report["rows_cached"] == "2" and report["malformed_unparsable"] == "1"

    def test_feed_header_is_a_data_error(self, tmp_path):
        header = self.HEADER.replace(b"stock_id", b"stock\xffid")
        code, err, cache = self._ingest(tmp_path, [header, self.ROW])
        assert code == 4 and "Traceback" not in err
        assert "category=data" in err and "not UTF-8" in err
        assert not cache.exists()

    @pytest.mark.parametrize(
        "command,key", [("kl", "intraday_prices"), ("ratios", "capitalization"), ("emotion", "emotion")]
    )
    def test_side_file_is_a_data_error_naming_the_line(self, workdir, tmp_path, command, key):
        root, out, cfg_path = workdir
        cfg = json.loads(cfg_path.read_text())
        if key == "capitalization":
            raw = b"id,capitalization\n000001,1e9\n000002,2e9\n0000\xff3,3e9\n"
        else:
            raw = Path(cfg[key]).read_bytes()
            lines = raw.split(b"\n")
            lines[3] = lines[3].replace(b"-", b"\xff", 1)
            raw = b"\n".join(lines)
        bad = tmp_path / f"{key}.csv"
        bad.write_bytes(raw)
        cfg.update({key: str(bad), "cache": str(tmp_path / "none.plab"), "out_dir": str(tmp_path)})
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        code, err = _polab(command, "--config", tmp_path / "c.json")
        assert code == 4 and "Traceback" not in err
        assert "category=data" in err and f"{bad} line 4 is not UTF-8" in err

    def test_config_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"out_dir": "\xff"}')
        for command in ("ingest", "polarity"):
            code, err = _polab(command, "--config", cfg)
            assert code == 2 and "Traceback" not in err
            assert "category=config" in err and "not UTF-8" in err


def _ingested_market(root, seed):
    """A small market ingested and analysed once: its cache, memo and panel.csv."""
    cfg, tx, cache_path, out = _ingest_market(root, seed=seed)
    assert main(["polarity", "--config", str(cfg)]) == 0
    return SimpleNamespace(
        transactions=tx,
        raw=cache_path.read_bytes(),
        memo=panel_memo_path(cache_path, "bar").read_bytes(),
        panel=(out / "panel.csv").read_bytes(),
    )


@pytest.fixture(scope="module")
def two_markets(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    a, b = _ingested_market(root / "a", 17), _ingested_market(root / "b", 18)
    assert a.panel != b.panel
    return a, b


@pytest.fixture(scope="module")
def cached_market(two_markets):
    """A small ingested market and the panel.csv its cache gives."""
    a = two_markets[0]
    return a.raw, a.panel


@st.composite
def damage(draw, size):
    if draw(st.booleans()):
        return ("truncate", draw(st.integers(0, size - 1)))
    return ("flip", draw(st.integers(0, size - 1)), draw(st.integers(1, 255)))


def _polarity_on(tmp_path, raw: bytes, memo: bytes | None = None):
    cache_path = tmp_path / "cache.plab"
    cache_path.write_bytes(raw)
    panel_memo_path(cache_path, "bar").unlink(missing_ok=True)
    if memo is not None:
        panel_memo_path(cache_path, "bar").write_bytes(memo)
    out = tmp_path / "out"
    if out.exists():
        for p in out.iterdir():
            p.unlink()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cache": str(cache_path), "out_dir": str(out)}))
    return main(["polarity", "--config", str(cfg)]), out / "panel.csv"


def _damaged(raw: bytes, how) -> bytes:
    if how[0] == "truncate":
        return raw[: how[1]]
    buf = bytearray(raw)
    buf[how[1]] ^= how[2]
    return bytes(buf)


FUZZ = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestCorruptCache:
    @FUZZ
    @given(data=st.data())
    def test_damaged_cache_is_refused_or_harmless(self, cached_market, tmp_path, capsys, data):
        raw, panel = cached_market
        damaged = _damaged(raw, data.draw(damage(len(raw))))
        code, panel_path = _polarity_on(tmp_path, damaged)
        assert code == 4 or (code == 0 and panel_path.read_bytes() == panel)

    @FUZZ
    @given(data=st.data())
    def test_damage_without_trailer_is_never_a_traceback(
        self, cached_market, tmp_path, capsys, data
    ):
        # without its trailer no cache is read, damaged or not
        raw, _ = cached_market
        body = raw[:-TRAILER]
        capsys.readouterr()
        code, panel_path = _polarity_on(tmp_path, _damaged(body, data.draw(damage(len(body)))))
        assert code == 4 and not panel_path.exists()
        assert "category=data" in capsys.readouterr().err


def _memo_panel(cache_path):
    """The panel the memo beside ``cache_path`` holds; fails if it is unusable."""
    with mock.patch.object(cache_mod, "iter_blocks", side_effect=AssertionError("rebuilt")):
        return PolarityPanel.from_cache_memo(cache_path)


class TestPanelMemo:
    @FUZZ
    @given(data=st.data())
    def test_damaged_memo_is_rebuilt(self, two_markets, tmp_path, capsys, data):
        a = two_markets[0]
        damaged = _damaged(a.memo, data.draw(damage(len(a.memo))))
        cache_path = tmp_path / "cache.plab"
        code, panel_path = _polarity_on(tmp_path, a.raw, damaged)
        assert code == 0 and panel_path.read_bytes() == a.panel
        # the memo left behind is usable: rewritten, unless the damage was harmless
        assert _memo_panel(cache_path).equals(PolarityPanel.from_cache(cache_path))

    @FUZZ
    @given(data=st.data())
    def test_damaged_cache_is_refused_beside_a_valid_memo(
        self, two_markets, tmp_path, capsys, data
    ):
        a = two_markets[0]
        damaged = _damaged(a.raw, data.draw(damage(len(a.raw))))
        code, _ = _polarity_on(tmp_path, damaged, a.memo)
        assert code == 4
        assert "category=data" in capsys.readouterr().err

    def test_cache_is_read_once_on_a_miss_and_on_a_hit(self, two_markets, tmp_path, monkeypatch):
        # a miss is keyed by the trailer's record and builds through
        # iter_blocks, which checks the cache against it in the same read;
        # the CRC covers every byte before it
        a = two_markets[0]
        cache_path = tmp_path / "cache.plab"
        cache_path.write_bytes(a.raw)
        covered = len(a.raw) - SEAL
        fed = []

        def crc32(data, value=0):
            fed.append(len(data))
            return zlib.crc32(data, value)

        monkeypatch.setattr(cache_mod, "zlib", SimpleNamespace(crc32=crc32))
        built = PolarityPanel.from_cache_memo(cache_path)
        assert sum(fed) == covered
        assert panel_memo_path(cache_path, "bar").exists()
        fed.clear()
        assert _memo_panel(cache_path).equals(built)
        assert sum(fed) == covered

    def test_memo_of_another_cache_is_never_used(self, two_markets, tmp_path):
        a, b = two_markets
        code, panel_path = _polarity_on(tmp_path, a.raw, b.memo)
        assert code == 0 and panel_path.read_bytes() == a.panel
        code, panel_path = _polarity_on(tmp_path, b.raw, a.memo)
        assert code == 0 and panel_path.read_bytes() == b.panel

    def test_reingest_drops_the_memo(self, two_markets, tmp_path):
        a, b = two_markets
        code, panel_path = _polarity_on(tmp_path, a.raw, a.memo)
        assert code == 0 and panel_path.read_bytes() == a.panel
        cache_path = tmp_path / "cache.plab"
        cfg = tmp_path / "ingest.json"
        cfg.write_text(json.dumps({
            "transactions": str(b.transactions), "cache": str(cache_path), "out_dir": str(tmp_path),
        }))
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert not panel_memo_path(cache_path, "bar").exists()
        assert cache_path.read_bytes() == b.raw
        assert main(["polarity", "--config", str(cfg)]) == 0
        assert (tmp_path / "panel.csv").read_bytes() == b.panel


def _snapshot(root) -> dict:
    """Every file and directory under ``root``, with its size and mtime."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*")}


@pytest.fixture
def priced_market(tmp_path):
    """An ingested market with price and emotion files, and no panel memo yet."""
    root = tmp_path / "market"
    cfg, tx, _, _ = _ingest_market(root)
    (root / "emotion.csv").write_text("date,rjf\n2015-05-04,1.0\n2015-05-05,1.1\n")
    config = json.loads(cfg.read_text())
    config.update(
        eod_prices=str(tx.parent / "eod.csv"),
        intraday_prices=str(tx.parent / "intraday.csv"),
        emotion=str(root / "emotion.csv"),
    )
    return root, config


REQUIRED_INPUTS = {
    "ingest": ("transactions",),
    "market": ("eod_prices", "intraday_prices"),
    "kl": ("intraday_prices",),
    "granger": ("eod_prices", "intraday_prices"),
    "impact": ("intraday_prices",),
    "emotion": ("eod_prices", "intraday_prices", "emotion"),
}


class TestInputsCheckedFirst:
    @pytest.mark.parametrize(
        "command,key", [(c, k) for c, keys in REQUIRED_INPUTS.items() for k in keys]
    )
    @pytest.mark.parametrize("fault,code", [("unset", 2), ("absent", 3)])
    def test_before_any_read(self, priced_market, tmp_path, capsys, command, key, fault, code):
        # neither a cache, a memo nor a table is written: the check precedes
        # the panel, so a missing cache would not be ingested either
        root, config = priced_market
        config = dict(config)
        if fault == "unset":
            del config[key]
        else:
            config[key] = str(root / "absent.csv")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        before = _snapshot(root)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        if fault == "unset":
            assert f"category=config: '{key}' is required for {command}" in err
        else:
            assert f"category=io: configured {key} does not exist" in err
        assert _snapshot(root) == before


class TestOneCachePath:
    """Every command finds the cache at ``cache``, else ``<out_dir>/cache.plab``."""

    @staticmethod
    def config(root, **extra):
        files = _market_files(root)
        cfg = root / "c.json"
        cfg.write_text(json.dumps({
            "transactions": str(files.transactions),
            "intraday_prices": str(files.intraday_prices),
            "out_dir": str(root / "out"),
            **extra,
        }))
        return cfg, files.transactions

    def test_analysis_reads_the_cache_ingest_wrote(self, tmp_path):
        cfg, tx = self.config(tmp_path)
        cache_path = tmp_path / "out" / "cache.plab"
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert main(["polarity", "--config", str(cfg)]) == 0
        assert panel_memo_path(cache_path, "bar").exists()
        panel = (tmp_path / "out" / "panel.csv").read_bytes()
        tx.rename(tmp_path / "moved.csv")
        assert main(["polarity", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "panel.csv").read_bytes() == panel

    @pytest.mark.parametrize("command", ("polarity", "kl"))
    @pytest.mark.parametrize("cache_key", (False, True))
    def test_missing_cache_is_ingested_as_ingest_would(self, tmp_path, command, cache_key):
        extra = {"cache": str(tmp_path / "out" / "c.plab")} if cache_key else {}
        cfg, _ = self.config(tmp_path, **extra)
        out = tmp_path / "out"
        outputs = []
        for steps in (("ingest", command), (command,)):
            shutil.rmtree(out, ignore_errors=True)
            for step in steps:
                assert main([step, "--config", str(cfg)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        name = "c.plab" if cache_key else "cache.plab"
        assert {name, "ingest_report.csv"} <= set(outputs[1])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cache_key", (False, True))
    def test_out_moves_the_default_cache(self, tmp_path, capsys, cache_key):
        # --out overrides out_dir, so the default cache moves with the tables;
        # a configured cache stays where it is
        extra = {"cache": str(tmp_path / "out" / "c.plab")} if cache_key else {}
        cfg, _ = self.config(tmp_path, **extra)
        cache_path = tmp_path / "out" / ("c.plab" if cache_key else "cache.plab")
        assert main(["ingest", "--config", str(cfg)]) == 0
        before = cache_path.read_bytes(), cache_path.stat().st_mtime_ns
        alt = tmp_path / "alt"
        capsys.readouterr()
        assert main(["polarity", "--config", str(cfg), "--out", str(alt)]) == 0
        printed = capsys.readouterr().out
        written = {p.name for p in alt.iterdir()}
        assert (cache_path.read_bytes(), cache_path.stat().st_mtime_ns) == before
        assert "panel.csv" in written
        if cache_key:
            assert "ingest:" not in printed
            assert not written & {"c.plab", "cache.plab", "ingest_report.csv"}
        else:
            assert "ingest: " in printed and str(alt / "cache.plab") in printed
            assert {"cache.plab", "ingest_report.csv"} <= written

    @pytest.mark.parametrize("cache_key", (False, True))
    def test_no_cache_and_no_feed_is_a_config_error(self, tmp_path, capsys, cache_key):
        cache_path = tmp_path / ("c.plab" if cache_key else "out/cache.plab")
        config = {"out_dir": str(tmp_path / "out")}
        if cache_key:
            config["cache"] = str(cache_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["polarity", "--config", str(cfg)]) == 2
        assert f"category=config: no cache at {cache_path}" in capsys.readouterr().err
        assert not cache_path.exists() and not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("state", ("intact", "memo", "bar flipped"))
    def test_cache_without_its_trailer_is_refused(self, tmp_path, capsys, state):
        cfg, tx, cache_path, out = _ingest_market(tmp_path)
        if state == "memo":
            assert main(["polarity", "--config", str(cfg)]) == 0
            (out / "panel.csv").unlink()
        elif state == "bar flipped":  # the first row's bar: structure still valid
            raw = bytearray(cache_path.read_bytes())
            raw[32] ^= 1
            cache_path.write_bytes(bytes(raw))
        cache_path.write_bytes(cache_path.read_bytes()[:-TRAILER])
        for config in (json.loads(cfg.read_text()), {"cache": str(cache_path), "out_dir": str(out)}):
            cfg.write_text(json.dumps(config))
            capsys.readouterr()
            assert main(["polarity", "--config", str(cfg)]) == 4
            err = capsys.readouterr().err
            assert "category=data: bad trailer magic" in err and f"in {cache_path}:" in err
            assert "re-run `polab ingest`" in err
            assert not (out / "panel.csv").exists()


def test_granger_vs_prev_minute(workdir, tmp_path):
    from polab import coupling
    from polab.config import RunConfig, read_config
    from polab.marketdata.prices import load_eod_prices, load_intraday_prices
    from polab.panel import market_polarity_series
    from polab.returns import build_return_series
    from polab.tables import fmt

    root, out, cfg = workdir
    flag, override = tmp_path / "flag", tmp_path / "set"
    assert run(cfg, "granger", "--out", str(flag), "--return-mode", "vs-prev-minute") == 0
    assert run(cfg, "granger", "--out", str(override), "--set", "return_mode=vs-prev-minute") == 0
    meta, _, rows = read_table(flag / "granger_days.csv")
    assert meta["return_mode"] == "vs-prev-minute"

    rc = RunConfig.from_dict(read_config(cfg))
    panel = PolarityPanel.from_cache(rc.cache)
    index = build_return_series(
        rc.index_id,
        load_eod_prices(rc.eod_prices)[rc.index_id],
        load_intraday_prices(rc.intraday_prices, ids=(rc.index_id,))[rc.index_id],
    )
    mp = market_polarity_series(panel)
    days = {d: (mp[j], index.intraday_log[d]) for j, d in enumerate(panel.dates)
            if d in index.intraday_log}
    summary = coupling.granger_pass_rates(
        days, max_lag=rc.max_lag, min_minutes=rc.min_granger_minutes
    )
    want = [
        [fmt(v) for v in (r.trade_date, r.direction, r.lag, r.f_stat, r.p_value, r.reject_at_5pct)]
        for r in summary.results
    ]
    assert rows and rows == want
    tables = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (flag, override)]
    assert tables[0] == tables[1]


#: (buy, sell) man-times of eight stocks whose polarities numpy's pairwise
#: mean sums to exactly 0.0, and a stock-by-stock sum does not
EIGHT_STOCK_MINUTE = [(1, 2), (1, 3), (2, 2), (2, 2), (2, 1), (1, 2), (2, 1), (3, 1)]


def test_index_minimum_reads_the_market_minutes_series(tmp_path):
    # bar 3 holds the eight-stock minute and the index's daily low; one
    # stock trades the other bars, so the minute correlation is defined
    minutes = {1: [(2, 1)], 2: [(1, 3)], 3: EIGHT_STOCK_MINUTE, 4: [(3, 1)], 5: [(1, 2)]}
    lines = ["trade_date,stock_id,time,price,volume,buy_serial,sell_serial"]
    for bar, stocks in minutes.items():
        for i, (buy, sell) in enumerate(stocks):
            for k in range(max(buy, sell)):
                b, s = 100 * bar + min(k, buy - 1), 100 * bar + 50 + min(k, sell - 1)
                lines.append(f"2015-05-05,S{i},09:{29 + bar}:30.000,10.0,100,{b},{s}")
    (tmp_path / "tx.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "eod.csv").write_text(
        "date,id,close\n2015-05-04,SZSC,100.0\n2015-05-05,SZSC,99.8\n"
    )
    prices = (100.0, 99.5, 98.0, 99.0, 99.8)
    (tmp_path / "intraday.csv").write_text(
        "date,id,bar_or_time,last_price\n"
        + "".join(f"2015-05-05,SZSC,{bar},{p}\n" for bar, p in enumerate(prices, 1))
    )
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "transactions": str(tmp_path / "tx.csv"),
        "eod_prices": str(tmp_path / "eod.csv"),
        "intraday_prices": str(tmp_path / "intraday.csv"),
        "out_dir": str(out),
    }))
    assert main(["market", "--config", str(cfg)]) == 0
    _, _, minute_rows = read_table(out / "market_minutes.csv")
    _, _, index_min_rows = read_table(out / "daily_polarity_at_index_min.csv")
    assert index_min_rows == [minute_rows[2][:3]] == [["2015-05-05", "3", "6.93889390391e-18"]]


def test_tables_are_utf8_in_an_ascii_locale(tmp_path):
    # the parser and the cache take any UTF-8 stock id, so every writer must
    # too, whatever encoding the locale prefers
    rows = [
        f"2015-05-04,{stock},09:{31 + i}:00.000,10.0,100,{i + 1},{i + 2 + len(stock)}"
        for i in range(8) for stock in ("000002", "深A001")
    ]
    feed = tmp_path / "tx.csv"
    feed.write_text("\n".join([TestNotUtf8.HEADER.decode()] + rows) + "\n", encoding="utf-8")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"transactions": str(feed), "out_dir": str(tmp_path / "out")}))
    locales = {
        "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf-8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
    }
    base = {k: v for k, v in _blas_env().items()
            if k != "PYTHONIOENCODING" and not k.startswith(("LANG", "LC_"))}
    outputs = {}
    for name, variables in locales.items():
        env = {**base, **variables}
        code = "import codecs, locale; print(codecs.lookup(locale.getpreferredencoding(False)).name)"
        assert _last_line(code, env) == name
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        for command in ("ingest", "polarity", "ratios"):
            done = subprocess.run(
                [sys.executable, "-m", "polab.cli", command, "--config", str(cfg)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert "深A001,2015-05-04,".encode("utf-8") in outputs["ascii"]["panel.csv"]
    assert outputs["ascii"] == outputs["utf-8"]


def test_ids_that_hold_a_comma_or_a_quote_are_quoted(tmp_path):
    # a quoted feed field is a valid stock id; every table that prints it
    # quotes it as RFC 4180 says, and a plain id keeps its bytes
    ids = ("00,02", "000001", 'a"b')
    feed = tmp_path / "tx.csv"
    feed.write_text("\n".join(
        ["trade_date,stock_id,time,price,volume,buy_serial,sell_serial"]
        + [f'2015-05-04,"{s.replace(chr(34), 2 * chr(34))}",09:3{i}:00.000,10.0,100,{i + 1},9'
           for i, s in enumerate(ids)]
    ) + "\n")
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"transactions": str(feed), "out_dir": str(out)}))
    for command in ("polarity", "ratios"):
        assert main([command, "--config", str(cfg)]) == 0
    with open(out / "panel.csv", newline="") as fh:
        panel = list(csv.reader(fh))
    assert all(len(row) == 6 for row in panel)
    assert sorted(row[0] for row in panel[1:]) == sorted(ids)
    assert (out / "panel.csv").read_bytes().splitlines()[1:] == [
        b'"00,02",2015-05-04,1,1,1,0', b"000001,2015-05-04,2,1,1,0", b'"a""b",2015-05-04,3,1,1,0',
    ]
    assert read_text(out / "panel.csv").stocks == sorted(ids)
    _, columns, rows = read_table(out / "direction_ratios.csv")
    assert all(len(row) == len(columns) for row in rows)
    assert {row[0] for row in rows} == set(ids)


class TestOneDateRule:
    """Config and ``synth`` dates follow the feed's rule on every Python."""

    @pytest.mark.parametrize("value", ("20150612", "2015-06-123", "2015-6-12", "2015-06-31"))
    def test_config_date(self, workdir, tmp_path, capsys, value):
        out = tmp_path / "out"
        args = ["--out", str(out), "--set", f'pre_crash_end="{value}"']
        assert run(workdir[2], "polarity", *args) == 2
        assert f"pre_crash_end must be a YYYY-MM-DD date: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_date_separators_are_not_read(self):
        from polab.config import RunConfig

        slashed = RunConfig.from_dict({"pre_crash_end": "2015/06/12"})
        assert slashed.config_hash() == RunConfig.from_dict({"pre_crash_end": "2015-06-12"}).config_hash()

    @pytest.mark.parametrize(
        "synth",
        [
            {"start_date": "20150504", "regimes": [FLOW]},
            {"start_date": "2015-05-041", "regimes": [FLOW]},
            {"regimes": [{**FLOW, "dates": ["20150505"]}]},
            {"regimes": [{**FLOW, "dates": ["2015-05-051"]}]},
        ],
        ids=["start-8-digits", "start-trailing-digit", "regime-8-digits", "regime-trailing-digit"],
    )
    def test_synth_date(self, tmp_path, capsys, synth):
        out = tmp_path / "out"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": str(out), "synth": synth}))
        assert main(["synth", "--config", str(cfg)]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not out.exists()


def test_threads_is_an_unknown_config_key(tmp_path, capsys):
    # the key changed nothing and is gone; --threads is still accepted
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"threads": 2, "out_dir": str(tmp_path / "out")}))
    assert main(["polarity", "--config", str(cfg)]) == 2
    assert "category=config: unknown config keys: ['threads']" in capsys.readouterr().err


#: the readers an analysis may call through ``polab.cli``
READERS = (
    "load_intraday_prices", "load_intraday_rows", "load_eod_prices", "load_capitalization",
    "load_emotion",
)


@pytest.mark.parametrize("command", ANALYSES)
def test_each_analysis_reads_each_input_once(workdir, tmp_path, command):
    from collections import Counter

    from polab import cli

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    caps = tmp_path / "caps.csv"
    caps.write_text("id,capitalization\n000001,1e9\n")
    memo = counted("from_cache_memo", PolarityPanel.from_cache_memo)
    with contextlib.ExitStack() as stack:
        for name in READERS:
            stack.enter_context(mock.patch.object(cli, name, counted(name, getattr(cli, name))))
        stack.enter_context(mock.patch.object(PolarityPanel, "from_cache_memo", staticmethod(memo)))
        args = ("--out", str(tmp_path / "out"), "--set", f"capitalization={caps}")
        assert run(workdir[2], command, *args) == 0
    assert calls["from_cache_memo"] == 1
    assert max(calls.values()) == 1, calls


def test_impact_frees_the_price_rows_before_it_groups(workdir, tmp_path):
    # the run holds no input itself, so impact's ``del intraday`` gives the
    # price rows back before its pairs are copied by period
    import weakref

    from polab import cli, coupling

    rows, seen = [], []
    load, groups = cli.load_intraday_rows, coupling.price_impact_groups

    def loading(*args, **kwargs):
        loaded = load(*args, **kwargs)
        rows.append(weakref.ref(loaded[3]))
        return loaded

    def grouping(*args, **kwargs):
        seen.append([ref() is None for ref in rows])
        return groups(*args, **kwargs)

    with mock.patch.object(cli, "load_intraday_rows", loading), \
            mock.patch.object(coupling, "price_impact_groups", grouping):
        assert run(workdir[2], "impact", "--out", str(tmp_path)) == 0
    assert len(rows) == 1 and seen and all(dead == [True] for dead in seen)
