"""Each output check passes on a clean paper run and rejects a corrupted table.

Run from the repository root:  python3 -m pytest -q paperbench/tests
"""

from __future__ import annotations

import datetime as dt
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
from polab.cli import main as polab  # noqa: E402
from polab.synth import RegimeSpec  # noqa: E402
from workloads import ANALYSES, DAY_SCOPE, THREADS2, Workload, build_inputs  # noqa: E402

SMALL = Workload(
    "small",
    n_stocks=12,
    dates=(dt.date(2015, 6, 10), dt.date(2015, 6, 11), dt.date(2015, 6, 12), dt.date(2015, 6, 15)),
    regimes=(RegimeSpec("flow", buy_rate=2.5, sell_rate=2.5, coupling=2.0),),
    offgrid_per_day=3,
    plant_malformed=True,
    extra_steps=(DAY_SCOPE,),
)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run") / "inputs"
    inputs = build_inputs(SMALL, seed=5, root=root)
    cfg = str(inputs.config)
    assert polab(["ingest", "--config", cfg]) == 0
    for cmd in ANALYSES:
        assert polab([cmd, "--config", cfg]) == 0
    for _, cmd, extra in (DAY_SCOPE, THREADS2):
        assert polab([cmd, "--config", cfg, *(a.format(root=root) for a in extra)]) == 0
    return inputs


@pytest.fixture
def run_copy(clean_run, tmp_path):
    """A private copy of the clean outputs that a test may corrupt."""
    out = tmp_path / "out"
    shutil.copytree(clean_run.out_dir, out)
    for name in ("out_day", "out_threads2"):
        shutil.copytree(clean_run.root / name, tmp_path / name)
    return checks.expected_from(clean_run), out


def test_planted_inputs(clean_run):
    assert sum(clean_run.malformed.values()) >= 4
    assert all(n > 0 for n in clean_run.malformed.values())
    assert clean_run.offgrid_rows == 12


@pytest.mark.parametrize("step", sorted(checks.CHECKS))
def test_clean_outputs_pass(step, run_copy):
    e, out = run_copy
    assert checks.failed_checks(step, e, out) == []


def edit(path: Path, row: int, column: str, change) -> None:
    """Replace one cell of a polab table with ``change(old text)``."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    fields = lines[head + 1 + row].split(",")
    fields[col] = change(fields[col])
    lines[head + 1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def drop_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    del lines[head + 1 + row]
    path.write_text("\n".join(lines) + "\n")


def plus(delta):
    return lambda text: repr(float(text) + delta) if "." in text or "e" in text else str(int(text) + delta)


CORRUPTIONS = {
    checks.check_ingest_report: lambda out: edit(out / "ingest_report.csv", 2, "value", plus(1)),
    checks.check_panel: lambda out: edit(out / "panel.csv", 0, "buy", plus(1)),
    checks.check_panel_day_scope: lambda out: drop_row(out.parent / "out_day" / "panel.csv", 5),
    checks.check_panel_threads2: lambda out: edit(
        out.parent / "out_threads2" / "panel.csv", 2, "sell", plus(-1)
    ),
    checks.check_polarity_moments: lambda out: edit(out / "polarity_moments.csv", 0, "std", plus(1e-6)),
    checks.check_ratios: lambda out: edit(out / "direction_ratios.csv", 0, "pos_ratio", plus(0.01)),
    checks.check_flips: lambda out: edit(out / "flip_daily.csv", 3, "flip_count", plus(1)),
    checks.check_run_lengths: lambda out: edit(out / "run_lengths.csv", 7, "length", plus(1)),
    checks.check_tail_fits: lambda out: edit(out / "tail_fits.csv", 0, "n_total", plus(-1)),
    checks.check_market_minutes: lambda out: edit(out / "market_minutes.csv", 9, "market_polarity", plus(1e-3)),
    checks.check_index_min: lambda out: edit(
        out / "daily_polarity_at_index_min.csv", 1, "bar", lambda b: str(int(b) % 237 + 1)
    ),
    checks.check_market_summary: lambda out: edit(out / "market_summary.csv", 0, "value", lambda _: "1.5"),
    checks.check_corr_hists: lambda out: edit(out / "corr_hists.csv", 4, "probability", plus(1e-3)),
    checks.check_kl: lambda out: edit(out / "corr_kl.csv", 0, "kl_vs_prev_day", lambda _: "-0.01"),
    checks.check_granger: lambda out: edit(out / "granger_days.csv", 0, "p_value", lambda _: "1.5"),
    checks.check_impact: lambda out: edit(out / "price_impact.csv", 0, "n", plus(1)),
    checks.check_emotion: lambda out: edit(out / "emotion_correlation.csv", 0, "pearson_r", plus(0.01)),
}


def test_every_check_has_a_corruption():
    assert set(CORRUPTIONS) == {c for cs in checks.CHECKS.values() for c in cs}


@pytest.mark.parametrize("check", list(CORRUPTIONS), ids=lambda c: c.__name__)
def test_check_rejects_corrupted_output(check, run_copy):
    e, out = run_copy
    check(e, out)  # clean copy passes
    CORRUPTIONS[check](out)
    with pytest.raises(checks.CheckError):
        check(e, out)
