import datetime as dt
import os

import pytest
from hypothesis import settings

from polab.synth import RegimeSpec, generate

# Examples per property test that sets no count of its own, such as the
# parser oracle: 120 by default, 1,000 under HYPOTHESIS_PROFILE=ci.
settings.register_profile("default", max_examples=120)
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_scenario(tmp_path_factory):
    """A compact two-day, twelve-stock Poisson scenario shared across tests."""
    out = tmp_path_factory.mktemp("scenario")
    regime = RegimeSpec(
        "flow",
        buy_rate=1.1,
        sell_rate=0.9,
        mean_fills=1.6,
        coupling=1.5,
        bars=tuple(range(1, 238, 3)),
    )
    files, truth = generate(
        regime,
        n_stocks=12,
        dates=[dt.date(2015, 5, 4), dt.date(2015, 5, 5)],
        seed=99,
        out_dir=out,
    )
    return files, truth


@pytest.fixture(scope="session")
def small_panel(small_scenario):
    from polab.panel import PolarityPanel

    files, _ = small_scenario
    return PolarityPanel.from_transactions(files.transactions)
