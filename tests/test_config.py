"""The config hash: a pinned default, and hashlib's digest wherever it comes from.

This module imports neither numpy nor pytest, so it also runs by hand under
an interpreter that has neither, which exercises the other builtin module:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_config as t; [getattr(t, n)() for n in dir(t) if n.startswith('test_')]"
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import polab
from polab.config import RunConfig

#: overrides of every kind: periods, a tuple, a nested dict, and the two
#: keys that are left out of the hash
OVERRIDES = {
    "pre_crash_end": "2015-06-01",
    "crash_end": "2015-07-20",
    "bins": 25,
    "pseudo_count": 0.25,
    "serial_scope": "day",
    "columns": ["trade_date", "stock_id", "time", "price", "volume", "sell_serial", "buy_serial"],
    "synth": {"n_stocks": 3, "regimes": [{"name": "flow", "buy_rate": 1.0}]},
    "out_dir": "elsewhere",
    "threads": 2,
}


def test_default_config_hash_is_pinned():
    # every table's header records it: the same config keeps the same hash
    assert RunConfig().config_hash() == "337edff680ed"


def test_hash_is_sha256_of_the_canonical_json():
    cfg = RunConfig.from_dict(OVERRIDES)
    want = hashlib.sha256(cfg.to_canonical_json().encode()).hexdigest()[:12]
    assert cfg.config_hash() == want != RunConfig().config_hash()
    rest = {k: v for k, v in OVERRIDES.items() if k not in ("out_dir", "threads")}
    assert RunConfig.from_dict(rest).config_hash() == want


def test_hash_without_a_builtin_sha256_is_hashlibs():
    # an interpreter built without _sha2 and _sha256 falls back to hashlib
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from polab.config import RunConfig, sha256\n"
        "print(sha256.__module__, RunConfig().config_hash())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(polab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    module, digest = out.stdout.split()
    assert module not in ("_sha2", "_sha256")
    assert digest == "337edff680ed"
