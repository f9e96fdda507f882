"""Check that two source trees write the same files on the bench markets.

    python3 tools/same_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts. The
inputs of the benchmark's ``paper_dense`` (seed 9901) and ``paper_wide``
(seed 9902) markets are built once each in a temporary directory, with
``paperbench/workloads.build_inputs`` and BASE_SRC's generator. Then each
tree in turn runs ``ingest``, the ten analyses and the day-scope
``polarity`` on them, at the same paths, each step in a fresh interpreter.
Every file a tree's steps write (the cache, the panel memos, every table)
is hashed with SHA-256 and removed before the other tree runs. Prints each
file whose digest differs, or that only one tree wrote, and exits 1 if
there is any, or if a step fails; else 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: market -> seed
MARKETS = {"paper_dense": 9901, "paper_wide": 9902}
#: one polab command line, from the arguments after ``-c``
POLAB = "import sys; from polab.cli import main; sys.exit(main(sys.argv[1:]))"


def steps(inputs) -> list:
    """The polab argument lists of one run, in order."""
    from workloads import ANALYSES, DAY_SCOPE

    _, command, extra = DAY_SCOPE
    config = ["--config", str(inputs.config)]
    return [[c, *config] for c in ("ingest", *ANALYSES)] + [
        [command, *config, *(a.format(root=inputs.root) for a in extra)]
    ]


def run_tree(src: Path, inputs) -> dict:
    """{path under the market's root: SHA-256} of every file the tree's
    steps write; the files are removed again."""
    before = {p for p in inputs.root.rglob("*")}
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for args in steps(inputs):
        done = subprocess.run(
            [sys.executable, "-c", POLAB, *args], env=env, cwd=inputs.root,
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"{src}: `polab {' '.join(args)}` exited {done.returncode}:\n{done.stderr}")
    written = sorted(p for p in inputs.root.rglob("*") if p not in before)
    digests = {
        str(p.relative_to(inputs.root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in written if p.is_file()
    }
    for p in reversed(written):  # a directory's files come after it
        if p.is_dir():
            p.rmdir()
        else:
            p.unlink()
    return digests


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, head = (Path(a).resolve() for a in argv)
    sys.path[:0] = [str(base), str(ROOT / "paperbench")]
    from workloads import WORKLOADS, build_inputs

    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as tmp:
        for market, seed in MARKETS.items():
            inputs = build_inputs(WORKLOADS[market], seed, Path(tmp) / market)
            want, got = run_tree(base, inputs), run_tree(head, inputs)
            for name in sorted(want.keys() | got.keys()):
                if want.get(name) != got.get(name):
                    differ += 1
                    print(f"{market}: {name} differs ({want.get(name)} vs {got.get(name)})")
            same = sum(want.get(name) == digest for name, digest in got.items())
            print(f"{market}: {same} of {len(want.keys() | got.keys())} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
