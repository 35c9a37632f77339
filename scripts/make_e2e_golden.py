#!/usr/bin/env python3
"""Write the golden outputs of the end-to-end fixture.

Runs ``python -m ttpminer`` on tests/fixtures/e2e/ and keeps each run's output
directory under tests/fixtures/e2e/golden/<run>/:

- ``all``: every stage, CSV tables;
- ``all_json``: every stage, ``--format json``;
- ``sample_pairs``: ``ingest``, then ``corpus --sample-pairs``;
- ``flags``: every stage with each option that changes a result: ``--yates``,
  ``--universe corpus``, ``--conventional-normalization``, ``--parent-match``;
- ``graph``: every stage, then ``graph --relation follow --dot --top-k 3``,
  its top-k listing kept as ``stdout.txt``.

Each command runs from the repository root with the config path relative to
it, so the input paths that run_manifest.json records are the same on every
checkout. A change meant to alter an output regenerates these files and shows
the diff in review:

    python3 scripts/make_e2e_golden.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "tests" / "fixtures" / "e2e" / "golden"
CONFIG = "tests/fixtures/e2e/config.cfg"
SAMPLE = "sample_pairs.csv"  # the labeling template, written into the run's output directory
DOT = "follow.dot"  # the DOT export, written there too
STDOUT = "stdout.txt"  # what a run's commands print, kept when they print anything

RUNS = {
    "all": [["all"]],
    "all_json": [["all", "--format", "json"]],
    "sample_pairs": [["ingest"], ["corpus", "--sample-pairs", SAMPLE]],
    "flags": [["all", "--yates", "--universe", "corpus", "--conventional-normalization", "--parent-match"]],
    "graph": [["all"], ["graph", "--relation", "follow", "--dot", DOT, "--top-k", "3"]],
}


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for run, commands in RUNS.items():
        out = OUT_DIR / run
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        stdout = b""
        for command, *flags in commands:
            flags = [str(out / flag) if flag in (SAMPLE, DOT) else flag for flag in flags]
            stdout += subprocess.run([sys.executable, "-m", "ttpminer", command, "--config", CONFIG, *flags,
                                      "--output-dir", str(out)], cwd=ROOT, env=env, check=True,
                                     capture_output=True).stdout
        if stdout:
            (out / STDOUT).write_bytes(stdout)


if __name__ == "__main__":
    main()
