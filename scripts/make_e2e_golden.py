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
checkout.

``bench_tiny.json`` holds the SHA-256 of each artifact of ``all`` on the three
benchmark workloads, generated by ``bench/gen.py`` at the small scales of
``bench/test_bench.py`` (``TINY``) with seed 3. The ``paper_scale`` catalog
comes from an ATT&CK-shaped bundle of 870 KB, which the e2e fixture does not
reach. Each run starts in its workload's directory with relative paths, so
its run_manifest.json is the same on every checkout and is pinned too.

A change meant to alter an output regenerates these files and shows the diff
in review:

    python3 scripts/make_e2e_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
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

DIGESTS = "bench_tiny.json"
TINY = {"paper_scale": 0.1, "dedup_heavy": 0.01, "pair_dense_stagewise": 0.01}  # bench/test_bench.py's
TINY_SEED = 3


def tiny_digests(env: dict) -> dict[str, dict[str, str]]:
    """{workload: {artifact: SHA-256}} of ``all`` on each benchmark workload at its ``TINY`` scale."""
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, scale in TINY.items():
            work = Path(tmp) / workload
            gen.generate(workload, TINY_SEED, work / "inputs", scale)
            subprocess.run([sys.executable, "-m", "ttpminer", "all", "--config", "inputs/config.cfg",
                            "--output-dir", "art"], cwd=work, env=env, check=True, capture_output=True)
            digests[workload] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                                 for path in sorted((work / "art").iterdir())}
    return digests


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
    digests = json.dumps(tiny_digests(env), indent=2, sort_keys=True)
    (OUT_DIR / DIGESTS).write_text(digests + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
