"""Benchmark ttpminer end to end, as a user runs it, on seeded inputs.

    python3 bench/run.py                          # all three workloads
    python3 bench/run.py --workload paper_scale --seed 1 --seconds 38 --trace 0

Each ttpminer invocation is a fresh ``python -m ttpminer`` child, one at a
time. A run generates the workload's inputs from the seed, then repeats the
workload for ``--seconds``; every repetition is preceded by fresh
``import ttpminer.cli`` processes, so that start-up is sampled throughout
the run. It reports medians over the repetitions and start-up samples. Afterwards the artifacts are
checked against independent recomputations (``checks.py``) and for byte
identity across the repetitions.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``wall_s``, ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` each
invocation runs under ``-X importtime`` and ``trace_child.py`` instead, and
the line holds the per-layer metrics, summed over one repetition's
invocations and reported as medians over the repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402

STAGES = ("ingest", "corpus", "prevalence", "mine", "graph", "eval")
COMMANDS = {
    "paper_scale": ("all",),
    "dedup_heavy": ("all",),
    "pair_dense_stagewise": STAGES,
}
# (start-up, calibration) samples taken before each repetition: enough of
# each for a steady median, while at least two repetitions fit in a run.
SAMPLES = {"paper_scale": (1, 1), "dedup_heavy": (2, 2), "pair_dense_stagewise": (2, 4)}
REQUIRED = (ROOT / "src" / "ttpminer" / "cli.py", ROOT / "tests" / "oracles.py",
            ROOT / "tests" / "fixtures" / "attack_v12_shape_bundle.json")
# A fixed piece of work that runs no ttpminer code: stdlib imports, JSON and
# pair counting, about 0.35 s in a fresh interpreter. The host's speed drifts
# by up to a third over minutes and moves this work and ttpminer's alike, so
# timings are reported at a reference speed: raw seconds times
# REFERENCE_S / (the median of this work's samples in the same run).
CALIBRATION = """\
import argparse, asyncio, csv, decimal, email.parser, http.client, json, logging
import statistics, tarfile, unittest, xml.etree.ElementTree, zipfile
import collections, itertools
rows = [{"k": f"r{i:05d}", "items": sorted({(i * 7 + j * 13) % 97 for j in range(12)})} for i in range(10000)]
rows = json.loads(json.dumps(rows))
counts = collections.Counter()
for r in rows:
    counts.update(itertools.combinations(r["items"], 2))
"""
REFERENCE_S = 0.35
IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, float, int]:
    """Run one child to its end: (start, end, peak RSS in MB, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, usage.ru_maxrss / 1024.0, proc.returncode


def artifact_digests(art: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(art.iterdir()) if p.is_file()}


def import_times(log: Path) -> tuple[float, float]:
    """Cumulative seconds of ``import ttpminer.cli`` and of the scipy modules
    it pulls in, from the ``-X importtime`` lines between the tracer's markers."""
    entries, inside = [], False
    for line in log.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith("bench-trace: import"):
            inside = line.endswith("start")
        elif inside and (match := IMPORTTIME_RE.match(line)):
            depth = (len(match.group(3)) - 1) // 2
            entries.append((depth, match.group(4), int(match.group(2)) / 1e6))
    total = scipy = 0.0
    # importtime prints a module after its children; walking backwards meets
    # each parent first, so ``path[depth - 1]`` is the parent of an entry.
    path: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del path[depth:]
        path.append(name)
        if depth == 0:
            total += cumulative
        if name.split(".")[0] == "scipy" and not any(p.split(".")[0] == "scipy" for p in path[:-1]):
            scipy += cumulative
    return total, scipy


def layer_metrics(docs: list[dict], import_s: float, scipy_s: float) -> dict[str, float]:
    """Per-layer metrics of one repetition from its invocations' span files.

    A span's self time is its duration minus that of its direct children;
    the wrapped calls of one process run on one thread, so children do not
    overlap one another.
    """
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child_time in zip(spans, covered):
            if name != "bench.extra":
                selfs[name] = selfs.get(name, 0.0) + (end - start - child_time)
                calls[name] = calls.get(name, 0) + 1
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def s(*names: str) -> float:
        return sum(selfs.get(name, 0.0) for name in names)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    metrics = {"cli.import_s": import_s, "cli.import_scipy_s": scipy_s}
    metrics.update({f"cli.stage_{stage}_s": s(f"cli.stage_{stage}") for stage in STAGES})
    metrics.update({
        "stix_ingest.parse_bundle_s": s("stix_ingest.parse_bundle"),
        "stix_ingest.catalog_to_json_s": s("stix_ingest.catalog_to_json"),
        "stix_ingest.catalog_from_json_s": s("stix_ingest.catalog_from_json"),
        "stix_ingest.catalog_from_json_calls": calls.get("stix_ingest.catalog_from_json", 0),
        "stix_ingest.citations": counts.get("citations", 0),
        "corpus_builder.load_manifest_s": s("corpus_builder.load_manifest"),
        "corpus_builder.find_candidate_pairs_s": s("corpus_builder.find_candidate_pairs"),
        "corpus_builder.candidate_pairs": counts.get("candidate_pairs", 0),
        "corpus_builder.merge_edge_ratio": ratio(counts.get("merge_edges", 0), counts.get("candidate_pairs", 0)),
        "corpus_builder.merge_duplicates_s": s("corpus_builder.merge_duplicates"),
        "corpus_builder.technique_sets": counts.get("technique_sets", 0),
        "corpus_builder.corpus_to_json_s": s("corpus_builder.corpus_to_json"),
        "corpus_builder.corpus_from_json_s": s("corpus_builder.corpus_from_json"),
        "corpus_builder.corpus_from_json_calls": calls.get("corpus_builder.corpus_from_json", 0),
        "prevalence.yearly_series_s": s("prevalence.yearly_series"),
        "prevalence.mann_kendall_s": s("prevalence.mann_kendall"),
        "prevalence.mann_kendall_calls": calls.get("prevalence.mann_kendall", 0),
        "prevalence.build_matrix_s": s("prevalence.build_matrix"),
        "rule_miner.mine_pairs_s": s("rule_miner.mine_pairs"),
        "rule_miner.filter_pairs_s": s("rule_miner.filter_pairs"),
        "rule_miner.candidates": counts.get("candidates", 0),
        "rule_miner.recurring_pairs": counts.get("recurring_pairs", 0),
        "rule_miner.kept_ratio": ratio(counts.get("recurring_pairs", 0), counts.get("candidates", 0)),
        "graph_analysis.build_graph_s": s("graph_analysis.build_graph"),
        "graph_analysis.centrality_s": s("graph_analysis.degree_centrality", "graph_analysis.directed_centrality",
                                         "graph_analysis.partner_count"),
        "eval_harness.load_unseen_manifest_s": s("eval_harness.load_unseen_manifest"),
        "eval_harness.evaluate_s": s("eval_harness.evaluate"),
        "artifacts.write_s": s("artifacts.write_matrix", "artifacts.write_prevalent", "artifacts.write_pairs",
                               "artifacts.write_centrality"),
        "artifacts.read_pairs_s": s("artifacts.read_pairs"),
        "artifacts.read_prevalent_s": s("artifacts.read_prevalent"),
        "io_utils.atomic_write_text_s": s("io_utils.atomic_write_text"),
        "io_utils.bytes_written": counts.get("bytes_written", 0),
        "io_utils.sha256_file_s": s("io_utils.sha256_file"),
    })
    return metrics


UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio", "bytes_written": "bytes"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def pair_visits(art: Path) -> int:
    """Sum over technique-sets of C(|set|, 2): the pairs mining visits."""
    corpus = json.loads((art / "corpus.json").read_text(encoding="utf-8"))
    return sum(len(ts["techniques"]) * (len(ts["techniques"]) - 1) // 2 for ts in corpus)


class Run:
    """One workload for one seed: its inputs, repetitions and tallies."""

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self.workload = workload
        self.work = HERE / "out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.generated = gen.generate(workload, seed, self.work / "inputs", scale)
        self.art = self.work / "art"
        self.logs = self.work / "logs"
        self.logs.mkdir(parents=True)
        self.env = child_env(self.work)
        self.invocations = 0
        self.failed_invocations = 0
        self.problems: list[str] = []
        self.trends: dict[str, list] = {}  # technique -> [S, p] seen by the traced run

    def rel(self, path: Path) -> str:
        return path.relative_to(ROOT).as_posix()

    def invoke(self, argv: list[str], log_name: str) -> tuple[float, float, float]:
        log = self.logs / f"{log_name}.log"
        start, end, rss, code = spawn(argv, self.env, log)
        self.invocations += 1
        if code != 0:
            self.failed_invocations += 1
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{log_name} exited {code}: {' | '.join(tail)}")
        return start, end, rss

    def calibration_sample(self) -> float:
        start, end, _ = self.invoke([sys.executable, "-c", CALIBRATION], "calibration")
        return end - start

    def setup_sample(self) -> float:
        start, end, _ = self.invoke([sys.executable, "-c", "import ttpminer.cli"], "setup")
        return end - start

    def repetition(self, traced: bool) -> tuple[float, float, dict | None]:
        """All of the workload's invocations once: (wall s, peak RSS MB, layer metrics)."""
        shutil.rmtree(self.art, ignore_errors=True)
        config = self.rel(self.generated.config)
        first = last = None
        peak = 0.0
        docs, import_s, scipy_s = [], 0.0, 0.0
        for command in COMMANDS[self.workload]:
            args = [command, "--config", config, "--output-dir", self.rel(self.art)]
            if traced:
                spans = self.logs / f"{command}.spans.json"
                argv = [sys.executable, "-X", "importtime", self.rel(HERE / "trace_child.py"), self.rel(spans)]
            else:
                argv = [sys.executable, "-m", "ttpminer"]
            start, end, rss = self.invoke(argv + args, command)
            first = start if first is None else first
            last, peak = end, max(peak, rss)
            if self.problems:
                return last - first, peak, None
            if traced:
                docs.append(json.loads(spans.read_text(encoding="utf-8")))
                self.trends.update(docs[-1]["trends"])
                imp, sci = import_times(self.logs / f"{command}.log")
                import_s, scipy_s = import_s + imp, scipy_s + sci
        layers = layer_metrics(docs, import_s, scipy_s) if traced else None
        return last - first, peak, layers


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Generate, repeat for ``seconds``, check; the result object of one run."""
    import checks  # imports tests/oracles.py, which main() first checks is there

    run = Run(workload, seed, scale)
    run.setup_sample()  # warm-up: fills the file cache and writes bytecode
    walls, peaks, setups, calibrations, layers, digests = [], [], [], [], [], []
    begin = time.perf_counter()
    longest = 0.0
    while not run.problems:
        round_start = time.perf_counter()
        if not trace:
            setups.extend(run.setup_sample() for _ in range(SAMPLES[workload][0]))
            calibrations.extend(run.calibration_sample() for _ in range(SAMPLES[workload][1]))
        wall, peak, layer = run.repetition(trace)
        if run.problems:
            break
        walls.append(wall)
        peaks.append(peak)
        digests.append(artifact_digests(run.art))
        if trace:
            layer["rule_miner.pair_visits"] = pair_visits(run.art)
            layers.append(layer)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - begin + longest > seconds:
            break

    results = []
    if not run.problems:
        inputs = checks.Inputs.from_config(run.generated.config)
        results = checks.run_all(run.art, inputs, run.generated.planted_pairs,
                                  run.trends if trace else None)
        same = checks.Result("determinism")
        for i, other in enumerate(digests[1:], start=2):
            differing = sorted(k for k in set(digests[0]) | set(other) if digests[0].get(k) != other.get(k))
            if differing:
                same.fail(f"repetition {i} wrote different bytes to {differing}")
        results.append(same)
    failed_checks = sum(1 for r in results if r.failures)
    for r in results:
        run.problems.extend(f"check {r.name}: {message}" for message in r.failures)
        for note in r.notes:
            print(f"note: check {r.name}: {note}", file=sys.stderr)

    if trace:
        names = sorted(layers[0]) if layers else []
        metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit_of(name)}
                   for name in names}
    else:
        speed = REFERENCE_S / median_of(calibrations) if calibrations else 1.0
        metrics = {
            "wall_s": {"value": median_of(walls) * speed, "unit": "s"},
            "setup_s": {"value": median_of(setups) * speed, "unit": "s"},
            "peak_rss_mb": {"value": median_of(peaks), "unit": "MB"},
        }
    return {
        "workload": workload,
        "seed": seed,
        "repetitions": len(walls),
        "setup_samples": len(setups),
        "traced_wall_s": median_of(walls) if trace else None,
        "samples": {"wall_s": walls, "setup_s": setups, "calibration_s": calibrations},
        "problems": run.problems,
        "counts": (run.invocations, run.failed_invocations, len(results), failed_checks),
        "line": {
            "correct": not run.problems,
            "attempted": run.invocations + len(results),
            "failed": run.failed_invocations + failed_checks,
            "metrics": metrics,
        },
    }


def summary(result: dict) -> str:
    line = result["line"]
    metrics = line["metrics"]
    samples = result["samples"]
    if result["traced_wall_s"] is not None:
        shown = f"traced wall_s {result['traced_wall_s']:.4f} s, {len(metrics)} per-layer metrics"
    else:
        shown = ", ".join(f"{name} {m['value']:.4f} {m['unit']}" for name, m in metrics.items())
        shown += (f" (raw wall_s {median_of(samples['wall_s']):.4f} s, raw setup_s "
                  f"{median_of(samples['setup_s']):.4f} s, calibration {median_of(samples['calibration_s']):.4f} s)")
    return (f"{result['workload']} (seed {result['seed']}): {shown}; "
            f"{result['repetitions']} repetitions, {result['setup_samples']} setup samples; "
            "invocations {} ({} failed), checks {} ({} failed); correct {}".format(*result["counts"], line["correct"]))


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark ttpminer end to end on seeded inputs.")
    parser.add_argument("--workload", choices=sorted(COMMANDS), help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0, help="how long to repeat each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run instead")
    args = parser.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a ttpminer checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    ok = True
    for workload in [args.workload] if args.workload else list(COMMANDS):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for problem in result["problems"]:
            print(f"error: {problem}", file=sys.stderr)
        print(summary(result))
        for name, values in result["samples"].items():
            print(f"{workload} {name} samples: {' '.join(f'{v:.3f}' for v in values)}", file=sys.stderr)
        print(json.dumps(result["line"]), flush=True)
        ok = ok and result["line"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
