"""Self-tests of the benchmark: its generator, its checks and its runner.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

E2E_CONFIG = ROOT / "tests" / "fixtures" / "e2e" / "config.cfg"
TINY = {"paper_scale": 0.1, "dedup_heavy": 0.01, "pair_dense_stagewise": 0.01}


@pytest.fixture(scope="module")
def e2e_out(tmp_path_factory) -> Path:
    """ttpminer's own output for the e2e fixture, whose expectations
    scripts/make_e2e_fixture.py computed apart from the program."""
    out = tmp_path_factory.mktemp("e2e") / "out"
    env = run.child_env(out.parent)
    argv = [sys.executable, "-m", "ttpminer", "all", "--config", str(E2E_CONFIG), "--output-dir", str(out)]
    subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True)
    return out


def test_checks_pass_on_e2e_fixture(e2e_out):
    results = checks.run_all(e2e_out, checks.Inputs.from_config(E2E_CONFIG))
    assert [r.failures for r in results] == [[]] * len(results)


def _rewrite_csv(path: Path, edit) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(edit(rows))
    path.write_text(buf.getvalue(), encoding="utf-8")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def drop_pair(out: Path) -> None:
    _rewrite_csv(out / "recurring_pairs.csv", lambda rows: rows[:1] + rows[2:])


def split_set(out: Path) -> None:
    def edit(corpus):
        ts = next(ts for ts in corpus if len(ts["member_citations"]) > 1)
        first, rest = ts["member_citations"][:1], ts["member_citations"][1:]
        ts["member_citations"] = first
        corpus.append(dict(ts, attack_id=rest[0], member_citations=rest))
        corpus.sort(key=lambda ts: ts["attack_id"])

    _edit_json(out / "corpus.json", edit)


def flip_trend(out: Path) -> None:
    def edit(rows):
        cells = {(r[0], r[1]): r for r in rows[1:]}
        source = next(r for r in rows[1:] if r[0] == "increasing" and r[5])
        target = cells[("decreasing", source[1])]
        moved, *kept = source[5].split(";")
        source[5], source[2] = ";".join(kept), str(int(source[2]) - 1)
        target[5] = ";".join(sorted(filter(None, target[5].split(";") + [moved])))
        target[2] = str(int(target[2]) + 1)
        return rows

    _rewrite_csv(out / "prevalence_matrix.csv", edit)


def alter_ev_b(out: Path) -> None:
    def edit(doc):
        doc["ev_b"]["matched_pair_count"] += 1

    _edit_json(out / "evaluation.json", edit)


def drop_citation(out: Path) -> None:
    _edit_json(out / "catalog.json", lambda doc: doc["citations"].pop())


def alter_centrality(out: Path) -> None:
    def edit(rows):
        rows[1][5] = str(int(rows[1][5]) + 1)
        return rows

    _rewrite_csv(out / "graph_centrality.csv", edit)


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (drop_pair, checks.check_pairs),
        (split_set, checks.check_corpus),
        (flip_trend, checks.check_prevalence),
        (alter_ev_b, checks.check_eval),
        (drop_citation, checks.check_catalog),
        (alter_centrality, checks.check_graph),
    ],
)
def test_check_fails_on_corrupted_artifact(e2e_out, tmp_path, corrupt, check):
    out = tmp_path / "out"
    shutil.copytree(e2e_out, out)
    inputs = checks.Inputs.from_config(E2E_CONFIG)
    assert check(out, inputs).failures == []
    corrupt(out)
    assert check(out, inputs).failures


def test_generator_is_deterministic(tmp_path):
    for name in TINY:
        a = gen.generate(name, 5, tmp_path / f"{name}-a", TINY[name])
        gen.generate(name, 5, tmp_path / f"{name}-b", TINY[name])
        gen.generate(name, 6, tmp_path / f"{name}-c", TINY[name])
        files = sorted(p.name for p in (tmp_path / f"{name}-a").iterdir())
        for f in files:
            assert (tmp_path / f"{name}-a" / f).read_bytes() == (tmp_path / f"{name}-b" / f).read_bytes()
        manifest = "manifest.json"
        assert (tmp_path / f"{name}-a" / manifest).read_bytes() != (tmp_path / f"{name}-c" / manifest).read_bytes()
        assert all(phi > 0.3 for phi in a.intended_phi)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_its_checks(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, scale=TINY[workload])
    line = result["line"]
    assert result["problems"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_workload("pair_dense_stagewise", seed=3, seconds=0, trace=True,
                              scale=TINY["pair_dense_stagewise"])
    line = result["line"]
    assert line["correct"], result["problems"]
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert line["metrics"]["corpus_builder.corpus_from_json_calls"]["value"] == 3
    assert line["metrics"]["prevalence.mann_kendall_calls"]["value"] == 594


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper_scale", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
