"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The full-corpus reproduction criterion runs only when the externally curated
corpus files are supplied via TTPMINER_FULL_* environment variables; the
bundled synthetic end-to-end fixture (with brute-force precomputed expected
outputs) stands in for it otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics
import time
from itertools import product
from pathlib import Path

import pytest

from ttpminer.cli import main as cli_main
from ttpminer.corpus_builder import (
    estimate_tau,
    find_candidate_pairs,
    merge_duplicates,
)
from ttpminer.graph_analysis import (
    RelationAnnotation,
    build_graph,
    degree_centrality,
    directed_centrality,
)
from ttpminer.prevalence import YearlySeries, mann_kendall
from ttpminer.rule_miner import chi_square, mine_pairs, phi
from ttpminer.stix_ingest import parse_bundle

from . import oracles
from .conftest import FIXTURES
from .test_corpus_builder import record
from .test_graph_analysis import pair

E2E = FIXTURES / "e2e"


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion} PASS: {message}")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_criterion_1_catalog_counts():
    bundle_path = os.environ.get("TTPMINER_ATTACK_BUNDLE")
    pinned = bundle_path is None
    path = Path(bundle_path) if bundle_path else FIXTURES / "attack_v12_shape_bundle.json"
    start = time.perf_counter()
    catalog = parse_bundle(path.read_bytes())
    elapsed = time.perf_counter() - start
    subs = sum(t.is_subtechnique for t in catalog.techniques)
    if pinned:
        assert len(catalog.tactics) == 14
        assert len(catalog.techniques) == 594
        assert subs == 401
    else:
        # a differing bundle revision may drift by at most two techniques
        assert len(catalog.tactics) == 14
        assert abs(len(catalog.techniques) - 594) <= 2
        assert abs(subs - 401) <= 2
    assert elapsed < 5.0
    report(
        1,
        f"{len(catalog.tactics)} tactics, {len(catalog.techniques)} techniques "
        f"({subs} sub-techniques) parsed in {elapsed:.2f}s "
        f"[{'pinned shape fixture' if pinned else path}]",
    )


def test_criterion_2_arm_oracle_equivalence():
    rng = random.Random(1729)
    techniques = [f"T{i}" for i in range(8)]
    start = time.perf_counter()
    for trial in range(200):
        corpus = [
            frozenset(rng.sample(techniques, rng.randint(1, 8)))
            for _ in range(rng.randint(1, 12))
        ]
        min_support = rng.choice([0.005, 0.05, 0.1, 0.25, 0.5, 0.75])
        mined = {
            (c.tech_a, c.tech_b): (c.support, c.confidence_ab, c.confidence_ba)
            for c in mine_pairs(corpus, min_support)
        }
        assert mined == oracles.enumerate_pair_stats(corpus, min_support), (trial, min_support)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"200 random corpora matched brute-force enumeration exactly in {elapsed:.2f}s")


def test_criterion_3_worked_rule_example(fig1_itemsets):
    candidates = {(c.tech_a, c.tech_b): c for c in mine_pairs(fig1_itemsets, min_support=0.5)}
    cs_ob = candidates[("CS", "OB")]
    assert cs_ob.support == 0.5  # exact: 2/4
    assert cs_ob.confidence_ab == 2 / 3
    ph_ue = candidates[("PH", "UE")]
    assert ph_ue.support == 0.75  # exact: 3/4
    report(3, "CS=>OB support 0.5 and PH/UE support 0.75, exact arithmetic")


def test_criterion_4_phi_property_suite():
    rng = random.Random(271828)

    checked = 0
    while checked < 250:  # Property 1: exact independence gives phi == 0
        n = rng.randint(4, 400)
        a, b = rng.randint(1, n - 1), rng.randint(1, n - 1)
        if (a * b) % n != 0:
            continue
        n11 = a * b // n
        if any(m <= 0 for m in (a, n - a, b, n - b)):  # the table's marginals
            continue
        assert phi(n11, a, b, n) == 0.0
        checked += 1

    for _ in range(250):  # Property 2: monotone in n11 at fixed marginals
        n = rng.randint(6, 80)
        a, b = rng.randint(1, n - 1), rng.randint(1, n - 1)
        values = []
        for n11 in range(max(0, a + b - n), min(a, b) + 1):
            if not any(m == 0 for m in (a, n - a, b, n - b)):
                values.append(phi(n11, a, b, n))
        for earlier, later in zip(values, values[1:]):
            assert later > earlier

    for _ in range(250):  # Property 3: anti-monotone in a marginal at fixed joint
        n = rng.randint(8, 80)
        n11 = rng.randint(1, n // 2)
        a = rng.randint(n11, n - 1)
        values = []
        for b in range(n11, n - a + n11 + 1):
            if not any(m == 0 for m in (a, n - a, b, n - b)):
                values.append(phi(n11, a, b, n))
        for earlier, later in zip(values, values[1:]):
            assert later < earlier

    for _ in range(1000):  # chi-square identity on random feasible tables
        n11, n10, n01, n00 = (rng.randint(1, 50) for _ in range(4))
        counts = (n11, n11 + n10, n11 + n01, n11 + n10 + n01 + n00)
        statistic, _ = chi_square(*counts)
        assert close(statistic, counts[3] * phi(*counts) ** 2)
    report(4, "Properties 1-3 plus chi2 = n*phi^2 (<=1e-9 rel) on randomized tables")


def test_criterion_5_mann_kendall_oracle():
    total = 0
    for length in range(2, 8):
        for values in product((0.0, 1.0, 2.0), repeat=length):
            series = YearlySeries(technique_id="T", years=tuple(range(length)), values=values)
            assert mann_kendall(series).s_statistic == oracles.mk_s(values)
            total += 1
    for length in range(5, 8):
        rising = YearlySeries(
            technique_id="T", years=tuple(range(length)), values=tuple(range(length))
        )
        falling = YearlySeries(
            technique_id="T", years=tuple(range(length)), values=tuple(-v for v in range(length))
        )
        assert mann_kendall(rising, alpha=0.05).classification == "increasing"
        assert mann_kendall(falling, alpha=0.05).classification == "decreasing"
    report(5, f"S matched enumeration on {total} series; monotone series classify at n>=5")


def test_criterion_6_elbow_and_dedup_fixtures():
    assert estimate_tau([0.95, 0.85, 0.15, 0.10, 0.05]) == 2

    # five reports: a-b-c chain via shared attribution within tau, d pairs
    # with e but outside tau, so expected components are {a,b,c}, {d}, {e}
    records = [
        record("a", "2020-01-01", ["T1", "T2"], attribution=["G1"]),
        record("b", "2020-02-10", ["T2", "T3"], attribution=["G1", "S1"]),
        record("c", "2020-03-20", ["T3", "T4"], attribution=["S1"]),
        record("d", "2020-01-01", ["T5", "T6"], attribution=["G2"]),
        record("e", "2020-06-01", ["T6", "T7"], attribution=["G2"]),
    ]
    sets = {ts.attack_id: ts for ts in merge_duplicates(records, find_candidate_pairs(records), tau=2)}
    assert set(sets) == {"a", "d", "e"}
    assert sets["a"].member_citations == frozenset({"a", "b", "c"})
    assert sets["a"].techniques == frozenset({"T1", "T2", "T3", "T4"})
    assert sets["d"].techniques == frozenset({"T5", "T6"})
    assert sets["e"].techniques == frozenset({"T6", "T7"})
    report(6, "tau fixture gives 2; chained 5-report corpus merges to hand-computed components")


def test_criterion_7_centrality_worked_example():
    pairs = [pair("T1", "T2"), pair("T1", "T3"), pair("T1", "T4"), pair("T2", "T3"), pair("T3", "T4")]
    undirected = build_graph(pairs)
    delta = degree_centrality(undirected)
    assert delta["T1"] == 0.75
    assert delta["T2"] == 0.5
    annotations = [
        RelationAnnotation(p.tech_a, p.tech_b, "follow", "ab") for p in pairs
    ]
    directed = build_graph(pairs, annotations, relation="follow")
    scores = directed_centrality(directed)
    assert scores["T3"][0] == 0.5
    assert scores["T1"][1] == 0.75
    report(7, "delta(T1)=0.75, delta(T2)=0.5, delta_i(T3)=0.5, delta_o(T1)=0.75 exactly")


# --- criterion 8: end-to-end against brute-force precomputed expectations ---


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e_acceptance")
    code = cli_main(
        ["all", "--config", str(E2E / "config.cfg"), "--output-dir", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def expected():
    return json.loads((E2E / "expected.json").read_text(encoding="utf-8"))


def test_criterion_8a_catalog_and_corpus(e2e_run, expected):
    catalog = json.loads((e2e_run / "catalog.json").read_text())
    assert len(catalog["tactics"]) == expected["catalog"]["tactics"]
    assert len(catalog["techniques"]) == expected["catalog"]["techniques"]
    assert (
        sum(1 for t in catalog["techniques"] if t["is_subtechnique"])
        == expected["catalog"]["subtechniques"]
    )
    assert len(catalog["citations"]) == expected["catalog"]["citations"]

    corpus = json.loads((e2e_run / "corpus.json").read_text())
    assert corpus == expected["corpus"]["sets"]
    assert len(corpus) == expected["corpus"]["set_count"]
    merged = sum(1 for ts in corpus if len(ts["member_citations"]) > 1)
    assert merged == expected["corpus"]["merged_count"]
    mentions = sum(len(ts["techniques"]) for ts in corpus)
    assert mentions == expected["corpus"]["total_mentions"]
    distinct = len({t for ts in corpus for t in ts["techniques"]})
    assert distinct == expected["corpus"]["distinct_techniques"]
    report(
        8,
        f"corpus: {len(corpus)} sets ({merged} merged), {mentions} mentions, "
        f"{distinct} distinct techniques == brute-force expectation",
    )


def test_criterion_8b_matrix_and_prevalent(e2e_run, expected):
    rows = read_csv(e2e_run / "prevalence_matrix.csv")
    assert len(rows) == 9
    for row in rows:
        cell = expected["matrix"][f"{row['trend']}|{row['bin']}"]
        assert int(row["count"]) == cell["count"]
        assert close(float(row["median_pct"]), cell["median_pct"])
        assert close(float(row["mention_share"]), cell["mention_share"])
        ids = [t for t in row["technique_ids"].split(";") if t]
        assert ids == cell["technique_ids"]

    prevalent_rows = read_csv(e2e_run / "prevalent_techniques.csv")
    assert [r["id"] for r in prevalent_rows] == [p["id"] for p in expected["prevalent"]]
    for row, exp in zip(prevalent_rows, expected["prevalent"]):
        assert close(float(row["pct_reports"]), exp["pct_reports"])
        assert row["cell"] == exp["cell"]
    report(8, f"matrix cells and {len(prevalent_rows)} prevalent techniques match expectation")


def test_criterion_8c_pairs(e2e_run, expected):
    rows = read_csv(e2e_run / "recurring_pairs.csv")
    expected_pairs = {(p["tech_a"], p["tech_b"]): p for p in expected["pairs"]}
    assert {(r["tech_a"], r["tech_b"]) for r in rows} == set(expected_pairs)
    for row in rows:
        exp = expected_pairs[(row["tech_a"], row["tech_b"])]
        for field in ("support", "confidence_ab", "confidence_ba", "phi", "chi2", "p_value", "lift"):
            assert close(float(row[field]), exp[field]), (row["tech_a"], row["tech_b"], field)
        assert row["strength"] == exp["strength"]
        assert row["direction"] == exp["direction"]
        labels = sorted(part for part in row["relation_labels"].split(";") if part)
        assert labels == exp["relation_labels"]
    histogram = {
        name: sum(1 for r in rows if r["strength"] == name)
        for name in ("weak", "moderate", "strong", "very_strong")
    }
    assert histogram == expected["strength_histogram"]
    median_lift = statistics.median(float(r["lift"]) for r in rows)
    assert close(median_lift, expected["median_lift"])
    report(
        8,
        f"{len(rows)} recurring pairs with phi/chi2/p/lift within 1e-9 of brute force; "
        f"strength histogram {histogram}",
    )


def test_criterion_8d_centrality_and_eval(e2e_run, expected):
    rows = read_csv(e2e_run / "graph_centrality.csv")
    assert len(rows) == len(expected["centrality"])
    for row, exp in zip(rows, expected["centrality"]):
        assert row["node"] == exp["node"] and row["relation"] == exp["relation"]
        for field in ("delta", "delta_in", "delta_out", "eta"):
            if exp[field] == "":
                assert row[field] == ""
            else:
                assert close(float(row[field]), float(exp[field]))

    evaluation = json.loads((e2e_run / "evaluation.json").read_text())

    def compare(actual, exp, path="evaluation"):
        assert type(actual) is type(exp) or (
            isinstance(actual, (int, float)) and isinstance(exp, (int, float))
        ), path
        if isinstance(exp, dict):
            assert set(actual) == set(exp), path
            for key in exp:
                compare(actual[key], exp[key], f"{path}.{key}")
        elif isinstance(exp, list):
            assert len(actual) == len(exp), path
            for i, (a, e) in enumerate(zip(actual, exp)):
                compare(a, e, f"{path}[{i}]")
        elif isinstance(exp, float):
            assert close(actual, exp), path
        else:
            assert actual == exp, path

    compare(evaluation, expected["evaluation"])
    report(8, "centrality tables and EV-A/EV-B evaluation match brute-force expectation")


def test_criterion_8_full_corpus_conditional():
    required = ("TTPMINER_FULL_BUNDLE", "TTPMINER_FULL_MANIFEST", "TTPMINER_FULL_UNSEEN")
    if not all(os.environ.get(k) for k in required):
        print(
            "ACCEPTANCE criterion 8 (full corpus) SKIP: curated corpus not supplied "
            "(set TTPMINER_FULL_BUNDLE/MANIFEST/UNSEEN); the synthetic fixture stands in"
        )
        pytest.skip("curated corpus not supplied; covered by the synthetic end-to-end fixture")

    import tempfile

    from ttpminer import artifacts
    from ttpminer.corpus_builder import corpus_from_json

    with tempfile.TemporaryDirectory() as out:
        argv = [
            "all",
            "--bundle", os.environ["TTPMINER_FULL_BUNDLE"],
            "--manifest", os.environ["TTPMINER_FULL_MANIFEST"],
            "--unseen", os.environ["TTPMINER_FULL_UNSEEN"],
            "--output-dir", out,
        ]
        if os.environ.get("TTPMINER_FULL_ANNOTATIONS"):
            argv += ["--annotations", os.environ["TTPMINER_FULL_ANNOTATIONS"]]
        assert cli_main(argv) == 0
        out_path = Path(out)
        corpus = corpus_from_json((out_path / "corpus.json").read_text())
        assert len(corpus) == 667
        assert sum(1 for ts in corpus if len(ts.member_citations) > 1) == 146
        assert sum(len(ts.techniques) for ts in corpus) == 10370
        assert len(frozenset().union(*(ts.techniques for ts in corpus))) == 452
        sizes = sorted(len(ts.techniques) for ts in corpus)
        assert statistics.median(sizes) == 13
        assert abs(statistics.mean(sizes) - 15.59) <= 0.01

        matrix_rows = {(r["trend"], r["bin"]): r for r in read_csv(out_path / "prevalence_matrix.csv")}
        assert sum(int(r["count"]) for (_, b), r in matrix_rows.items() if b == "high") == 15
        assert sum(int(r["count"]) for (_, b), r in matrix_rows.items() if b == "medium") == 45
        top_right = matrix_rows[("increasing", "high")]
        assert int(top_right["count"]) == 2
        assert abs(float(top_right["median_pct"]) - 32.8) <= 0.1
        assert abs(float(top_right["mention_share"]) - 0.042) <= 0.001
        for fbin in ("medium", "high"):
            assert int(matrix_rows[("decreasing", fbin)]["count"]) == 0
        assert int(matrix_rows[("decreasing", "low")]["count"]) == 5

        prevalent_rows = read_csv(out_path / "prevalent_techniques.csv")
        assert len(prevalent_rows) == 19
        assert prevalent_rows[0]["id"] == "T1105"
        assert abs(float(prevalent_rows[0]["pct_reports"]) - 51.72) <= 0.1

        pairs = artifacts.read_pairs(out_path / "recurring_pairs.csv")
        assert len(pairs) == 425
        histogram = {
            name: sum(1 for p in pairs if p.strength == name)
            for name in ("weak", "moderate", "strong", "very_strong")
        }
        assert histogram == {"weak": 321, "moderate": 73, "strong": 29, "very_strong": 2}
        assert abs(statistics.median(p.lift for p in pairs) - 5.3) <= 0.1
        by_key = {p.key: p for p in pairs}
        for key, expected_phi, expected_support in (
            (("T1204.001", "T1566.002"), 0.82, 0.10),
            (("T1204.002", "T1566.001"), 0.78, 0.23),
            (("T1033", "T1082"), 0.46, 0.21),
            (("T1082", "T1083"), 0.40, 0.26),
        ):
            assert key in by_key, key
            assert abs(by_key[key].phi - expected_phi) <= 0.01
            assert abs(by_key[key].support - expected_support) <= 0.01

        evaluation = json.loads((out_path / "evaluation.json").read_text())
        assert evaluation["cutoff"] == "2022-08-18"
        assert evaluation["ev_a"]["prevalent_found_count"] == 18
        assert abs(evaluation["ev_a"]["mean_prevalent_per_report"] - 2.84) <= 0.01
        assert evaluation["ev_a"]["median_prevalent_per_report"] == 2
        assert evaluation["ev_a"]["top20_overlap_count"] == 9
        assert evaluation["ev_b"]["valid_pair_count"] == 317
        assert evaluation["ev_b"]["matched_pair_count"] == 228
        assert evaluation["ev_b"]["reports_with_pair"] == 86
        assert abs(evaluation["ev_b"]["mean_valid_pairs_per_report"] - 5.86) <= 0.01
    report(8, "full-corpus headline numbers reproduced from supplied curated inputs")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for name in ("seq1", "seq2"):
        out = tmp_path / name
        code = cli_main(["all", "--config", str(E2E / "config.cfg"), "--output-dir", str(out)])
        assert code == 0
        outputs.append(out)

    names = sorted(p.name for p in outputs[0].iterdir())
    assert sorted(p.name for p in outputs[1].iterdir()) == names
    for name in names:
        baseline = (outputs[0] / name).read_bytes()
        assert (outputs[1] / name).read_bytes() == baseline, f"{name} differs across reruns"
    report(9, f"two runs byte-identical across {len(names)} artifacts")
