from __future__ import annotations

import json
import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpminer.errors import ManifestError
from ttpminer.eval_harness import (
    UnseenReport,
    cutoff_date,
    ev_a,
    ev_b,
    evaluate,
    load_unseen_manifest,
    summary_to_text,
    top_mentioned,
)
from ttpminer.rule_miner import RecurringPair

from . import oracles
from .conftest import make_set


def report(rid, techniques, published="2023-01-15"):
    return UnseenReport(
        id=rid, published=date.fromisoformat(published), technique_ids=frozenset(techniques)
    )


def pair(a, b, labels=()):
    return RecurringPair(
        tech_a=a,
        tech_b=b,
        support=0.1,
        confidence_ab=0.5,
        confidence_ba=0.5,
        phi=0.5,
        chi2=10.0,
        p_value=0.001,
        lift=2.0,
        strength="strong",
        direction="ab",
        relation_labels=frozenset(labels),
    )


class TestCutoff:
    def test_single_report(self):
        corpus = [make_set("a", ["T1", "T2"], "2022-08-18")]
        assert cutoff_date(corpus) == date(2022, 8, 18)

    def test_merged_set_keeps_max_member_date(self):
        corpus = [make_set("a", ["T1", "T2"], "2022-01-01", latest="2022-08-18")]
        assert cutoff_date(corpus) == date(2022, 8, 18)


class TestLoadUnseen:
    def write(self, tmp_path, entries):
        path = tmp_path / "unseen.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        return path

    def test_loads_and_validates_cutoff(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"id": "u1", "published": "2023-01-01", "technique_ids": ["T1", "T2"]}],
        )
        reports = load_unseen_manifest(path, cutoff=date(2022, 8, 18))
        assert reports[0].technique_ids == frozenset({"T1", "T2"})

    def test_report_on_or_before_cutoff_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"id": "u1", "published": "2022-08-18", "technique_ids": ["T1"]}],
        )
        with pytest.raises(ManifestError, match="not after the cutoff"):
            load_unseen_manifest(path, cutoff=date(2022, 8, 18))

    def test_empty_techniques_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"id": "u1", "published": "2023-01-01", "technique_ids": []}])
        with pytest.raises(ManifestError, match="non-empty"):
            load_unseen_manifest(path)

    def test_string_technique_ids_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"id": "u1", "published": "2023-01-01", "technique_ids": "T1005"}])
        with pytest.raises(ManifestError, match=r"record 0: technique_ids must be an array"):
            load_unseen_manifest(path)

    @pytest.mark.parametrize(
        "published, needle",
        [
            (None, "published must be an ISO date string, got None"),
            ("absent", "missing field 'published'"),
            ("20230304", "published must be an ISO date string, got '20230304'"),
            ("2023-W10-3", "published must be an ISO date string, got '2023-W10-3'"),
        ],
    )
    def test_missing_or_non_iso_date_rejected(self, tmp_path, published, needle):
        entry = {"id": "u1", "published": published, "technique_ids": ["T1"]}
        if published == "absent":
            del entry["published"]
        path = self.write(tmp_path, [entry])
        with pytest.raises(ManifestError, match=rf"record 0.*: {needle}"):
            load_unseen_manifest(path)

    def test_bare_string_record_rejected(self, tmp_path):
        path = self.write(tmp_path, ["u1"])
        with pytest.raises(ManifestError, match=r"unseen.json record 0: must be a JSON object"):
            load_unseen_manifest(path)

    def test_citation_key_accepted_as_id(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"citation_key": "u1", "published": "2023-01-01", "technique_ids": ["T1"]}],
        )
        assert load_unseen_manifest(path)[0].id == "u1"

    @pytest.mark.parametrize(
        "entry, needle",
        [
            ({"id": "", "published": "2023-01-01", "technique_ids": ["T1"]}, "record 0: id must be non-empty"),
            ({"published": "2023-01-01", "technique_ids": ["T1"]}, "record 0: missing field 'id'"),
            ({"id": "u1", "published": "2023-01-01", "technique_ids": ["T1"], "source": "x"},
             "record 0: unknown field 'source'"),
            ({"id": "u1", "citation_key": "u1", "published": "2023-01-01", "technique_ids": ["T1"]},
             "record 0: unknown field 'citation_key'"),
        ],
        ids=["empty-id", "no-id", "unknown-field", "id-and-citation-key"],
    )
    def test_bad_id_or_unknown_field_rejected(self, tmp_path, entry, needle):
        path = self.write(tmp_path, [entry])
        with pytest.raises(ManifestError, match=needle) as caught:
            load_unseen_manifest(path)
        assert str(path) in str(caught.value)


class TestEvA:
    def test_found_counts_and_per_report_stats(self):
        prevalent = ["T1", "T2", "T3"]
        unseen = [
            report("u1", ["T1", "T2", "X"]),
            report("u2", ["T1"]),
            report("u3", ["Y"]),
        ]
        result = ev_a(prevalent, unseen)
        assert result["prevalent_found_count"] == 2
        assert result["prevalent_found_ids"] == ("T1", "T2")
        assert result["mean_prevalent_per_report"] == pytest.approx(1.0)
        assert result["median_prevalent_per_report"] == 1

    def test_no_prevalent_technique_found(self):
        result = ev_a(["T1"], [report("u1", ["X"]), report("u2", ["Y"])])
        assert result["prevalent_found_count"] == 0
        assert result["mean_prevalent_per_report"] == 0.0

    def test_parent_match_relaxation(self):
        prevalent = ["T1204.002"]
        unseen = [report("u1", ["T1204"])]
        strict = ev_a(prevalent, unseen)
        assert strict["prevalent_found_count"] == 0
        relaxed = ev_a(prevalent, unseen, parent_match=True)
        assert relaxed["prevalent_found_count"] == 1
        assert relaxed["mean_prevalent_per_report"] == 1.0

    def test_top20_overlap(self):
        unseen = [report(f"u{i}", ["T1", "T2"] if i < 5 else ["T3"]) for i in range(8)]
        result = ev_a(["T1", "T9"], unseen)
        assert result["top20_overlap_count"] == 1
        assert result["top20_overlap_ids"] == ("T1",)

    def test_top_mentioned_tie_break(self):
        unseen = [report("u1", ["B", "A"]), report("u2", ["A", "B", "C"])]
        assert top_mentioned(unseen, 2) == ["A", "B"]

    def test_empty_prevalent_list_gives_zero_counts(self):
        result = ev_a([], [report("u1", ["T1"])])
        assert (result["prevalent_found_count"], result["prevalent_found_ids"]) == (0, ())
        assert (result["mean_prevalent_per_report"], result["median_prevalent_per_report"]) == (0.0, 0)
        assert (result["top20_overlap_count"], result["top20_overlap_ids"]) == (0, ())


class TestEvB:
    def test_valid_and_matched_split(self):
        pairs = [pair("A", "B"), pair("A", "C"), pair("A", "Z")]
        unseen = [
            report("u1", ["A", "B"]),  # matches (A, B)
            report("u2", ["A"]),
            report("u3", ["C"]),  # A and C never co-present
        ]
        result = ev_b(pairs, unseen)
        assert result["valid_pair_count"] == 2  # (A,B) and (A,C); Z unseen anywhere
        assert result["matched_pair_count"] == 1
        assert result["matched_pairs"] == (("A", "B"),)
        assert result["reports_with_pair"] == 1
        assert result["mean_valid_pairs_per_report"] == pytest.approx(1 / 3)
        assert result["mean_valid_pairs_per_matching_report"] == pytest.approx(1.0)

    def test_pair_with_unmentioned_technique_not_valid(self):
        result = ev_b([pair("A", "Z")], [report("u1", ["A", "B"])])
        assert result["valid_pair_count"] == 0
        assert result["matched_pair_count"] == 0

    def test_per_relation_counts_attribute_every_label(self):
        pairs = [
            pair("A", "B", labels=["follow", "same_asset"]),
            pair("A", "C", labels=["follow"]),
        ]
        unseen = [report("u1", ["A", "B", "C"])]
        result = ev_b(pairs, unseen)
        assert result["per_relation_matches"] == {"follow": 2, "same_asset": 1}

    def test_matched_pairs_by_per_pair_scan_oracle(self):
        rng = random.Random(19)
        techniques = [f"T{i}" for i in range(10)]
        for _ in range(20):
            pairs = [
                pair(*sorted(rng.sample(techniques, 2)))
                for _ in range(rng.randint(1, 8))
            ]
            pairs = list({p.key: p for p in pairs}.values())
            unseen = [
                report(f"u{i}", rng.sample(techniques, rng.randint(1, 6)))
                for i in range(rng.randint(1, 6))
            ]
            result = ev_b(pairs, unseen)
            universe = set().union(*(r.technique_ids for r in unseen))
            expected_matched = sorted(
                p.key
                for p in pairs
                if p.tech_a in universe
                and p.tech_b in universe
                and any(
                    p.tech_a in r.technique_ids and p.tech_b in r.technique_ids for r in unseen
                )
            )
            assert list(result["matched_pairs"]) == expected_matched

    def test_monotone_under_added_reports(self):
        rng = random.Random(29)
        techniques = [f"T{i}" for i in range(8)]
        pairs = [pair("T0", "T1"), pair("T2", "T3"), pair("T4", "T5")]
        prevalent = ["T0", "T2", "T6"]
        unseen = [report("u0", rng.sample(techniques, 3))]
        previous_a = ev_a(prevalent, unseen)
        previous_b = ev_b(pairs, unseen)
        for i in range(1, 15):
            unseen.append(report(f"u{i}", rng.sample(techniques, rng.randint(1, 5))))
            current_a = ev_a(prevalent, unseen)
            current_b = ev_b(pairs, unseen)
            assert current_a["prevalent_found_count"] >= previous_a["prevalent_found_count"]
            assert current_b["valid_pair_count"] >= previous_b["valid_pair_count"]
            assert current_b["matched_pair_count"] >= previous_b["matched_pair_count"]
            previous_a, previous_b = current_a, current_b


def test_evaluate_summary_round_trip():
    prevalent = ["T1", "T2"]
    pairs = [pair("T1", "T3", labels=["follow"])]
    unseen = [report("u1", ["T1", "T3"]), report("u2", ["T2"])]
    doc = evaluate(prevalent, pairs, unseen, cutoff=date(2022, 8, 18))
    assert doc["cutoff"] == "2022-08-18"
    assert doc["ev_a"]["prevalent_found_count"] == 2
    assert doc["ev_b"]["matched_pair_count"] == 1
    text = summary_to_text(doc, len(prevalent), len(pairs))
    assert "EV-A" in text and "EV-B" in text
    assert "2 of 2" in text


# Twelve base ids, each with two sub-techniques: reports can name more than 20 distinct ids.
TECHNIQUE_POOL = [f"T10{n:02d}{sub}" for n in range(12) for sub in ("", ".001", ".002")]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    prevalent=st.lists(st.sampled_from(TECHNIQUE_POOL), max_size=8),
    reports=st.lists(st.sets(st.sampled_from(TECHNIQUE_POOL), min_size=1, max_size=12), min_size=1, max_size=8),
    parent_match=st.booleans(),
)
def test_ev_a_equals_the_pairwise_oracle(prevalent, reports, parent_match):
    unseen = [report(f"u{i}", techniques) for i, techniques in enumerate(reports)]
    result = ev_a(prevalent, unseen, parent_match=parent_match)
    expected = oracles.ev_a_fields(prevalent, reports, parent_match)
    assert result == expected
    assert {name: type(value) for name, value in result.items()} == {
        name: type(value) for name, value in expected.items()
    }
