from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttpminer.corpus_builder import (
    DuplicateCandidatePair,
    ReportRecord,
    TechniqueSet,
    corpus_from_json,
    corpus_to_json,
    date_neighbour_links,
    estimate_tau,
    find_candidate_pairs,
    included_records,
    load_manifest,
    median,
    merge_duplicates,
    month_bucket,
    read_elbow_labels,
    sample_buckets,
)
from ttpminer.errors import ManifestError, ParameterError

from . import oracles


def record(key, published, techniques, attribution=(), include=True, reason=None):
    return ReportRecord(
        citation_key=key,
        url=f"https://example.com/{key}",
        published=date.fromisoformat(published) if published else None,
        technique_ids=frozenset(techniques),
        attribution=frozenset(attribution),
        include=include,
        exclusion_reason=reason,
    )


def manifest_entry(key, published, techniques, attribution=(), include=True, reason=None):
    return {
        "citation_key": key,
        "url": f"https://example.com/{key}",
        "published": published,
        "technique_ids": sorted(techniques),
        "attribution": sorted(attribution),
        "include": include,
        "exclusion_reason": reason,
    }


def write_manifest(tmp_path, entries):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


class TestLoadManifest:
    def test_well_formed_manifest_loads(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [
                manifest_entry("r1", "2020-01-01", ["T1", "T2"]),
                manifest_entry("r2", "2020-02-01", ["T2", "T3"], attribution=["G1"]),
                manifest_entry("r3", None, ["T1"], include=False, reason="no-date"),
            ],
        )
        records = load_manifest(path)
        assert len(records) == 3
        assert records[0].published == date(2020, 1, 1)
        assert records[2].include is False

    def test_included_record_with_one_technique_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [manifest_entry("r1", "2020-01-01", ["T1"])])
        with pytest.raises(ManifestError, match="fewer-than-two-techniques"):
            load_manifest(path)

    def test_included_record_without_date_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [manifest_entry("r1", None, ["T1", "T2"])])
        with pytest.raises(ManifestError, match="publication date"):
            load_manifest(path)

    def test_excluded_record_requires_reason(self, tmp_path):
        path = write_manifest(
            tmp_path, [manifest_entry("r1", "2020-01-01", ["T1", "T2"], include=False)]
        )
        with pytest.raises(ManifestError, match="exclusion_reason"):
            load_manifest(path)

    def test_included_record_must_not_carry_reason(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [manifest_entry("r1", "2020-01-01", ["T1", "T2"], include=True, reason="no-date")],
        )
        with pytest.raises(ManifestError, match="must not carry"):
            load_manifest(path)

    def test_bad_date_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [manifest_entry("r1", "01/02/2020", ["T1", "T2"])])
        with pytest.raises(ManifestError, match="record 0: published must be an ISO date string"):
            load_manifest(path)

    @pytest.mark.parametrize("published", ["20200304", "2020-W10-3"])
    def test_iso_forms_other_than_yyyy_mm_dd_rejected(self, tmp_path, published):
        path = write_manifest(tmp_path, [manifest_entry("r1", published, ["T1", "T2"])])
        needle = f"record 0: published must be an ISO date string, got '{published}'"
        with pytest.raises(ManifestError, match=needle):
            load_manifest(path)

    def test_unknown_exclusion_reason_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path, [manifest_entry("r1", None, [], include=False, reason="bored")]
        )
        with pytest.raises(ManifestError, match="unknown exclusion_reason"):
            load_manifest(path)

    def test_duplicate_citation_key_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [
                manifest_entry("r1", "2020-01-01", ["T1", "T2"]),
                manifest_entry("r1", "2020-01-02", ["T1", "T3"]),
            ],
        )
        with pytest.raises(ManifestError, match="duplicate citation_key"):
            load_manifest(path)

    def test_unknown_technique_id_rejected_against_catalog(self, tmp_path):
        from ttpminer.stix_ingest import parse_bundle

        from .conftest import bundle_bytes, stix_tactic, stix_technique

        catalog = parse_bundle(
            bundle_bytes(
                [
                    stix_tactic("TA0002", "Execution", "execution"),
                    stix_technique("T1059", "Interp", ["execution"]),
                ]
            )
        )
        path = write_manifest(tmp_path, [manifest_entry("r1", "2020-01-01", ["T1059", "T9999"])])
        with pytest.raises(ManifestError, match="T9999"):
            load_manifest(path, catalog)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("include", "false", r"record 0: include must be a boolean, got 'false'"),
            ("include", 0, r"record 0: include must be a boolean, got 0"),
            ("technique_ids", "T1005", r"record 0: technique_ids must be an array of strings"),
            ("attribution", ["G1", 7], r"record 0: attribution must be an array of strings"),
            ("url", None, r"record 0: url must be a string, got None"),
            ("exclusion_reason", 3, r"record 0: exclusion_reason must be a string or null, got 3"),
        ],
    )
    def test_field_of_wrong_json_type_rejected(self, tmp_path, field, value, match):
        entry = manifest_entry("r1", "2020-01-01", ["T1", "T2"])
        entry[field] = value
        path = write_manifest(tmp_path, [entry])
        with pytest.raises(ManifestError, match=match) as caught:
            load_manifest(path)
        assert str(path) in str(caught.value)

    def test_bare_string_record_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [manifest_entry("r1", "2020-01-01", ["T1", "T2"]), "r2"])
        with pytest.raises(ManifestError, match=r"record 1: must be a JSON object"):
            load_manifest(path)

    def test_absent_optional_fields_take_their_defaults(self, tmp_path):
        path = write_manifest(
            tmp_path, [{"citation_key": "r1", "include": False, "exclusion_reason": "no-date"}]
        )
        assert load_manifest(path) == [
            ReportRecord(citation_key="r1", url="r1", include=False, published=None,
                         technique_ids=frozenset(), attribution=frozenset(), exclusion_reason="no-date")
        ]

    @pytest.mark.parametrize(
        "rewrite, match",
        [
            (lambda entry: {k: v for k, v in entry.items() if k != "include"}, "record 1: missing field 'include'"),
            (lambda entry: {k: v for k, v in entry.items() if k != "citation_key"},
             "record 1: missing field 'citation_key'"),
            (lambda entry: {("atribution" if k == "attribution" else k): v for k, v in entry.items()},
             "record 1: unknown field 'atribution'"),
            (lambda entry: {**entry, "id": "u1"}, "record 1: unknown field 'id'"),
        ],
        ids=["no-include", "no-citation-key", "typo", "unseen-field"],
    )
    def test_missing_or_unknown_field_rejected(self, tmp_path, rewrite, match):
        entries = [manifest_entry("r1", "2020-01-01", ["T1", "T2"]), manifest_entry("r2", "2020-01-01", ["T1", "T2"])]
        path = write_manifest(tmp_path, [entries[0], rewrite(entries[1])])
        with pytest.raises(ManifestError, match=match) as caught:
            load_manifest(path)
        assert str(path) in str(caught.value)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
MANIFEST_KEYS = (
    "citation_key", "id", "url", "published", "technique_ids", "attribution", "include",
    "exclusion_reason",
)


@settings(deadline=None)
@given(
    overrides=st.dictionaries(st.sampled_from(MANIFEST_KEYS), JSON_VALUES),
    absent=st.sets(st.sampled_from(MANIFEST_KEYS)),
)
def test_arbitrary_field_values_load_or_raise_manifest_error(tmp_path_factory, overrides, absent):
    """Each loader starts from a record of its own fields, so the values drawn
    reach its decoder and checks, not only its unknown-field check."""
    from ttpminer.eval_harness import load_unseen_manifest

    bases = {
        load_manifest: manifest_entry("r1", "2020-01-01", ["T1", "T2"]),
        load_unseen_manifest: {"id": "u1", "published": "2020-01-01", "technique_ids": ["T1"]},
    }
    path = tmp_path_factory.getbasetemp() / "arbitrary_manifest.json"
    for load, base in bases.items():
        entry = {k: v for k, v in {**base, **overrides}.items() if k not in absent}
        path.write_text(json.dumps([entry]), encoding="utf-8")
        try:
            load(path)
        except ManifestError:
            pass


class TestCandidatePairs:
    def test_common_malware_one_month_apart(self):
        records = [
            record("a", "2020-07-01", ["T1", "T2"], attribution=["WellMail"]),
            record("b", "2020-07-31", ["T2", "T3"], attribution=["WellMail"]),
        ]
        (pair,) = find_candidate_pairs(records)
        assert pair.date_gap_days == 30

    def test_same_group_five_years_apart(self):
        records = [
            record("r2017", "2017-03-01", ["T1", "T2"], attribution=["FIN7"]),
            record("r2022", "2022-03-01", ["T2", "T3"], attribution=["FIN7"]),
        ]
        (pair,) = find_candidate_pairs(records)
        assert pair.date_gap_days == 1826  # five years incl. leap day

    def test_disjoint_attribution_yields_no_pair(self):
        records = [
            record("a", "2020-07-01", ["T1", "T2"], attribution=["G1"]),
            record("b", "2020-07-10", ["T2", "T3"], attribution=["G2"]),
        ]
        assert find_candidate_pairs(records) == []

    def test_each_unordered_pair_listed_once(self):
        records = [
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G1", "S1"]),
            record("b", "2020-02-01", ["T2", "T3"], attribution=["G1", "S1"]),
        ]
        pairs = find_candidate_pairs(records)
        assert len(pairs) == 1
        assert (pairs[0].a, pairs[0].b, pairs[0].date_gap_days) == ("a", "b", 31)

    def test_window_stops_at_the_gap_bound(self):
        records = [
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G1"]),
            record("b", "2020-03-01", ["T2", "T3"], attribution=["G1"]),  # 60 days after a
            record("c", "2020-03-02", ["T1", "T3"], attribution=["G1"]),
        ]
        assert [p.key for p in find_candidate_pairs(records, 60)] == ["a||b", "b||c"]
        assert [p.key for p in find_candidate_pairs(records, 0)] == []
        assert len(find_candidate_pairs(records)) == 3


@settings(deadline=None, max_examples=200)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=120),  # day offsets: ties are common
            st.sets(st.sampled_from(["G1", "G2", "S1", "S2"]), max_size=3),
        ),
        max_size=30,
    ),
    gap=st.integers(min_value=0, max_value=150),
    order=st.randoms(use_true_random=False),
)
def test_windowed_search_equals_the_filtered_full_search(entries, gap, order):
    start = date(2020, 1, 1)
    records = [
        record(f"r{i:02d}", (start + timedelta(days=day)).isoformat(), ["T1", "T2"], attribution=attributed)
        for i, (day, attributed) in enumerate(entries)
    ]
    order.shuffle(records)
    expected = [p for p in find_candidate_pairs(records) if p.date_gap_days <= gap]
    assert find_candidate_pairs(records, gap) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=120),
            st.sets(st.sampled_from(["G1", "G2", "S1", "S2"]), max_size=3),
        ),
        max_size=25,
    ),
    gap=st.none() | st.integers(min_value=0, max_value=150),
    order=st.randoms(use_true_random=False),
)
def test_candidate_pairs_are_the_brute_force_pair_set(entries, gap, order):
    start = date(2020, 1, 1)
    records = [
        record(f"r{i:02d}", (start + timedelta(days=day)).isoformat(), ["T1", "T2"], attribution=attributed)
        for i, (day, attributed) in enumerate(entries)
    ]
    order.shuffle(records)
    expected = set()
    for i, x in enumerate(records):
        for y in records[i + 1 :]:
            days = abs((x.published - y.published).days)
            if x.attribution & y.attribution and (gap is None or days <= gap):
                expected.add((*sorted((x.citation_key, y.citation_key)), days))
    pairs = find_candidate_pairs(records, gap)
    assert len(pairs) == len(expected)  # each pair listed once
    assert {(p.a, p.b, p.date_gap_days) for p in pairs} == expected
    assert find_candidate_pairs(records, gap) == pairs


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_candidate_pair_order_does_not_depend_on_the_hash_seed():
    probe = (
        "from datetime import date, timedelta\n"
        "from ttpminer.corpus_builder import ReportRecord, find_candidate_pairs\n"
        "records = [ReportRecord(f'r{i:02d}', 'u', True, date(2020, 1, 1) + timedelta(days=i % 7),\n"
        "                        frozenset({'T1', 'T2'}), frozenset({f'G{i % 5}', f'S{i % 3}'})) for i in range(30)]\n"
        "print([p.key for p in find_candidate_pairs(records)])\n"
    )
    outputs = {
        subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1 and outputs.pop().count("||") > 50


def test_sampling_and_merge_do_not_depend_on_pair_order():
    rng = random.Random(5)
    records = [
        record(f"r{i:02d}", (date(2020, 1, 1) + timedelta(days=rng.randint(0, 160))).isoformat(), ["T1", "T2"],
               attribution=rng.sample(["G1", "G2", "G3", "S1"], rng.randint(1, 2)))
        for i in range(40)
    ]
    swept = find_candidate_pairs(records)
    shuffled = list(swept)
    rng.shuffle(shuffled)
    orders = [swept, sorted(swept, key=lambda p: p.key), shuffled]
    assert len({tuple(p.key for p in pairs) for pairs in orders}) == 3  # the orders differ
    for n, s, seed in [(5, 3, 0), (5, 20, 42), (3, 1, 7)]:
        samples = [sample_buckets(pairs, n=n, s=s, seed=seed) for pairs in orders]
        assert samples[0] == samples[1] == samples[2]
    for tau in (1, 2, 4):
        merged = [merge_duplicates(records, pairs, tau=tau) for pairs in orders]
        assert merged[0] == merged[1] == merged[2]


class TestElbow:
    def test_bucket_boundaries(self):
        assert month_bucket(0) == 1
        assert month_bucket(30) == 1
        assert month_bucket(31) == 2
        assert month_bucket(60) == 2
        assert month_bucket(61) == 3

    def make_pairs(self, per_bucket: int, buckets: int):
        pairs = []
        for i in range(1, buckets + 1):
            for j in range(per_bucket):
                gap = (i - 1) * 30 + 1 + (j % 30)
                pairs.append(
                    DuplicateCandidatePair(
                        a=f"a{i}-{j}", b=f"b{i}-{j}", date_gap_days=gap,
                    )
                )
        return pairs

    def test_sampling_is_deterministic(self):
        pairs = self.make_pairs(per_bucket=10, buckets=5)
        first = sample_buckets(pairs, n=5, s=3, seed=42)
        second = sample_buckets(pairs, n=5, s=3, seed=42)
        assert first == second
        assert all(len(keys) == 3 for keys in first.values())

    def test_five_buckets_of_twenty(self):
        pairs = self.make_pairs(per_bucket=25, buckets=5)
        samples = sample_buckets(pairs, n=5, s=20, seed=0)
        assert list(samples) == [1, 2, 3, 4, 5]
        assert all(len(keys) == 20 for keys in samples.values())
        pool = {p.key for p in pairs}
        for keys in samples.values():
            assert set(keys) <= pool

    def test_sampling_without_replacement(self):
        pairs = self.make_pairs(per_bucket=10, buckets=2)
        for keys in sample_buckets(pairs, n=2, s=5, seed=1).values():
            assert len(set(keys)) == len(keys)

    def test_short_bucket_emitted_whole(self):
        pairs = self.make_pairs(per_bucket=2, buckets=1)
        samples = sample_buckets(pairs, n=1, s=20, seed=0)
        assert samples == {1: sorted(p.key for p in pairs)}

    def test_tau_from_published_fractions(self):
        assert estimate_tau([0.95, 0.85, 0.15, 0.10, 0.05]) == 2

    def test_tau_single_drop(self):
        assert estimate_tau([1.0, 0.0]) == 1

    def test_tau_late_drop(self):
        # consecutive decreases: 0.1, 0.1, 0.6 -> max at index 3
        assert estimate_tau([0.9, 0.8, 0.7, 0.1]) == 3

    def test_tau_tie_takes_largest_index(self):
        assert estimate_tau([0.9, 0.5, 0.1]) == 2

    def test_tau_no_drop_is_error(self):
        with pytest.raises(ParameterError, match="no elbow"):
            estimate_tau([0.2, 0.2, 0.2])
        with pytest.raises(ParameterError, match="no elbow"):
            estimate_tau([0.1, 0.2, 0.3])

    def test_tau_shift_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 8)
            fractions = [round(rng.uniform(0.3, 0.8), 3) for _ in range(n)]
            drops = [fractions[i] - fractions[i + 1] for i in range(n - 1)]
            if max(drops) <= 0:
                continue
            shifted = [r + 0.1 for r in fractions]
            assert estimate_tau(fractions) == estimate_tau(shifted)

    def test_read_elbow_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "bucket,pair_key,is_duplicate\n"
            "1,a||b,1\n1,c||d,1\n1,e||f,0\n"
            "2,g||h,1\n2,i||j,0\n",
            encoding="utf-8",
        )
        assert read_elbow_labels(path) == [2 / 3, 0.5]

    def test_read_elbow_labels_requires_contiguous_buckets(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("bucket,pair_key,is_duplicate\n2,a||b,1\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="contiguous"):
            read_elbow_labels(path)

    @pytest.mark.parametrize("row, problem", [("x,c||d,1", "bad bucket 'x'"), ("1,c||d,no", "bad is_duplicate 'no'")])
    def test_read_elbow_labels_names_file_and_row(self, tmp_path, row, problem):
        path = tmp_path / "labels.csv"
        path.write_text(f"bucket,pair_key,is_duplicate\n1,a||b,1\n{row}\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=f"^{re.escape(f'{path} row 1: {problem}')}$"):
            read_elbow_labels(path)


class TestMerge:
    def chain_records(self):
        return [
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G1"]),
            record("b", "2020-02-01", ["T2", "T3"], attribution=["G1", "G2"]),
            record("c", "2020-03-01", ["T4", "T5"], attribution=["G2"]),
            record("d", "2021-06-01", ["T6", "T7"], attribution=["G3"]),
        ]

    def test_transitive_merge(self):
        records = self.chain_records()
        pairs = find_candidate_pairs(records)
        sets = merge_duplicates(records, pairs, tau=2)
        by_id = {ts.attack_id: ts for ts in sets}
        assert set(by_id) == {"a", "d"}
        merged = by_id["a"]
        assert merged.member_citations == frozenset({"a", "b", "c"})
        assert merged.techniques == frozenset({"T1", "T2", "T3", "T4", "T5"})
        assert merged.representative_date == date(2020, 1, 1)
        assert merged.latest_date == date(2020, 3, 1)

    def test_no_edges_passes_singletons_through(self):
        records = [
            record("a", "2020-01-01", ["T1", "T2"]),
            record("b", "2020-02-01", ["T2", "T3"]),
            record("c", "2020-03-01", ["T3", "T4"]),
        ]
        sets = merge_duplicates(records, [], tau=2)
        assert len(sets) == 3
        assert all(len(ts.member_citations) == 1 for ts in sets)

    def test_gap_at_exactly_tau_months_merges(self):
        records = [
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G"]),
            record("b", (date(2020, 1, 1) + timedelta(days=60)).isoformat(), ["T3", "T4"],
                   attribution=["G"]),
        ]
        pairs = find_candidate_pairs(records)
        assert len(merge_duplicates(records, pairs, tau=2)) == 1

    def test_gap_one_day_past_tau_does_not_merge(self):
        records = [
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G"]),
            record("b", (date(2020, 1, 1) + timedelta(days=61)).isoformat(), ["T3", "T4"],
                   attribution=["G"]),
        ]
        pairs = find_candidate_pairs(records)
        assert len(merge_duplicates(records, pairs, tau=2)) == 2

    def test_partition_property(self):
        records = self.chain_records()
        pairs = find_candidate_pairs(records)
        sets = merge_duplicates(records, pairs, tau=2)
        total = sum(len(ts.member_citations) for ts in sets)
        assert total == len(records)
        all_members = [key for ts in sets for key in ts.member_citations]
        assert len(all_members) == len(set(all_members))

    def test_merge_is_order_independent(self):
        rng = random.Random(11)
        records = self.chain_records()
        pairs = find_candidate_pairs(records)
        baseline = merge_duplicates(records, pairs, tau=2)
        for _ in range(10):
            shuffled_records = list(records)
            shuffled_pairs = list(pairs)
            rng.shuffle(shuffled_records)
            rng.shuffle(shuffled_pairs)
            assert merge_duplicates(shuffled_records, shuffled_pairs, tau=2) == baseline

    def test_members_connected_by_qualifying_edges(self):
        rng = random.Random(23)
        groups = ["G1", "G2", "G3"]
        for trial in range(20):
            records = [
                record(
                    f"r{i}",
                    (date(2020, 1, 1) + timedelta(days=rng.randint(0, 200))).isoformat(),
                    [f"T{rng.randint(1, 6)}", f"T{rng.randint(7, 12)}"],
                    attribution=rng.sample(groups, rng.randint(0, 2)),
                )
                for i in range(8)
            ]
            pairs = find_candidate_pairs(records)
            tau = 2
            edges = [(p.a, p.b) for p in pairs if p.date_gap_days <= tau * 30]
            for ts in merge_duplicates(records, pairs, tau=tau):
                assert oracles.connected_by_paths(ts.member_citations, edges)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    reports=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),  # day offset
            st.frozensets(st.sampled_from(["T1", "T2", "T3", "T4", "T5"]), max_size=3),
            st.booleans(),  # included
        ),
        max_size=20,
    ),
    # Endpoints r00..r24 may name excluded or unknown reports, or the same one
    # twice; gaps of whole months sit on the tau boundary.
    edges=st.lists(
        st.tuples(
            st.integers(0, 24),
            st.integers(0, 24),
            st.integers(min_value=0, max_value=150) | st.integers(1, 5).map(lambda months: 30 * months),
        ),
        max_size=25,
    ),
    tau=st.integers(min_value=1, max_value=4),
)
def test_merge_equals_components_by_search(reports, edges, tau):
    start = date(2020, 1, 1)
    records = [
        record(f"r{i:02d}", (start + timedelta(days=day)).isoformat(), techniques,
               include=included, reason=None if included else "inaccessible")
        for i, (day, techniques, included) in enumerate(reports)
    ]
    pairs = [
        DuplicateCandidatePair(f"r{a:02d}", f"r{b:02d}", gap) for a, b, gap in edges
    ]
    by_key = {r.citation_key: r for r in records if r.include}
    qualifying = [(p.a, p.b) for p in pairs if p.date_gap_days <= tau * 30]
    expected = sorted(
        (
            TechniqueSet(
                min(component),
                component,
                frozenset().union(*(by_key[key].technique_ids for key in component)),
                min(by_key[key].published for key in component),
                max(by_key[key].published for key in component),
            )
            for component in oracles.components_by_search(by_key, qualifying)
        ),
        key=lambda ts: ts.attack_id,
    )
    assert merge_duplicates(records, pairs, tau) == expected


class TestDateNeighbourLinks:
    def test_each_report_links_to_its_predecessor_within_tau(self):
        records = [
            record("c", "2020-03-02", ["T1", "T2"], attribution=["G1"]),  # 31 days after b
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G1"]),
            record("b", "2020-01-31", ["T1", "T2"], attribution=["G1", "S1"]),
            record("d", "2020-01-31", ["T1", "T2"], attribution=["S1"]),  # same day: by key, after b
        ]
        assert sorted(date_neighbour_links(records, 1)) == [
            DuplicateCandidatePair("a", "b", 30), DuplicateCandidatePair("b", "d", 0)
        ]
        assert {p.key for p in date_neighbour_links(records, 2)} == {"a||b", "b||c", "b||d"}

    def test_an_excluded_report_does_not_bridge(self):
        records = [
            record("a", "2020-01-01", ["T1", "T2"], attribution=["G1"]),
            record("x", "2020-02-15", [], attribution=["G1"], include=False, reason="inaccessible"),
            record("b", "2020-03-30", ["T1", "T2"], attribution=["G1"]),  # 89 days after a
        ]
        assert date_neighbour_links(records, 2) == []
        assert len(merge_duplicates(records, date_neighbour_links(records, 3), 3)) == 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    reports=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),  # day offsets: equal dates are common
            st.sets(st.sampled_from(["G1", "G2", "S1", "S2"]), max_size=3),
            st.booleans(),  # included
        ),
        max_size=25,
    ),
    tau=st.integers(min_value=1, max_value=5),
    order=st.randoms(use_true_random=False),
)
def test_neighbour_links_merge_as_every_candidate_pair(reports, tau, order):
    start = date(2020, 1, 1)
    records = [
        record(f"r{i:02d}", (start + timedelta(days=day)).isoformat(), ["T1", f"T{i % 6 + 2}"],
               attribution=attributed, include=included, reason=None if included else "inaccessible")
        for i, (day, attributed, included) in enumerate(reports)
    ]
    order.shuffle(records)
    merged = merge_duplicates(records, date_neighbour_links(records, tau), tau)
    assert merged == merge_duplicates(records, find_candidate_pairs(records), tau)
    by_key = {r.citation_key: r for r in records if r.include}
    duplicates = [
        (x.citation_key, y.citation_key)
        for x in by_key.values()
        for y in by_key.values()
        if x.attribution & y.attribution and abs((x.published - y.published).days) <= tau * 30
    ]
    components = oracles.components_by_search(by_key, duplicates)
    assert sorted(map(sorted, (ts.member_citations for ts in merged))) == sorted(map(sorted, components))


class TestStats:
    """The corpus stage logs the technique-sets' total and distinct technique mentions."""

    def corpus_line(self, tmp_path, caplog, technique_ids, attributions=None) -> str:
        from ttpminer.cli import main

        from .conftest import FIXTURES

        attributions = attributions or [()] * len(technique_ids)
        manifest = write_manifest(tmp_path, [manifest_entry(f"r{i}", "2020-01-01", ids, attribution)
                                             for i, (ids, attribution) in enumerate(zip(technique_ids, attributions))])
        out = str(tmp_path / "out")
        with caplog.at_level("INFO"):
            assert main(["ingest", "--bundle", str(FIXTURES / "e2e" / "bundle.json"), "--output-dir", out]) == 0
            assert main(["corpus", "--manifest", str(manifest), "--output-dir", out]) == 0
        return next(r.getMessage() for r in caplog.records if r.getMessage().startswith("corpus: "))

    def test_two_overlapping_sets(self, tmp_path, caplog):
        line = self.corpus_line(tmp_path, caplog, [["T1001", "T1002"], ["T1002", "T1003"]])
        assert line == "corpus: 2 included citations -> 2 technique-sets (0 merged), 4 mentions, 3 distinct techniques"

    def test_single_set(self, tmp_path, caplog):
        line = self.corpus_line(tmp_path, caplog, [["T1001", "T1002", "T1003"]])
        assert line == "corpus: 1 included citations -> 1 technique-sets (0 merged), 3 mentions, 3 distinct techniques"

    def test_two_reports_merged_into_one_set(self, tmp_path, caplog):
        """Two reports of one group on one day are one set of two members; the third stays alone."""
        line = self.corpus_line(tmp_path, caplog, [["T1001", "T1002"], ["T1002", "T1003"], ["T1001", "T1003"]],
                                attributions=[["G1"], ["G1"], []])
        assert line == "corpus: 3 included citations -> 2 technique-sets (1 merged), 5 mentions, 3 distinct techniques"


@settings(derandomize=True, max_examples=300)
@given(st.one_of(st.lists(st.integers(-5, 5), min_size=1), st.lists(st.integers(), min_size=1),
                 st.lists(st.floats(), min_size=1)))
@example([1, 2, 3])
@example([1, 3])
@example([1, 2])
def test_median_is_statistics_median_in_value_and_type(values):
    import statistics

    expected = statistics.median(values)
    for actual in (median(values), median(iter(values))):
        assert type(actual) is type(expected)
        assert repr(actual) == repr(expected)  # equal floats, nan and -0.0 too


def test_corpus_json_round_trip():
    records = [
        record("a", "2020-01-01", ["T1", "T2"], attribution=["G1"]),
        record("b", "2020-01-20", ["T2", "T3"], attribution=["G1"]),
    ]
    sets = merge_duplicates(records, find_candidate_pairs(records), tau=1)
    assert corpus_from_json(corpus_to_json(sets)) == sets


# Strings come from all of Unicode but lone surrogates; the second example
# pins quotes, backslashes, control characters, U+2028 and non-BMP characters.
TECHNIQUE_SETS = st.builds(
    TechniqueSet,
    attack_id=st.text(),
    member_citations=st.frozensets(st.text(), min_size=1),
    techniques=st.frozensets(st.text()),
    representative_date=st.dates(),
    latest_date=st.dates(),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(TECHNIQUE_SETS, max_size=4))
@example([])
@example(
    [
        TechniqueSet(
            'q"uo\\te\x00\x1f\x7f\u2028\U0001f600',
            frozenset({'a"b', "\\", "\n\t\u2029", "\U00010348"}),
            frozenset(),
            date(1, 1, 1),
            date(9999, 12, 31),
        )
    ]
)
@example(  # a set of one citation, its attack_id or another, and a date shared across sets
    [
        TechniqueSet('r"1', frozenset({'r"1'}), frozenset({"T1"}), date(2020, 1, 1), date(2020, 1, 1)),
        TechniqueSet("r2", frozenset({"r3"}), frozenset({"T1"}), date(2020, 1, 1), date(2021, 1, 1)),
    ]
)
def test_corpus_writer_matches_the_general_encoder(sets):
    text = corpus_to_json(sets)
    assert text == oracles.corpus_json(sets)
    assert corpus_from_json(text) == sets


def test_included_records_filter():
    records = [
        record("a", "2020-01-01", ["T1", "T2"]),
        record("b", None, [], include=False, reason="inaccessible"),
    ]
    assert [r.citation_key for r in included_records(records)] == ["a"]
