from __future__ import annotations

import json
import random

import pytest

from ttpminer.errors import BundleParseError, BundleSchemaError
from ttpminer.stix_ingest import (
    catalog_from_json,
    catalog_to_json,
    normalize_citation_url,
    parse_bundle,
)

from .conftest import bundle_bytes, stix_attributor, stix_tactic, stix_technique, stix_uses


@pytest.fixture
def small_bundle_objects() -> list[dict]:
    report1 = ("Vendor A", "https://example.com/reports/alpha")
    report2 = ("Vendor B", "https://example.net/beta")
    group = stix_attributor("intrusion-set", "G0001", "Group One", citations=[report1])
    tool = stix_attributor("tool", "S0002", "Tool Two", citations=[report1])
    malware = stix_attributor("malware", "S0003", "Mal Three", citations=[report2])
    t_parent = stix_technique("T1059", "Command Interpreter", ["execution"])
    t_sub = stix_technique("T1059.001", "PowerShell", None)  # inherits execution
    t_other = stix_technique("T1105", "Tool Transfer", ["command-and-control"])
    return [
        stix_tactic("TA0002", "Execution", "execution"),
        stix_tactic("TA0011", "Command and Control", "command-and-control"),
        t_parent,
        t_sub,
        t_other,
        group,
        tool,
        malware,
        stix_uses(group["id"], t_sub["id"], citations=[report1]),
        stix_uses(malware["id"], t_other["id"], citations=[report1, report2]),
        {"type": "course-of-action", "id": "course-of-action--x", "name": "ignored"},
    ]


def test_empty_bundle_parses_to_empty_catalog():
    catalog = parse_bundle(b'{"type":"bundle","objects":[]}')
    assert catalog.tactics == []
    assert catalog.techniques == []
    assert catalog.citations == []


def test_malformed_json_reports_byte_offset():
    with pytest.raises(BundleParseError) as excinfo:
        parse_bundle(b'{"type":"bundle","objects":[}')
    assert excinfo.value.offset == 28


def test_missing_objects_array_is_schema_error():
    with pytest.raises(BundleSchemaError):
        parse_bundle(b'{"type":"bundle"}')


def test_small_bundle_catalog(small_bundle_objects):
    catalog = parse_bundle(bundle_bytes(small_bundle_objects))
    assert [t.id for t in catalog.tactics] == ["TA0002", "TA0011"]
    assert [t.id for t in catalog.techniques] == ["T1059", "T1059.001", "T1105"]
    by_id = catalog.technique_by_id()
    assert by_id["T1059"].parent_id is None
    assert not by_id["T1059"].is_subtechnique
    sub = by_id["T1059.001"]
    assert sub.is_subtechnique and sub.parent_id == "T1059"
    # no kill-chain phases of its own: inherits the parent's tactic
    assert sub.tactic_ids == frozenset({"TA0002"})
    assert by_id["T1105"].tactic_ids == frozenset({"TA0011"})


def test_report_technique_map_unions_procedures(small_bundle_objects):
    catalog = parse_bundle(bundle_bytes(small_bundle_objects))
    mapping = catalog.technique_citations
    key1 = normalize_citation_url("https://example.com/reports/alpha")
    key2 = normalize_citation_url("https://example.net/beta")
    assert mapping[key1] == frozenset({"T1059.001", "T1105"})
    assert mapping[key2] == frozenset({"T1105"})


def test_attribution_from_objects_and_procedures(small_bundle_objects):
    catalog = parse_bundle(bundle_bytes(small_bundle_objects))
    attribution = catalog.attribution
    key1 = normalize_citation_url("https://example.com/reports/alpha")
    key2 = normalize_citation_url("https://example.net/beta")
    # group and its tool both cite report1; the uses-relationships add nothing new
    assert attribution[key1] == frozenset({"G0001", "S0002", "S0003"})
    assert attribution[key2] == frozenset({"S0003"})


def test_attribution_group_and_tool_three_object_bundle():
    url = "https://example.org/combined"
    objects = [
        stix_attributor("intrusion-set", "G0100", "Group", citations=[("V", url)]),
        stix_attributor("tool", "S0100", "Tool", citations=[("V", url)]),
        stix_technique("T1000", "Placeholder", ["execution"]),
    ]
    catalog = parse_bundle(bundle_bytes(objects))
    assert catalog.attribution[normalize_citation_url(url)] == frozenset({"G0100", "S0100"})


def test_report_with_no_attributing_object_has_empty_set():
    url = "https://example.org/lonely"
    objects = [stix_technique("T1000", "Placeholder", ["execution"], citations=[("V", url)])]
    catalog = parse_bundle(bundle_bytes(objects))
    key = normalize_citation_url(url)
    assert catalog.attribution[key] == frozenset()
    assert catalog.technique_citations[key] == frozenset({"T1000"})


def test_citation_referenced_twice_by_same_technique_counts_once():
    url = "https://example.org/dup"
    technique = stix_technique("T1000", "Placeholder", ["execution"], citations=[("V", url)])
    attacker = stix_attributor("malware", "S0001", "M", citations=[])
    uses = stix_uses(attacker["id"], technique["id"], citations=[("V", url)])
    catalog = parse_bundle(bundle_bytes([technique, attacker, uses]))
    assert catalog.technique_citations[normalize_citation_url(url)] == frozenset({"T1000"})


def test_revoked_techniques_flagged_not_dropped():
    objects = [
        stix_technique("T1000", "Old", ["execution"], revoked=True),
        stix_technique("T1001", "Deprecated", ["execution"], deprecated=True),
        stix_tactic("TA0002", "Execution", "execution"),
    ]
    catalog = parse_bundle(bundle_bytes(objects))
    flags = {t.id: t.revoked_or_deprecated for t in catalog.techniques}
    assert flags == {"T1000": True, "T1001": True}


def test_duplicate_technique_ids_prefer_live_object():
    objects = [
        stix_technique("T1000", "Old name", ["execution"], revoked=True, stix_id="attack-pattern--a"),
        stix_technique("T1000", "New name", ["execution"], stix_id="attack-pattern--b"),
        stix_tactic("TA0002", "Execution", "execution"),
    ]
    catalog = parse_bundle(bundle_bytes(objects))
    assert len(catalog.techniques) == 1
    assert catalog.techniques[0].name == "New name"
    assert not catalog.techniques[0].revoked_or_deprecated


@pytest.mark.parametrize(
    "variant",
    [
        "HTTPS://Example.COM/reports/alpha",
        "https://example.com/reports/alpha/",
        "https://example.com/reports/alpha#section-2",
    ],
)
def test_url_normalization_merges_citation_variants(variant):
    canonical = normalize_citation_url("https://example.com/reports/alpha")
    assert normalize_citation_url(variant) == canonical


def test_parse_is_order_independent(small_bundle_objects):
    baseline = catalog_to_json(parse_bundle(bundle_bytes(small_bundle_objects)))
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(small_bundle_objects)
        rng.shuffle(shuffled)
        assert catalog_to_json(parse_bundle(bundle_bytes(shuffled))) == baseline


def test_spec_version_sniffed_from_objects():
    objects = [dict(stix_tactic("TA0002", "Execution", "execution"), spec_version="2.1")]
    raw = json.dumps({"type": "bundle", "objects": objects}).encode()
    assert parse_bundle(raw).spec_version == "2.1"


def test_spec_version_defaults_to_20():
    raw = json.dumps({"type": "bundle", "objects": []}).encode()
    assert parse_bundle(raw).spec_version == "2.0"


def test_catalog_json_round_trip(small_bundle_objects):
    catalog = parse_bundle(bundle_bytes(small_bundle_objects))
    text = catalog_to_json(catalog)
    restored = catalog_from_json(text)
    assert restored == catalog
    assert catalog_to_json(restored) == text


def test_citation_technique_pair_count_matches_raw_scan(small_bundle_objects):
    raw = bundle_bytes(small_bundle_objects)
    catalog = parse_bundle(raw)

    # Independent scan: walk the raw JSON and collect distinct
    # (normalized URL, technique id) pairs from attack-pattern references
    # and uses-relationship references.
    doc = json.loads(raw)
    stix_to_tech = {}
    for obj in doc["objects"]:
        if obj.get("type") != "attack-pattern":
            continue
        for ref in obj.get("external_references", []):
            if ref.get("source_name") == "mitre-attack" and ref.get("external_id"):
                stix_to_tech[obj["id"]] = ref["external_id"]
    expected = set()
    for obj in doc["objects"]:
        tech = None
        if obj.get("type") == "attack-pattern":
            tech = stix_to_tech.get(obj["id"])
        elif obj.get("type") == "relationship" and obj.get("relationship_type") == "uses":
            tech = stix_to_tech.get(obj.get("target_ref"))
        if tech is None:
            continue
        for ref in obj.get("external_references", []):
            if ref.get("url") and ref.get("source_name") != "mitre-attack":
                expected.add((normalize_citation_url(ref["url"]), tech))

    actual = {
        (key, tech) for key, techs in catalog.technique_citations.items() for tech in techs
    }
    assert actual == expected
