from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttpminer.errors import BundleParseError, BundleSchemaError
from ttpminer.stix_ingest import (
    AttackCatalog,
    CitationEntry,
    TacticRecord,
    TechniqueRecord,
    catalog_from_json,
    catalog_to_json,
    normalize_citation_url,
    parse_bundle,
)

from . import oracles
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


@pytest.mark.parametrize(
    "raw, offset",
    [
        ('{"type":"bundle","objects":[}', 28),
        ('{"objects": [{"name": "Ünïcödé ☃☃"}, ]}', 45),  # 37 characters, 45 bytes, before the fault
    ],
)
@pytest.mark.parametrize("as_bytes", [True, False])
def test_malformed_json_reports_byte_offset(raw, offset, as_bytes):
    with pytest.raises(BundleParseError, match=f"at byte offset {offset}: ") as excinfo:
        parse_bundle(raw.encode("utf-8") if as_bytes else raw)
    assert excinfo.value.offset == offset


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


def test_tactics_resolve_whatever_the_stix_ids_sort_order():
    """A tactic whose STIX id sorts after every other object, two tactics sharing
    a shortname (the later id wins it), and a sub-technique whose live parent
    object sorts after it; the expected catalog is the one a parser gives that
    resolves phases only after reading every object."""
    late = {**stix_tactic("TA0003", "Persistence", "persistence"), "id": "x-mitre-tactic--zz"}
    first_execution = {**stix_tactic("TA0002", "Execution", "execution"), "id": "x-mitre-tactic--a"}
    second_execution = {**stix_tactic("TA0002", "Execution, again", "execution-again"), "id": "x-mitre-tactic--b"}
    objects = [
        late,
        stix_tactic("TA0005", "Shared D", "shared"),
        second_execution,
        stix_tactic("TA0004", "Shared C", "shared"),
        first_execution,
        stix_technique("T1000", "Late and shared", ["persistence", "shared"]),
        stix_technique("T1001.001", "Sub", None, stix_id="attack-pattern--a-sub"),
        stix_technique("T1001", "Parent, revoked", ["persistence"], revoked=True, stix_id="attack-pattern--0-parent"),
        stix_technique("T1001", "Parent", ["execution-again"], stix_id="attack-pattern--z-parent"),
    ]
    catalog = parse_bundle(bundle_bytes(objects))
    assert catalog.tactics == [TacticRecord("TA0002", "Execution"), TacticRecord("TA0003", "Persistence"),
                               TacticRecord("TA0004", "Shared C"), TacticRecord("TA0005", "Shared D")]
    assert catalog.techniques == [
        TechniqueRecord("T1000", "Late and shared", frozenset({"TA0003", "TA0005"}), False, None, False),
        TechniqueRecord("T1001", "Parent", frozenset({"TA0002"}), False, None, False),
        TechniqueRecord("T1001.001", "Sub", frozenset({"TA0002"}), True, "T1001", False),
    ]


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


@pytest.mark.parametrize("url, normalized", [
    ("http://[::1]/x", "http://[::1]/x"),
    ("HTTPS://[2001:DB8::1]:8443/r/", "https://[2001:db8::1]:8443/r"),
    ("http://[v1.fe]/x", "http://[v1.fe]/x"),  # an IPvFuture host
])
def test_a_valid_bracketed_host_normalizes(url, normalized):
    assert normalize_citation_url(url) == normalized


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


@pytest.mark.parametrize("value", [2.1, True, False, 0, ["2.1"]])
def test_non_string_bundle_spec_version_is_schema_error(value):
    raw = json.dumps({"type": "bundle", "spec_version": value, "objects": []}).encode()
    with pytest.raises(BundleSchemaError, match=rf"spec_version must be a string, got {re.escape(repr(value))}"):
        parse_bundle(raw)


@pytest.mark.parametrize("value", [2.1, True, False, {"major": 2}])
def test_non_string_sniffed_spec_version_is_schema_error(value):
    objects = [
        dict(stix_tactic("TA0002", "Execution", "execution"), spec_version="2.1"),
        dict(stix_technique("T1000", "First in (type, id) order"), spec_version=value),
    ]
    raw = json.dumps({"type": "bundle", "objects": objects}).encode()
    with pytest.raises(BundleSchemaError, match=r"spec_version must be a string"):
        parse_bundle(raw)


def test_sniffed_spec_version_is_the_first_in_type_id_order():
    objects = [
        dict(stix_tactic("TA0002", "Execution", "execution"), spec_version="2.1"),
        {"type": "relationship", "id": "relationship--z", "relationship_type": "uses", "spec_version": "2.0"},
        dict(stix_technique("T1000", "Placeholder"), spec_version=""),  # empty: counts as absent
    ]
    raw = json.dumps({"type": "bundle", "spec_version": "", "objects": objects}).encode()
    assert parse_bundle(raw).spec_version == "2.0"  # relationships count, and sort before tactics


def test_same_citation_with_and_without_description():
    url = "https://example.org/described"
    technique = stix_technique("T1000", "Placeholder", ["execution"], citations=[("V", url)])
    attacker = stix_attributor("malware", "S0001", "M")
    uses = stix_uses(attacker["id"], technique["id"])
    uses["external_references"] = [{"source_name": "V", "url": url, "description": "V, 2020"}]
    for objects in ([technique, attacker, uses], [uses, attacker, technique]):
        (entry,) = parse_bundle(bundle_bytes(objects)).citations
        assert (entry.source_name, entry.url, entry.date_text) == ("V", url, None)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("source_name", None, "source_name must be a string, got None"),
        ("url", 5, "url must be a string, got 5"),
        ("description", 5, "description must be a string or null, got 5"),
        ("url", "http://[broken/report", "url 'http://[broken/report' is not a URL (Invalid IPv6 URL)"),
    ],
)
def test_mistyped_cited_reference_is_schema_error(field, value, message):
    url = "https://example.org/report"
    attacker = stix_attributor("intrusion-set", "G0001", "G", citations=[("V", url), ("W", url)])
    attacker["external_references"][2][field] = value
    with pytest.raises(BundleSchemaError, match=re.escape(f"{attacker['id']} external_references[2]: {message}")):
        parse_bundle(bundle_bytes([attacker]))


@pytest.mark.parametrize("otype", ["attack-pattern", "x-mitre-tactic", "intrusion-set"])
def test_unhashable_catalog_source_name_is_schema_error(otype):
    obj = {"type": otype, "id": f"{otype}--1",
           "external_references": [{"source_name": ["x"], "external_id": "T1001"}]}
    with pytest.raises(BundleSchemaError, match=re.escape(f"{otype}--1 external_references[0]: "
                                                           "source_name must be a string, got ['x']")):
        parse_bundle(bundle_bytes([obj]))


ARRAY_SHAPES = ("x", ["x"], 5)  # what external_references or kill_chain_phases may wrongly hold


@pytest.mark.parametrize(
    "obj, path, field, value, message",
    [
        (stix_technique("T1000", "P", ["execution"]), ("kill_chain_phases", 0), "kill_chain_name",
         ["mitre-attack"], " kill_chain_phases[0]: kill_chain_name must be a string or null, got ['mitre-attack']"),
        (stix_technique("T1000", "P", ["execution"]), ("kill_chain_phases", 0), "phase_name",
         ["execution"], " kill_chain_phases[0]: phase_name must be a string or null, got ['execution']"),
        (stix_tactic("TA0002", "Execution", "execution"), (), "x_mitre_shortname", ["execution"],
         ": x_mitre_shortname must be a string or null, got ['execution']"),
        (stix_technique("T1000", "P"), ("external_references", 0), "external_id", ["T1000"],
         " external_references[0]: external_id must be a string, got ['T1000']"),
        (stix_tactic("TA0002", "Execution", "execution"), ("external_references", 0), "external_id", 1001,
         " external_references[0]: external_id must be a string, got 1001"),
        *((stix_technique("T1000", "P"), (), field, value, f": {field} must be an array of objects")
          for field in ("external_references", "kill_chain_phases") for value in ARRAY_SHAPES),
        (stix_tactic("TA0002", "Execution", "execution"), (), "external_references", ["x"],
         ": external_references must be an array of objects"),
        (stix_attributor("malware", "S0001", "M"), (), "external_references", 5,
         ": external_references must be an array of objects"),
        (stix_technique("T1000", "P"), (), "type", ["attack-pattern"],
         ": type must be a string, got ['attack-pattern']"),
        (stix_attributor("tool", "S0002", "T"), (), "type", None, ": type must be a string, got None"),
        (stix_technique("T1000", "P"), (), "id", 5, ": id must be a string, got 5"),
        (stix_technique("T1000", "P"), (), "name", 5, ": name must be a string, got 5"),
        (stix_tactic("TA0002", "Execution", "execution"), (), "name", None, ": name must be a string, got None"),
        (stix_attributor("intrusion-set", "G0001", "G"), (), "name", ["G"],
         ": name must be a string or null, got ['G']"),
        (stix_technique("T1000", "P"), (), "revoked", "false", ": revoked must be a boolean or null, got 'false'"),
        (stix_technique("T1000", "P"), (), "x_mitre_deprecated", 1,
         ": x_mitre_deprecated must be a boolean or null, got 1"),
        (stix_technique("T1000", "P"), (), "x_mitre_is_subtechnique", "true",
         ": x_mitre_is_subtechnique must be a boolean or null, got 'true'"),
    ],
)
def test_mistyped_catalog_field_is_schema_error(obj, path, field, value, message):
    holder = obj[path[0]][path[1]] if path else obj
    holder[field] = value
    with pytest.raises(BundleSchemaError, match=re.escape(f"{obj['id']}{message}")):
        parse_bundle(bundle_bytes([obj]))


def test_a_mistyped_tactic_is_reported_before_a_mistyped_technique():
    tactic, technique = stix_tactic("TA0002", "Execution", "execution"), stix_technique("T1000", "P")
    tactic["name"] = technique["name"] = 5
    with pytest.raises(BundleSchemaError, match=re.escape(f"{tactic['id']}: name must be a string, got 5")):
        parse_bundle(bundle_bytes([technique, tactic]))


@pytest.mark.parametrize("field, value", [("target_ref", ["attack-pattern--t1000"]), ("source_ref", {"id": "x"}),
                                          ("target_ref", None), ("source_ref", 5)])
def test_mistyped_uses_relationship_ref_is_schema_error(field, value):
    technique = stix_technique("T1000", "Placeholder", ["execution"])
    uses = stix_uses("malware--s0001", technique["id"])
    uses[field] = value
    for objects in ([uses], [technique, uses]):
        message = f"{uses['id']}: {field} must be a string, got {value!r}"
        with pytest.raises(BundleSchemaError, match=re.escape(message)):
            parse_bundle(bundle_bytes(objects))


@pytest.mark.parametrize("bundle_spec_version", ["2.1", ""])  # "": sniffed from the objects
@pytest.mark.parametrize("relationship_type", ["uses", "mitigates"])
@pytest.mark.parametrize("value", [5, None, ["relationship--x"]])
def test_non_string_relationship_id_is_schema_error(bundle_spec_version, relationship_type, value):
    technique = stix_technique("T1000", "Placeholder", ["execution"])
    relationship = {"type": "relationship", "id": value, "spec_version": "2.1", "relationship_type": relationship_type,
                    "source_ref": "malware--s0001", "target_ref": technique["id"]}
    with pytest.raises(BundleSchemaError, match=re.escape(f"{value}: id must be a string, got {value!r}")):
        parse_bundle(bundle_bytes([technique, relationship], spec_version=bundle_spec_version))


def test_relationship_without_an_id_parses():
    technique = stix_technique("T1000", "Placeholder", ["execution"])
    uses = stix_uses("malware--s0001", technique["id"])
    del uses["id"]
    assert parse_bundle(bundle_bytes([technique, uses])).techniques[0].id == "T1000"


@pytest.mark.parametrize("value", ARRAY_SHAPES)
def test_uses_relationship_references_must_be_an_array_of_objects(value):
    technique = stix_technique("T1000", "Placeholder", ["execution"])
    uses = dict(stix_uses("malware--s0001", technique["id"]), external_references=value)
    with pytest.raises(BundleSchemaError, match=re.escape(f"{uses['id']}: external_references must be an array "
                                                           "of objects")):
        parse_bundle(bundle_bytes([technique, uses]))


def test_fields_the_parser_does_not_read_are_not_typed():
    objects = [
        stix_technique("T1000", "Placeholder", ["execution"]),
        dict(stix_attributor("malware", "S0001", "M"), name=None),  # named by its ATT&CK id
        dict(stix_tactic("TA12", "Bad id", "bad"), name=5),  # not a tactic id: skipped
        {"type": "course-of-action", "id": "course-of-action--1", "external_references": "x", "name": 5},
        dict(stix_uses("malware--s0001", "attack-pattern--unknown"), external_references="x"),
    ]
    catalog = parse_bundle(bundle_bytes(objects))
    assert [t.id for t in catalog.techniques] == ["T1000"] and catalog.tactics == []


def test_refs_of_other_relationships_are_not_typed():
    technique = stix_technique("T1000", "Placeholder", ["execution"])
    mitigates = dict(stix_uses("course-of-action--1", technique["id"]), relationship_type="mitigates",
                     target_ref=[1])
    assert parse_bundle(bundle_bytes([technique, mitigates])).techniques[0].id == "T1000"


def test_reference_without_a_url_is_not_typed():
    attacker = stix_attributor("malware", "S0001", "M")
    attacker["external_references"].append({"source_name": None, "url": None, "description": 5})
    assert parse_bundle(bundle_bytes([attacker])).citations == []


# --- the one-pass parser against the brute-force oracle -------------------

URL_BASES = ("https://example.com/reports/alpha", "http://vendor.example.net/beta", "https://x.org/c?id=7")
TACTIC_POOL = (("TA0002", "execution"), ("TA0011", "command-and-control"), ("TA0003", "persistence"),
               ("TA12", "bad-id"))
TECHNIQUE_POOL = ("T1001", "T1001.001", "T1001.002", "T1002", "T1003.001", "T1004", "X1004")
ATTRIBUTOR_POOL = ("G0001", "G0002", "S0003", None)


@st.composite
def url_variants(draw):
    """A base URL, possibly with its scheme or host upper-cased, a trailing / or a fragment."""
    scheme, rest = draw(st.sampled_from(URL_BASES)).split("://")
    host, path = rest.split("/", 1)
    scheme = scheme.upper() if draw(st.booleans()) else scheme
    host = host.upper() if draw(st.booleans()) else host
    return f"{scheme}://{host}/{path}" + draw(st.sampled_from(["", "/", "#section-2", "/#top"]))


@st.composite
def references(draw):
    refs = []
    for _ in range(draw(st.integers(0, 3))):
        ref = {"source_name": draw(st.sampled_from(["Vendor A", "Vendor B", "mitre-attack"]))}
        url = draw(st.one_of(url_variants(), st.sampled_from(["", None])))
        if url is not None:
            ref["url"] = url
        description = draw(st.sampled_from([None, "", "Vendor A, 2020", "Vendor B, 2021"]))
        if description is not None:
            ref["description"] = description
        refs.append(ref)
    return refs


def with_external_id(source_name, external_id, refs):
    return [{"source_name": source_name, "external_id": external_id}, *refs] if external_id else refs


@st.composite
def stix_bundles(draw):
    """(bundle, the same bundle with its objects shuffled). Object ids are unique, ATT&CK ids are not."""
    objects = []
    for i in range(draw(st.integers(0, 4))):
        tid, shortname = draw(st.sampled_from(TACTIC_POOL))
        objects.append({"type": "x-mitre-tactic", "id": f"x-mitre-tactic--{i}", "name": f"tactic {i}",
                        "x_mitre_shortname": draw(st.sampled_from([shortname, "unknown-phase"])),
                        "external_references": with_external_id("mitre-attack", tid, [])})
    shortnames = [shortname for _, shortname in TACTIC_POOL] + ["unknown-phase"]
    for i in range(draw(st.integers(0, 6))):
        obj = {
            "type": "attack-pattern", "id": f"attack-pattern--{i}", "name": f"technique {i}",
            "kill_chain_phases": [
                {"kill_chain_name": draw(st.sampled_from(["mitre-attack", "other-chain"])), "phase_name": p}
                for p in draw(st.lists(st.sampled_from(shortnames), max_size=2))
            ],
            "external_references": with_external_id(
                draw(st.sampled_from(["mitre-attack", "mitre-mobile-attack"])),
                draw(st.sampled_from(TECHNIQUE_POOL)), draw(references())),
        }
        for flag in ("revoked", "x_mitre_deprecated", "x_mitre_is_subtechnique"):
            if draw(st.booleans()):
                obj[flag] = draw(st.booleans())
        if i == 0 and draw(st.booleans()):
            del obj["id"]  # read as "", which a relationship without a target_ref names
        objects.append(obj)
    for i in range(draw(st.integers(0, 4))):
        otype = draw(st.sampled_from(["intrusion-set", "malware", "tool"]))
        obj = {"type": otype, "id": f"{otype}--{i}",
               "external_references": with_external_id("mitre-attack", draw(st.sampled_from(ATTRIBUTOR_POOL)),
                                                       draw(references()))}
        if draw(st.booleans()):
            obj["name"] = f"attributor {i}"
        objects.append(obj)
    sources = [o["id"] for o in objects if o["type"] != "attack-pattern"] + ["intrusion-set--unknown", None]
    targets = [o["id"] for o in objects if o["type"] == "attack-pattern" and "id" in o]
    for i in range(draw(st.integers(0, 8))):
        relationship = {
            "type": "relationship", "id": f"relationship--{i}",
            "relationship_type": draw(st.sampled_from(["uses", "uses", "mitigates", "subtechnique-of"])),
            "source_ref": draw(st.sampled_from(sources)),
            "target_ref": draw(st.sampled_from(targets + ["attack-pattern--unknown", None])),
            "external_references": draw(references()),
        }
        objects.append({key: value for key, value in relationship.items() if value is not None})
    objects.append({"type": "course-of-action", "id": "course-of-action--0", "name": "ignored"})
    for obj in objects:
        if draw(st.integers(0, 3)) == 0:
            obj["spec_version"] = draw(st.sampled_from(["2.0", "2.1", ""]))
    bundle = {"type": "bundle", "objects": objects + draw(st.lists(st.sampled_from([5, "x", None]), max_size=1))}
    spec_version = draw(st.sampled_from([None, "", "2.1"]))
    if spec_version is not None:
        bundle["spec_version"] = spec_version
    return bundle, dict(bundle, objects=draw(st.permutations(bundle["objects"])))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stix_bundles())
def test_parse_bundle_equals_the_brute_force_catalog(bundles):
    bundle, shuffled = bundles
    text = catalog_to_json(parse_bundle(json.dumps(bundle)))
    assert json.loads(text) == oracles.catalog_document(bundle)
    assert catalog_to_json(parse_bundle(json.dumps(shuffled))) == text


# Text of the characters canonical JSON escapes or keeps as they are: a quote, a
# backslash, control characters, U+2028 and U+2029, which the ensure_ascii=False
# encoder leaves raw, non-ASCII letters and an astral character; or any text.
TEXT = st.text(st.sampled_from('aZ0 /"\\\x00\x1f\x7f\u2028\u2029é中😀'), max_size=6) | st.text(max_size=6)
STRING_SETS = st.frozensets(TEXT, max_size=3)
CATALOGS = st.builds(
    AttackCatalog,
    spec_version=TEXT,
    tactics=st.lists(st.builds(TacticRecord, TEXT, TEXT), max_size=3),
    techniques=st.lists(st.builds(TechniqueRecord, TEXT, TEXT, STRING_SETS, st.booleans(), st.none() | TEXT,
                                  st.booleans()), max_size=3),
    citations=st.lists(st.builds(CitationEntry, TEXT, TEXT, TEXT, st.none() | TEXT), max_size=3),
    attribution=st.dictionaries(TEXT, STRING_SETS, max_size=3),  # drawn in any key order
    technique_citations=st.dictionaries(TEXT, STRING_SETS, max_size=3),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(CATALOGS)
@example(AttackCatalog("", [], [], [], {}, {}))
def test_catalog_json_is_the_general_encoders_bytes(catalog):
    text = catalog_to_json(catalog)
    assert text == oracles.catalog_json(catalog)
    assert catalog_from_json(text) == catalog

