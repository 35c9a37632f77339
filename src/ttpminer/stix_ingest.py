"""Parse ATT&CK STIX bundles into a typed catalog.

The catalog holds tactics, techniques/sub-techniques, the raw citation
entries found in object external references, and two derived maps keyed by
normalized citation URL: which techniques each cited report documents, and
which groups/malware/tools each cited report is attributed to.

Parsing is deterministic: objects are processed in sorted order, so two
bundles with the same objects in different order produce identical catalogs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit, urlunsplit

from .errors import BundleParseError, BundleSchemaError
from .io_utils import canonical_json, string_set

TECHNIQUE_ID_RE = re.compile(r"^T\d{4}(\.\d{3})?$")
TACTIC_ID_RE = re.compile(r"^TA\d{4}$")

# STIX object types whose citations attribute a group or malware to a report.
ATTRIBUTION_TYPES = frozenset({"intrusion-set", "malware", "tool"})

# external_reference source names that point back into the catalog itself,
# never at a CTI report.
_CATALOG_SOURCES = frozenset({"mitre-attack", "mitre-mobile-attack", "mitre-ics-attack"})


def is_subtechnique_id(technique_id: str) -> bool:
    return "." in technique_id


def parent_technique_id(technique_id: str) -> str:
    """Base technique id: T1059.001 -> T1059; parents map to themselves."""
    return technique_id.split(".", 1)[0]


def normalize_citation_url(url: str) -> str:
    """Citation identity: lowercased scheme/host, no fragment, no trailing /."""
    parts = urlsplit(url.strip())
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, ""))


@dataclass(frozen=True)
class TacticRecord:
    id: str
    name: str


@dataclass(frozen=True)
class TechniqueRecord:
    id: str
    name: str
    tactic_ids: frozenset[str]
    is_subtechnique: bool
    parent_id: str | None
    revoked_or_deprecated: bool


@dataclass(frozen=True)
class CitationEntry:
    key: str
    source_name: str
    url: str
    date_text: str | None


@dataclass
class AttackCatalog:
    """Immutable-after-construction view of one ATT&CK STIX bundle.

    All lists are sorted by id/key; the maps cover every citation key (values
    may be empty sets).
    """

    spec_version: str
    tactics: list[TacticRecord] = field(default_factory=list)
    techniques: list[TechniqueRecord] = field(default_factory=list)
    citations: list[CitationEntry] = field(default_factory=list)
    attribution: dict[str, frozenset[str]] = field(default_factory=dict)
    technique_citations: dict[str, frozenset[str]] = field(default_factory=dict)

    def technique_ids(self) -> frozenset[str]:
        return frozenset(t.id for t in self.techniques)

    def technique_by_id(self) -> dict[str, TechniqueRecord]:
        return {t.id: t for t in self.techniques}


def _mitre_external_id(obj: dict) -> str | None:
    for ref in obj.get("external_references", ()):
        if ref.get("source_name") in _CATALOG_SOURCES and ref.get("external_id"):
            return ref["external_id"]
    return None


def _citation_refs(obj: dict):
    """Yield (key, source_name, url, date_text) for report-like references."""
    for ref in obj.get("external_references", ()):
        url = ref.get("url")
        if not url or ref.get("source_name") in _CATALOG_SOURCES:
            continue
        yield (
            normalize_citation_url(url),
            ref.get("source_name", ""),
            url,
            ref.get("description") or None,
        )


def _is_flagged(obj: dict) -> bool:
    return bool(obj.get("revoked") or obj.get("x_mitre_deprecated"))


def parse_bundle(raw: bytes | str) -> AttackCatalog:
    """Parse a STIX 2.x bundle into an :class:`AttackCatalog`.

    Techniques are deduplicated by ATT&CK id (non-revoked entries win),
    sub-technique parents are linked by id prefix, and revoked/deprecated
    objects are flagged rather than dropped. Unknown object types are
    skipped. Raises :class:`BundleParseError` on malformed JSON and
    :class:`BundleSchemaError` when the ``objects`` array is missing.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        bundle = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BundleParseError(f"malformed JSON at byte offset {exc.pos}: {exc.msg}", exc.pos) from exc
    if not isinstance(bundle, dict) or not isinstance(bundle.get("objects"), list):
        raise BundleSchemaError("bundle has no 'objects' array")

    objects = sorted(
        (o for o in bundle["objects"] if isinstance(o, dict)),
        key=lambda o: (o.get("type", ""), o.get("id", "")),
    )
    spec_version = str(bundle.get("spec_version") or _sniff_spec_version(objects))

    tactic_by_shortname: dict[str, str] = {}
    tactics: dict[str, TacticRecord] = {}
    # technique id -> (name, phases, flagged, explicit subtechnique flag)
    technique_raw: dict[str, dict] = {}
    stix_to_technique: dict[str, str] = {}
    stix_to_attributor: dict[str, str] = {}

    citation_entries: dict[str, tuple[str, str, str | None]] = {}
    technique_citations: dict[str, set[str]] = {}
    attribution: dict[str, set[str]] = {}

    def record_citation(key: str, source_name: str, url: str, date_text: str | None) -> None:
        candidate = (source_name, url, date_text)
        prior = citation_entries.get(key)
        if prior is None or candidate < prior:
            citation_entries[key] = candidate
        technique_citations.setdefault(key, set())
        attribution.setdefault(key, set())

    for obj in objects:
        otype = obj.get("type")
        if otype == "x-mitre-tactic":
            tid = _mitre_external_id(obj)
            if not tid or not TACTIC_ID_RE.match(tid):
                continue
            tactics.setdefault(tid, TacticRecord(id=tid, name=obj.get("name", "")))
            shortname = obj.get("x_mitre_shortname")
            if shortname:
                tactic_by_shortname[shortname] = tid
        elif otype == "attack-pattern":
            tid = _mitre_external_id(obj)
            if not tid or not TECHNIQUE_ID_RE.match(tid):
                continue
            entry = {
                "name": obj.get("name", ""),
                "phases": [
                    p.get("phase_name")
                    for p in obj.get("kill_chain_phases", ())
                    if p.get("kill_chain_name") in _CATALOG_SOURCES and p.get("phase_name")
                ],
                "flagged": _is_flagged(obj),
                "is_sub": bool(obj.get("x_mitre_is_subtechnique")) or is_subtechnique_id(tid),
            }
            prior = technique_raw.get(tid)
            if prior is None or (prior["flagged"] and not entry["flagged"]):
                technique_raw[tid] = entry
            stix_to_technique[obj.get("id", "")] = tid
            for key, source_name, url, date_text in _citation_refs(obj):
                record_citation(key, source_name, url, date_text)
                technique_citations[key].add(tid)
        elif otype in ATTRIBUTION_TYPES:
            attributor = _mitre_external_id(obj) or obj.get("name") or obj.get("id", "")
            stix_to_attributor[obj.get("id", "")] = attributor
            for key, source_name, url, date_text in _citation_refs(obj):
                record_citation(key, source_name, url, date_text)
                attribution[key].add(attributor)

    # Relationships resolve against the object index, so they run last.
    for obj in objects:
        if obj.get("type") != "relationship" or obj.get("relationship_type") != "uses":
            continue
        target_technique = stix_to_technique.get(obj.get("target_ref", ""))
        source_attributor = stix_to_attributor.get(obj.get("source_ref", ""))
        if target_technique is None:
            continue
        for key, source_name, url, date_text in _citation_refs(obj):
            record_citation(key, source_name, url, date_text)
            technique_citations[key].add(target_technique)
            if source_attributor is not None:
                attribution[key].add(source_attributor)

    techniques = _assemble_techniques(technique_raw, tactic_by_shortname)
    citations = [
        CitationEntry(key=key, source_name=sn, url=url, date_text=dt)
        for key, (sn, url, dt) in sorted(citation_entries.items())
    ]
    return AttackCatalog(
        spec_version=spec_version,
        tactics=sorted(tactics.values(), key=lambda t: t.id),
        techniques=techniques,
        citations=citations,
        attribution={k: frozenset(v) for k, v in sorted(attribution.items())},
        technique_citations={k: frozenset(v) for k, v in sorted(technique_citations.items())},
    )


def _sniff_spec_version(objects: list[dict]) -> str:
    for obj in objects:
        if obj.get("spec_version"):
            return str(obj["spec_version"])
    return "2.0"


def _assemble_techniques(
    technique_raw: dict[str, dict], tactic_by_shortname: dict[str, str]
) -> list[TechniqueRecord]:
    def tactic_ids_of(entry: dict) -> frozenset[str]:
        return frozenset(
            tactic_by_shortname[p] for p in entry["phases"] if p in tactic_by_shortname
        )

    records = []
    for tid in sorted(technique_raw):
        entry = technique_raw[tid]
        tactic_ids = tactic_ids_of(entry)
        parent_id = parent_technique_id(tid) if entry["is_sub"] else None
        if entry["is_sub"] and not tactic_ids:
            # Sub-techniques without their own kill-chain phases inherit the parent's.
            parent = technique_raw.get(parent_id)
            if parent is not None:
                tactic_ids = tactic_ids_of(parent)
        records.append(
            TechniqueRecord(
                id=tid,
                name=entry["name"],
                tactic_ids=tactic_ids,
                is_subtechnique=entry["is_sub"],
                parent_id=parent_id,
                revoked_or_deprecated=entry["flagged"],
            )
        )
    return records


def catalog_to_json(catalog: AttackCatalog) -> str:
    """Canonical JSON for caching: UTF-8, sorted keys, LF line endings."""
    doc = {
        "spec_version": catalog.spec_version,
        "tactics": [vars(t) for t in catalog.tactics],
        "techniques": [{**vars(t), "tactic_ids": sorted(t.tactic_ids)} for t in catalog.techniques],
        "citations": [vars(c) for c in catalog.citations],
        "attribution": {k: sorted(v) for k, v in catalog.attribution.items()},
        "technique_citations": {k: sorted(v) for k, v in catalog.technique_citations.items()},
    }
    return canonical_json(doc)


def catalog_from_json(text: str) -> AttackCatalog:
    """Inverse of :func:`catalog_to_json`, whose lists and keys are already sorted."""
    doc = json.loads(text)
    return AttackCatalog(
        spec_version=doc["spec_version"],
        tactics=[TacticRecord(**row) for row in doc["tactics"]],
        techniques=[
            TechniqueRecord(**{**row, "tactic_ids": string_set(row["tactic_ids"], "tactic_ids")})
            for row in doc["techniques"]
        ],
        citations=[CitationEntry(**row) for row in doc["citations"]],
        attribution={k: string_set(v, "attribution") for k, v in doc["attribution"].items()},
        technique_citations={
            k: string_set(v, "technique_citations") for k, v in doc["technique_citations"].items()
        },
    )
