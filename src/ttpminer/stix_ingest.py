"""Parse ATT&CK STIX bundles into a typed catalog.

The catalog holds tactics, techniques/sub-techniques, the raw citation
entries found in object external references, and two derived maps keyed by
normalized citation URL: which techniques each cited report documents, and
which groups/malware/tools each cited report is attributed to.

Parsing is deterministic: objects other than relationships are processed in
(type, id) order, and relationships only add to sets and minima, so two
bundles with the same objects in different order produce identical catalogs.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring
from types import NoneType
from typing import Any, NamedTuple
from urllib.parse import urlsplit, urlunsplit

from .errors import BundleParseError, BundleSchemaError
from .io_utils import decode, reader, string_array

TECHNIQUE_ID_RE = re.compile(r"^T\d{4}(\.\d{3})?$")
TACTIC_ID_RE = re.compile(r"^TA\d{4}$")

# STIX object types whose citations attribute a group or malware to a report.
ATTRIBUTION_TYPES = frozenset({"intrusion-set", "malware", "tool"})

# external_reference source names that point back into the catalog itself,
# never at a CTI report.
_CATALOG_SOURCES = frozenset({"mitre-attack", "mitre-mobile-attack", "mitre-ics-attack"})


def normalize_citation_url(url: str) -> str:
    """Citation identity: lowercased scheme/host, no fragment, no trailing /."""
    parts = urlsplit(url.strip())
    if "[" in parts.netloc:  # check a bracketed host as urlsplit does from CPython 3.11 on, so 3.10 agrees
        import ipaddress
        host = parts.netloc.partition("[")[2].partition("]")[0]
        if host.startswith("v") and not re.fullmatch(r"v[a-fA-F0-9]+\..+", host):
            raise ValueError("IPvFuture address is invalid")
        if not host.startswith("v") and isinstance(ipaddress.ip_address(host), ipaddress.IPv4Address):
            raise ValueError("An IPv4 address cannot be in brackets")
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, ""))


class TacticRecord(NamedTuple):
    id: str
    name: str


class TechniqueRecord(NamedTuple):
    id: str
    name: str
    tactic_ids: frozenset[str]
    is_subtechnique: bool
    parent_id: str | None
    revoked_or_deprecated: bool


class CitationEntry(NamedTuple):
    key: str
    source_name: str
    url: str
    date_text: str | None


class AttackCatalog(NamedTuple):
    """Immutable-after-construction view of one ATT&CK STIX bundle.

    All lists are sorted by id/key; the maps cover every citation key (values
    may be empty sets).
    """

    spec_version: str
    tactics: list[TacticRecord]
    techniques: list[TechniqueRecord]
    citations: list[CitationEntry]
    attribution: dict[str, frozenset[str]]
    technique_citations: dict[str, frozenset[str]]

    def technique_ids(self) -> frozenset[str]:
        return frozenset(t.id for t in self.techniques)

    def technique_by_id(self) -> dict[str, TechniqueRecord]:
        return {t.id: t for t in self.techniques}


def _objects_in(obj: dict, field: str) -> list[dict]:
    """``obj[field]``, which must be an array of objects; absent, it reads as []."""
    items = obj.get(field, [])
    if type(items) is not list or not all(type(item) is dict for item in items):
        raise BundleSchemaError(f"{obj.get('id')}: {field} must be an array of objects")
    return items


def _mitre_external_id(obj: dict) -> str | None:
    for index, ref in enumerate(_objects_in(obj, "external_references")):
        source_name, external_id = ref.get("source_name"), ref.get("external_id")
        if type(source_name) in (list, dict) or (source_name in _CATALOG_SOURCES and external_id):
            if type(source_name) is not str or type(external_id) is not str:  # unhashable, or no id string
                _reject_mistyped(f"{obj.get('id')} external_references[{index}]",
                                 source_name=(str, source_name), external_id=(str, external_id))
            return external_id
    return None


def _phase_names(obj: dict) -> list[str]:
    """The phase names of ``obj``'s kill-chain phases in an ATT&CK kill chain."""
    names = []
    for index, phase in enumerate(_objects_in(obj, "kill_chain_phases")):
        chain, name = phase.get("kill_chain_name"), phase.get("phase_name")
        if type(chain) is not str or type(name) is not str:
            _reject_mistyped(f"{obj.get('id')} kill_chain_phases[{index}]",
                             kill_chain_name=(str | None, chain), phase_name=(str | None, name))
        if chain in _CATALOG_SOURCES and name:
            names.append(name)
    return names


def parse_bundle(raw: bytes | str) -> AttackCatalog:
    """Parse a STIX 2.x bundle into an :class:`AttackCatalog`.

    Tactics are read first, so each technique record is built as its object
    is read. Techniques are deduplicated by ATT&CK id (non-revoked entries
    win), sub-technique parents are linked by id prefix, and revoked/deprecated
    objects are flagged rather than dropped. Unknown object types are
    skipped. Raises :class:`BundleParseError` unless it is UTF-8 JSON nested
    no deeper than the decoder allows (its ``offset`` counts bytes), and
    :class:`BundleSchemaError` when the ``objects`` array is missing, the
    ``spec_version`` (the bundle's, else the first object's in (type, id)
    order) is not a string, a field the parser reads is mistyped (an
    object's type or id, a name, a flag, a reference, a kill-chain phase or
    a tactic shortname), or a cited url does not parse.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")  # drops the bytes before the parse
        bundle = json.loads(raw)
    except UnicodeDecodeError as exc:
        raise BundleParseError(f"not UTF-8 at byte offset {exc.start}", exc.start) from exc
    except json.JSONDecodeError as exc:
        offset = len(raw[:exc.pos].encode("utf-8", "surrogatepass"))  # exc.pos counts characters
        raise BundleParseError(f"malformed JSON at byte offset {offset}: {exc.msg}", offset) from exc
    except RecursionError as exc:
        raise BundleParseError(f"JSON nested too deeply ({exc})") from exc
    if not isinstance(bundle, dict) or not isinstance(bundle.get("objects"), list):
        raise BundleSchemaError("bundle has no 'objects' array")

    objects = [o for o in bundle["objects"] if isinstance(o, dict)]
    spec_version = bundle.get("spec_version")
    if spec_version in (None, ""):
        spec_version = _sniff_spec_version(objects)
    if type(spec_version) is not str:
        raise BundleSchemaError(f"spec_version must be a string, got {spec_version!r}")

    tactic_by_shortname: dict[str, str] = {}
    tactics: dict[str, TacticRecord] = {}
    techniques: dict[str, TechniqueRecord] = {}
    stix_to_technique: dict[str, str] = {}
    stix_to_attributor: dict[str, str] = {}
    # Citation identity is the normalized URL; each distinct raw URL is normalized once.
    keys: dict[str, str] = {}
    # key -> the least (source_name, url, description or "") citing it; a missing
    # description reads as "", which sorts first and, unlike None, compares with text
    citation_entries: dict[str, tuple[str, str, str]] = {}
    technique_citations: dict[str, set[str]] = {}
    attribution: dict[str, set[str]] = {}

    def cite(obj: dict, technique: str | None, attributor: str | None) -> None:
        """Count ``obj``'s report references for ``technique`` and ``attributor``."""
        refs = obj.get("external_references", [])  # typed inline, as this runs per relationship
        for index, ref in enumerate(refs if type(refs) is list else _objects_in(obj, "external_references")):
            if type(ref) is not dict:
                _objects_in(obj, "external_references")  # raises
            url, source_name, description = ref.get("url"), ref.get("source_name", ""), ref.get("description")
            if url is None:
                continue
            if type(url) is not str or type(source_name) is not str or type(description) not in (str, NoneType):
                _reject_mistyped(f"{obj.get('id')} external_references[{index}]", url=(str, url),
                                 source_name=(str, source_name), description=(str | None, description))
            if not url or source_name in _CATALOG_SOURCES:
                continue
            key = keys.get(url)
            if key is None:
                try:
                    key = keys[url] = normalize_citation_url(url)
                except ValueError as exc:  # urlsplit rejects the host, as in 'http://[broken/report'
                    raise BundleSchemaError(f"{obj.get('id')} external_references[{index}]: "
                                            f"url {url!r} is not a URL ({exc})") from None
            candidate = (source_name, url, description or "")
            prior = citation_entries.get(key)
            if prior is None:
                citation_entries[key] = candidate
                technique_citations[key] = set()
                attribution[key] = set()
            elif candidate < prior:
                citation_entries[key] = candidate
            if technique is not None:
                technique_citations[key].add(technique)
            if attributor is not None:
                attribution[key].add(attributor)

    # The order of the other objects decides which duplicate tactic and technique
    # wins and which attributor an id maps to, so they run sorted. Techniques name
    # their tactics by shortname, so the tactics are read first.
    ordered = sorted((o for o in objects if o.get("type") != "relationship"), key=_object_order)
    for obj in ordered:
        if obj.get("type") == "x-mitre-tactic":
            tid = _mitre_external_id(obj)
            if not tid or not TACTIC_ID_RE.match(tid):
                continue
            name, shortname = obj.get("name", ""), obj.get("x_mitre_shortname")
            if type(name) is not str or type(shortname) is not str:
                _reject_mistyped(str(obj.get("id")), name=(str, name), x_mitre_shortname=(str | None, shortname))
            tactics.setdefault(tid, TacticRecord(id=tid, name=name))
            if shortname:
                tactic_by_shortname[shortname] = tid
    # Citations only add to sets and minima, so they are counted as each object is read.
    for obj in ordered:
        otype = obj.get("type")
        if otype == "attack-pattern":
            tid = _mitre_external_id(obj)
            if not tid or not TECHNIQUE_ID_RE.match(tid):
                continue
            name, revoked = obj.get("name", ""), obj.get("revoked")
            deprecated, is_sub = obj.get("x_mitre_deprecated"), obj.get("x_mitre_is_subtechnique")
            if type(name) is not str or not {type(revoked), type(deprecated), type(is_sub)} <= {bool, NoneType}:
                _reject_mistyped(str(obj.get("id")), name=(str, name), revoked=(bool | None, revoked),
                                 x_mitre_deprecated=(bool | None, deprecated),
                                 x_mitre_is_subtechnique=(bool | None, is_sub))
            tactic_ids = frozenset(tactic_by_shortname[p] for p in _phase_names(obj) if p in tactic_by_shortname)
            is_sub = bool(is_sub) or "." in tid
            record = TechniqueRecord(id=tid, name=name, tactic_ids=tactic_ids, is_subtechnique=is_sub,
                                     parent_id=tid.split(".", 1)[0] if is_sub else None,
                                     revoked_or_deprecated=bool(revoked or deprecated))
            prior = techniques.get(tid)
            if prior is None or (prior.revoked_or_deprecated and not record.revoked_or_deprecated):
                techniques[tid] = record
            stix_to_technique[obj.get("id", "")] = tid
            cite(obj, tid, None)
        elif otype in ATTRIBUTION_TYPES:
            name = obj.get("name")
            if type(name) not in (str, NoneType):
                _reject_mistyped(str(obj.get("id")), name=(str | None, name))
            attributor = _mitre_external_id(obj) or name or obj.get("id", "")
            stix_to_attributor[obj.get("id", "")] = attributor
            cite(obj, None, attributor)

    # Relationships resolve against the finished index, so they run last, in file order.
    for obj in objects:
        if obj.get("type") == "relationship":
            if type(obj.get("id", "")) is not str:
                _object_order(obj)  # raises, as for any other object
            if obj.get("relationship_type") == "uses":
                source, target = obj.get("source_ref", ""), obj.get("target_ref", "")
                if type(source) is not str or type(target) is not str:
                    _reject_mistyped(str(obj.get("id")), source_ref=(str, source), target_ref=(str, target))
                if target in stix_to_technique:
                    cite(obj, stix_to_technique[target], stix_to_attributor.get(source))

    # A sub-technique without kill-chain phases of its own inherits its parent's tactics.
    inherited = [
        t._replace(tactic_ids=techniques[t.parent_id].tactic_ids)
        if t.is_subtechnique and not t.tactic_ids and t.parent_id in techniques else t
        for _, t in sorted(techniques.items())
    ]
    citations = [
        CitationEntry(key=key, source_name=sn, url=url, date_text=dt or None)
        for key, (sn, url, dt) in sorted(citation_entries.items())
    ]
    return AttackCatalog(
        spec_version=spec_version,
        tactics=sorted(tactics.values(), key=lambda t: t.id),
        techniques=inherited,
        citations=citations,
        attribution={k: frozenset(v) for k, v in sorted(attribution.items())},
        technique_citations={k: frozenset(v) for k, v in sorted(technique_citations.items())},
    )


def _reject_mistyped(where: str, **fields: tuple[Any, Any]) -> None:
    """BundleSchemaError naming ``where`` and the first field whose value does not read as its hint."""
    try:
        for name, (hint, value) in fields.items():
            reader(hint)(value, name)
    except ValueError as exc:
        raise BundleSchemaError(f"{where}: {exc}") from None


def _object_order(obj: dict) -> tuple[str, str]:
    order = obj.get("type", ""), obj.get("id", "")
    if type(order[0]) is not str or type(order[1]) is not str:
        _reject_mistyped(str(order[1]), type=(str, order[0]), id=(str, order[1]))
    return order


def _sniff_spec_version(objects: list[dict]) -> object:
    """The spec_version of the first object in (type, id) order that has one, else "2.0"."""
    first = min((o for o in objects if o.get("spec_version") not in (None, "")), key=_object_order, default=None)
    return "2.0" if first is None else first["spec_version"]


def catalog_to_json(catalog: AttackCatalog) -> str:
    """``canonical_json`` of the catalog's fields, byte for byte: one template per
    record, its keys in sorted order and each string through the encoder's own C
    function, as the pure-Python indenting encoder takes three times as long."""
    text = encode_basestring

    def block(rows: list[str], brackets: str) -> str:  # an array or object of rendered rows
        joined = ",\n".join(rows)
        return f"{brackets[0]}\n{joined}\n  {brackets[1]}" if rows else brackets

    def table(sets: dict[str, frozenset[str]]) -> str:
        return block([f"    {text(key)}: {string_array(sets[key], 4)}" for key in sorted(sets)], "{}")

    tactics = [f'    {{\n      "id": {text(t.id)},\n      "name": {text(t.name)}\n    }}' for t in catalog.tactics]
    techniques = [
        f'    {{\n      "id": {text(t.id)},\n      "is_subtechnique": {"true" if t.is_subtechnique else "false"},\n'
        f'      "name": {text(t.name)},\n      "parent_id": {"null" if t.parent_id is None else text(t.parent_id)},\n'
        f'      "revoked_or_deprecated": {"true" if t.revoked_or_deprecated else "false"},\n'
        f'      "tactic_ids": {string_array(t.tactic_ids, 6)}\n    }}' for t in catalog.techniques
    ]
    citations = [
        f'    {{\n      "date_text": {"null" if c.date_text is None else text(c.date_text)},\n'
        f'      "key": {text(c.key)},\n      "source_name": {text(c.source_name)},\n      "url": {text(c.url)}\n    }}'
        for c in catalog.citations
    ]
    return (f'{{\n  "attribution": {table(catalog.attribution)},\n  "citations": {block(citations, "[]")},\n'
            f'  "spec_version": {text(catalog.spec_version)},\n  "tactics": {block(tactics, "[]")},\n'
            f'  "technique_citations": {table(catalog.technique_citations)},\n'
            f'  "techniques": {block(techniques, "[]")}\n}}\n')


def catalog_from_json(text: str) -> AttackCatalog:
    """Inverse of :func:`catalog_to_json`, whose lists and keys are already sorted."""
    return decode(json.loads(text), AttackCatalog)
