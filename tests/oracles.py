"""Independent brute-force oracles the tests check the package against.

Nothing here may call into :mod:`ttpminer` computation paths; p-values and
tail probabilities use ``math.erfc`` directly rather than scipy.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations
from urllib.parse import urlsplit, urlunsplit


def enumerate_pair_counts(itemsets, min_support):
    """Exhaustive pair mining: every 2-subset of the item universe, scanned.

    Returns [(a, b, cooccurrences, count_a, count_b, n)] for pairs at or
    above min_support, with a < b, in (a, b) order.
    """
    n = len(itemsets)
    universe = sorted(set().union(*itemsets)) if itemsets else []
    rows = []
    for a, b in combinations(universe, 2):
        both = sum(1 for s in itemsets if a in s and b in s)
        if both == 0 or both / n < min_support:
            continue
        count_a = sum(1 for s in itemsets if a in s)
        count_b = sum(1 for s in itemsets if b in s)
        rows.append((a, b, both, count_a, count_b, n))
    return rows


def enumerate_pair_stats(itemsets, min_support):
    """{(a, b): (support, confidence_ab, confidence_ba)} of :func:`enumerate_pair_counts`."""
    return {
        (a, b): (both / n, both / count_a, both / count_b)
        for a, b, both, count_a, count_b, n in enumerate_pair_counts(itemsets, min_support)
    }


def mk_s(values) -> int:
    """Mann-Kendall S by direct enumeration of all ordered pairs i < j."""
    s = 0
    for i, j in combinations(range(len(values)), 2):
        if values[j] > values[i]:
            s += 1
        elif values[j] < values[i]:
            s -= 1
    return s


def normal_sf(z: float) -> float:
    """Standard normal upper-tail probability via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf_1dof(x: float) -> float:
    """Upper tail of chi-square with one degree of freedom via erfc."""
    return math.erfc(math.sqrt(x / 2.0))


def phi_from_cells(n11: int, n10: int, n01: int, n00: int) -> float:
    num = n11 * n00 - n10 * n01
    den = math.sqrt((n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00))
    return num / den


def pearson_chi2(n11: int, n10: int, n01: int, n00: int, yates: bool = False) -> float:
    """Pearson's statistic; with ``yates`` each |O - E| shrinks by 0.5, but not below 0."""
    n = n11 + n10 + n01 + n00
    row1, row0 = n11 + n10, n01 + n00
    col1, col0 = n11 + n01, n10 + n00
    total = 0.0
    for observed, expected in (
        (n11, row1 * col1 / n),
        (n10, row1 * col0 / n),
        (n01, row0 * col1 / n),
        (n00, row0 * col0 / n),
    ):
        deviation = abs(observed - expected)
        if yates:
            deviation = max(deviation - 0.5, 0.0)
        total += deviation**2 / expected
    return total


def connected_by_paths(members, edges) -> bool:
    """BFS check that every member pair is joined by a path of given edges."""
    members = sorted(members)
    adjacency = {m: set() for m in members}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    for start in members:
        seen = {start}
        queue = [start]
        while queue:
            node = queue.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if seen != set(members):
            return False
    return True


def components_by_search(nodes, edges):
    """Connected components of ``nodes`` under ``edges`` (pairs outside ``nodes``
    are ignored), found by graph search from each node: frozensets, in no order."""
    adjacency = {node: set() for node in nodes}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    components, placed = [], set()
    for start in adjacency:
        if start in placed:
            continue
        seen, queue = {start}, [start]
        while queue:
            for neighbor in adjacency[queue.pop()] - seen:
                seen.add(neighbor)
                queue.append(neighbor)
        placed |= seen
        components.append(frozenset(seen))
    return components


def corpus_json(sets) -> str:
    """``corpus.json`` as the general JSON encoder writes it (canonical JSON:
    sorted keys, 2-space indent, no ASCII escaping, LF, trailing newline)."""
    records = [
        {
            "attack_id": ts.attack_id,
            "member_citations": sorted(ts.member_citations),
            "techniques": sorted(ts.techniques),
            "representative_date": ts.representative_date.isoformat(),
            "latest_date": ts.latest_date.isoformat(),
        }
        for ts in sets
    ]
    return json.dumps(records, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def catalog_json(catalog) -> str:
    """``catalog.json`` as the general JSON encoder writes it: every field of the
    catalog and of its records (``_asdict()``), each string set as a sorted array,
    in canonical JSON as :func:`corpus_json`."""

    def plain(value):
        if hasattr(value, "_asdict"):
            value = value._asdict()
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, list):
            return [plain(item) for item in value]
        return sorted(value) if isinstance(value, frozenset) else value

    return json.dumps(plain(catalog), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def nearest_rank(values, pct: float):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


_MITRE = ("mitre-attack", "mitre-mobile-attack", "mitre-ics-attack")


def catalog_document(bundle: dict) -> dict:
    """The catalog of a decoded STIX bundle, shaped as ``catalog.json``, by brute force.

    Every object is sorted by (type, id), relationships included, every
    reference URL is normalized where it is read, and each map is built by
    scanning all objects again, with no index kept between passes.
    """
    objects = sorted(
        (o for o in bundle["objects"] if isinstance(o, dict)),
        key=lambda o: (o.get("type", ""), o.get("id", "")),
    )

    def mitre_id(obj):
        ids = [r["external_id"] for r in obj.get("external_references", [])
               if r.get("source_name") in _MITRE and r.get("external_id")]
        return ids[0] if ids else None

    def normalized(url):
        parts = urlsplit(url.strip())
        return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path.rstrip("/"), parts.query, ""))

    def valid(obj, kind, pattern):
        return obj.get("type") == kind and re.fullmatch(pattern, mitre_id(obj) or "") is not None

    tactic_objects = [o for o in objects if valid(o, "x-mitre-tactic", r"TA\d{4}")]
    technique_objects = [o for o in objects if valid(o, "attack-pattern", r"T\d{4}(\.\d{3})?")]
    attributor_objects = [o for o in objects if o.get("type") in ("intrusion-set", "malware", "tool")]

    tactics = {}
    for obj in reversed(tactic_objects):  # the first object with an id names the tactic
        tactics[mitre_id(obj)] = obj.get("name", "")
    shortnames = {o["x_mitre_shortname"]: mitre_id(o) for o in tactic_objects if o.get("x_mitre_shortname")}

    def flagged(obj):
        return bool(obj.get("revoked") or obj.get("x_mitre_deprecated"))

    def own_tactics(obj):
        return {shortnames[p["phase_name"]] for p in obj.get("kill_chain_phases", [])
                if p.get("kill_chain_name") in _MITRE and p.get("phase_name") in shortnames}

    def winner(tid):  # the first live object with the id, else the first object
        copies = [o for o in technique_objects if mitre_id(o) == tid]
        return next((o for o in copies if not flagged(o)), copies[0])

    techniques = []
    for tid in sorted({mitre_id(o) for o in technique_objects}):
        obj = winner(tid)
        is_sub = bool(obj.get("x_mitre_is_subtechnique")) or "." in tid
        parent = tid.split(".")[0] if is_sub else None
        tactic_ids = own_tactics(obj)
        if is_sub and not tactic_ids and any(mitre_id(o) == parent for o in technique_objects):
            tactic_ids = own_tactics(winner(parent))
        techniques.append({
            "id": tid, "name": obj.get("name", ""), "tactic_ids": sorted(tactic_ids),
            "is_subtechnique": is_sub, "parent_id": parent, "revoked_or_deprecated": flagged(obj),
        })

    def last_with_stix_id(candidates, stix_id):
        matches = [o for o in candidates if o.get("id", "") == stix_id]
        return matches[-1] if matches else None

    def attributor_of(obj):
        return mitre_id(obj) or obj.get("name") or obj.get("id", "")

    # (object, technique ids, attributors) for every object whose references count
    citing = [(o, {mitre_id(o)}, set()) for o in technique_objects]
    citing += [(o, set(), {attributor_of(o)}) for o in attributor_objects]
    for obj in objects:
        if obj.get("type") != "relationship" or obj.get("relationship_type") != "uses":
            continue
        target = last_with_stix_id(technique_objects, obj.get("target_ref", ""))
        if target is None:
            continue
        source = last_with_stix_id(attributor_objects, obj.get("source_ref", ""))
        citing.append((obj, {mitre_id(target)}, {attributor_of(source)} if source else set()))

    refs = [
        (normalized(ref["url"]), ref, techs, attributors)
        for obj, techs, attributors in citing
        for ref in obj.get("external_references", [])
        if ref.get("url") and ref.get("source_name") not in _MITRE
    ]
    keys = sorted({key for key, *_ in refs})

    def entry(key):  # the least (source_name, url, description), a missing description first
        source_name, url, description = min(
            (r.get("source_name", ""), r["url"], r.get("description") or "") for k, r, _, _ in refs if k == key
        )
        return {"key": key, "source_name": source_name, "url": url, "date_text": description or None}

    if bundle.get("spec_version"):
        spec_version = bundle["spec_version"]
    else:
        spec_version = next((o["spec_version"] for o in objects if o.get("spec_version")), "2.0")
    return {
        "spec_version": spec_version,
        "tactics": [{"id": tid, "name": tactics[tid]} for tid in sorted(tactics)],
        "techniques": techniques,
        "citations": [entry(key) for key in keys],
        "attribution": {key: sorted(set().union(*(a for k, _, _, a in refs if k == key))) for key in keys},
        "technique_citations": {key: sorted(set().union(*(t for k, _, t, _ in refs if k == key))) for key in keys},
    }


def ev_a_fields(prevalent, reports, parent_match):
    """The EV-A result fields for ``prevalent`` ids against ``reports`` (sets of mentioned
    ids), by testing every (prevalent id, mentioned id) pair literally: the same id, or,
    with ``parent_match``, the same base id (the part before the first ".")."""

    def matches(tid, mentioned):
        return any(m == tid or (parent_match and m.split(".")[0] == tid.split(".")[0]) for m in mentioned)

    found = tuple(tid for tid in prevalent if any(matches(tid, report) for report in reports))
    per_report = sorted(sum(1 for tid in prevalent if matches(tid, report)) for report in reports)
    middle = len(per_report) // 2
    counts = {}
    for report in reports:
        for tid in report:
            counts[tid] = counts.get(tid, 0) + 1
    top20 = sorted(counts, key=lambda tid: (-counts[tid], tid))[:20]
    overlap = tuple(tid for tid in prevalent if matches(tid, top20))
    return {
        "prevalent_found_count": len(found),
        "prevalent_found_ids": found,
        "mean_prevalent_per_report": sum(per_report) / len(per_report),
        "median_prevalent_per_report": (
            per_report[middle] if len(per_report) % 2 else (per_report[middle - 1] + per_report[middle]) / 2
        ),
        "top20_overlap_count": len(overlap),
        "top20_overlap_ids": overlap,
    }
