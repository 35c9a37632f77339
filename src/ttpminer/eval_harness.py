"""Evaluate mined findings against CTI reports published after the corpus cutoff.

Two checks: how many of the prevalent techniques show up in the unseen
reports (with an optional relaxation matching sub-techniques to their base
technique id), and how many recurring pairs are both possible (both
techniques mentioned somewhere) and actually co-present in a single report.
"""

from __future__ import annotations

from collections import Counter
from datetime import date
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus_builder import TechniqueSet, median, read_manifest_records
from .errors import ManifestError
from .rule_miner import RecurringPair


class UnseenReport(NamedTuple):
    id: str
    published: date
    technique_ids: frozenset[str]


def cutoff_date(corpus: Sequence[TechniqueSet]) -> date:
    """Latest publication date across all member citations of the corpus."""
    return max(ts.latest_date for ts in corpus)


def load_unseen_manifest(path: Path | str, cutoff: date | None = None) -> list[UnseenReport]:
    """Load unseen reports (JSON array); each must postdate the cutoff if given."""
    path = Path(path)
    reports = read_manifest_records(path, UnseenReport, _id_from_citation_key)
    if not reports:
        raise ManifestError(f"{path}: no unseen reports to evaluate against")
    seen: set[str] = set()
    for i, report in enumerate(reports):
        if not report.id:
            raise ManifestError(f"{path} record {i}: id must be non-empty")
        if report.id in seen:
            problem = "duplicate id"
        elif not report.technique_ids:
            problem = "technique_ids must be non-empty"
        elif cutoff is not None and report.published <= cutoff:
            problem = f"published {report.published} is not after the cutoff {cutoff}"
        else:
            seen.add(report.id)
            continue
        raise ManifestError(f"{path} record {i} ({report.id}): {problem}")
    return reports


def _id_from_citation_key(raw: dict) -> None:
    if "id" not in raw and "citation_key" in raw:
        raw["id"] = raw.pop("citation_key")


def parent_technique_id(technique_id: str) -> str:
    """Base technique id: T1059.001 -> T1059; parents map to themselves."""
    return technique_id.split(".", 1)[0]


def top_mentioned(unseen: Sequence[UnseenReport], k: int) -> list[str]:
    """The k most-reported technique ids, ties broken by ascending id."""
    counts = Counter(chain.from_iterable(report.technique_ids for report in unseen))
    return sorted(counts, key=lambda tid: (-counts[tid], tid))[:k]


def ev_a(
    prevalent: Sequence[str], unseen: Sequence[UnseenReport], parent_match: bool = False
) -> dict:
    """Coverage of the prevalent techniques in the unseen reports: ``evaluation.json``'s ``ev_a``."""
    key = parent_technique_id if parent_match else str  # a mention matches a technique of equal key
    prevalent_keys = Counter(map(key, prevalent))  # a duplicate prevalent id counts each time
    report_keys = [set(map(key, report.technique_ids)) for report in unseen]
    per_report = [sum(prevalent_keys[k] for k in keys & prevalent_keys.keys()) for keys in report_keys]
    mentioned = set().union(*report_keys)
    found = tuple(tid for tid in prevalent if key(tid) in mentioned)
    top20 = set(map(key, top_mentioned(unseen, 20)))
    overlap = tuple(tid for tid in prevalent if key(tid) in top20)
    return {
        "prevalent_found_count": len(found),
        "prevalent_found_ids": found,
        "mean_prevalent_per_report": sum(per_report) / len(per_report),
        "median_prevalent_per_report": median(per_report),
        "top20_overlap_count": len(overlap),
        "top20_overlap_ids": overlap,
    }


def ev_b(pairs: Sequence[RecurringPair], unseen: Sequence[UnseenReport]) -> dict:
    """Occurrence of recurring pairs in the unseen reports: ``evaluation.json``'s ``ev_b``.

    Valid pairs have both techniques mentioned somewhere in the unseen set;
    matched pairs are valid pairs co-present in at least one single report.
    The per-report mean of co-present valid pairs is reported over all
    reports and over the reports containing at least one pair.
    """
    universe = frozenset().union(*(report.technique_ids for report in unseen))
    valid = [p for p in pairs if p.tech_a in universe and p.tech_b in universe]

    per_report_hits = []
    matched: dict[tuple[str, str], RecurringPair] = {}
    for report in unseen:
        hits = [
            p for p in valid if p.tech_a in report.technique_ids and p.tech_b in report.technique_ids
        ]
        per_report_hits.append(len(hits))
        matched.update((p.key, p) for p in hits)

    matched_keys = tuple(sorted(matched))
    relation_counts = Counter(name for p in matched.values() for name in p.relation_labels)

    reports_with_pair = sum(1 for hits in per_report_hits if hits > 0)
    total_hits = sum(per_report_hits)
    return {
        "valid_pair_count": len(valid),
        "matched_pair_count": len(matched_keys),
        "matched_pairs": matched_keys,
        "reports_with_pair": reports_with_pair,
        "mean_valid_pairs_per_report": total_hits / len(unseen),
        "mean_valid_pairs_per_matching_report": total_hits / reports_with_pair if reports_with_pair else 0.0,
        "per_relation_matches": {name: relation_counts[name] for name in sorted(relation_counts)},
    }


def evaluate(
    prevalent: Sequence[str],
    pairs: Sequence[RecurringPair],
    unseen: Sequence[UnseenReport],
    cutoff: date,
    parent_match: bool = False,
) -> dict:
    """The ``evaluation.json`` document: the corpus cutoff, EV-A and EV-B."""
    return {
        "cutoff": cutoff.isoformat(),
        "unseen_report_count": len(unseen),
        "ev_a": ev_a(prevalent, unseen, parent_match=parent_match),
        "ev_b": ev_b(pairs, unseen),
    }


def summary_to_text(doc: dict, prevalent_total: int, pair_total: int) -> str:
    """``evaluation.txt``: the ``evaluate`` document for a reader."""
    a, b = doc["ev_a"], doc["ev_b"]
    lines = [
        f"Unseen reports: {doc['unseen_report_count']} (published after {doc['cutoff']})",
        "",
        "EV-A: prevalent technique coverage",
        f"  found in at least one report: {a['prevalent_found_count']} of {prevalent_total}",
        f"  mean / median prevalent techniques per report: "
        f"{a['mean_prevalent_per_report']:.2f} / {a['median_prevalent_per_report']:g}",
        f"  overlap with the top-20 most-reported techniques: {a['top20_overlap_count']}",
        "",
        "EV-B: recurring pair occurrence",
        f"  valid pairs (both techniques mentioned): {b['valid_pair_count']} of {pair_total}",
        f"  matched pairs (co-present in one report): {b['matched_pair_count']}",
        f"  reports containing at least one pair: {b['reports_with_pair']}",
        f"  mean co-present pairs per report: {b['mean_valid_pairs_per_report']:.2f}"
        f" (over matching reports: {b['mean_valid_pairs_per_matching_report']:.2f})",
    ]
    if b["per_relation_matches"]:
        lines.append("  matched pairs per relation:")
        for name, count in b["per_relation_matches"].items():
            lines.append(f"    {name}: {count}")
    return "\n".join(lines) + "\n"
