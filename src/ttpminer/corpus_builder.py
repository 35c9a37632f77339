"""Build a deduplicated corpus of technique-sets from report metadata.

The pipeline here: load a report manifest (one record per citation, with
inclusion flags resolved by a human pass), pair up reports that attribute a
common group or malware, estimate the publication-gap threshold from
hand-labeled duplicate fractions (elbow rule), then merge duplicates via
connected components. Each component becomes one technique-set: the union of
its member reports' techniques, standing for one unique cyberattack.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .errors import ManifestError, ParameterError
from .io_utils import canonical_json, is_string_array, string_set
from .stix_ingest import AttackCatalog

logger = logging.getLogger(__name__)

DAYS_PER_MONTH = 30  # the dedup time unit: one month is exactly 30 days

EXCLUSION_REASONS = frozenset(
    {
        "not-english",
        "inaccessible",
        "not-incident",
        "fewer-than-two-techniques",
        "insecure-url",
        "no-attack-description",
        "non-report-url",
        "no-date",
    }
)

PAIR_KEY_SEP = "||"


_STRING = ("a string", lambda value: isinstance(value, str))
_STRINGS = ("an array of strings", is_string_array)
# Field -> (what it must be, its test), for the report and the unseen-report
# manifests alike. A field a record leaves out is not checked here.
MANIFEST_FIELDS = {
    "citation_key": _STRING, "id": _STRING, "url": _STRING,
    "include": ("a JSON boolean", lambda value: isinstance(value, bool)),
    "technique_ids": _STRINGS, "attribution": _STRINGS,
    "exclusion_reason": ("a string or null", lambda value: value is None or isinstance(value, str)),
}


def read_manifest_records(path: Path) -> list[dict]:
    """The records of a manifest file: a JSON array of objects.

    Each known field of a record must have its JSON type (``MANIFEST_FIELDS``);
    a ManifestError names the file, the record index and the field.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ManifestError(f"{path}: manifest must be a JSON array of records")
    for i, raw in enumerate(doc):
        if not isinstance(raw, dict):
            raise ManifestError(f"{path} record {i}: must be a JSON object, got {raw!r}")
        for name, (expected, valid) in MANIFEST_FIELDS.items():
            if name in raw and not valid(raw[name]):
                raise ManifestError(
                    f"{path} record {i}: field {name!r} must be {expected}, got {raw[name]!r}"
                )
    return doc


@dataclass(frozen=True)
class ReportRecord:
    citation_key: str
    url: str
    published: date | None
    technique_ids: frozenset[str]
    attribution: frozenset[str]
    include: bool
    exclusion_reason: str | None = None


@dataclass(frozen=True)
class DuplicateCandidatePair:
    a: str
    b: str
    common_attribution: frozenset[str]
    date_gap_days: int

    @property
    def key(self) -> str:
        return f"{self.a}{PAIR_KEY_SEP}{self.b}"


@dataclass
class ElbowSample:
    month_bucket: int
    sampled_pairs: list[str]
    duplicate_fraction: float | None = None


@dataclass(frozen=True)
class TechniqueSet:
    """One unique cyberattack: the merged technique-sets of duplicate reports."""

    attack_id: str
    member_citations: frozenset[str]
    techniques: frozenset[str]
    representative_date: date
    latest_date: date


@dataclass(frozen=True)
class CorpusStats:
    report_count: int
    total_mentions: int
    mean_techniques: float
    median_techniques: float
    distinct_techniques: int


def load_manifest(path: Path | str, catalog: AttackCatalog | None = None) -> list[ReportRecord]:
    """Load and validate a report-metadata manifest (JSON array of records).

    Enforces the record invariants: an included record has a publication date
    and at least two techniques, and carries an exclusion reason iff it is
    excluded. With a catalog, every technique id must resolve in it.
    """
    path = Path(path)
    known = catalog.technique_ids() if catalog is not None else None
    records: list[ReportRecord] = []
    seen_keys: set[str] = set()
    for i, raw in enumerate(read_manifest_records(path)):
        label = f"{path} record {i} ({raw.get('citation_key', '?')})"
        record = _parse_record(raw, label, known)
        if record.citation_key in seen_keys:
            raise ManifestError(f"{label}: duplicate citation_key")
        seen_keys.add(record.citation_key)
        records.append(record)
    return records


def _parse_record(raw: dict, label: str, known: frozenset[str] | None) -> ReportRecord:
    try:
        citation_key = raw["citation_key"]
        url = raw.get("url", citation_key)
        include = raw["include"]
        technique_ids = frozenset(raw.get("technique_ids", ()))
    except KeyError as exc:
        raise ManifestError(f"{label}: missing field {exc}") from exc

    published_raw = raw.get("published")
    published: date | None = None
    if published_raw is not None:
        try:
            published = date.fromisoformat(published_raw)
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{label}: published is not an ISO-8601 date: {published_raw!r}") from exc

    reason = raw.get("exclusion_reason")
    if reason is not None and reason not in EXCLUSION_REASONS:
        raise ManifestError(f"{label}: unknown exclusion_reason {reason!r}")
    if include and reason is not None:
        raise ManifestError(f"{label}: included record must not carry an exclusion_reason")
    if not include and reason is None:
        raise ManifestError(f"{label}: excluded record must carry an exclusion_reason")
    if include and len(technique_ids) < 2:
        raise ManifestError(
            f"{label}: included record maps {len(technique_ids)} technique(s); "
            "at least two are required (fewer-than-two-techniques)"
        )
    if include and published is None:
        raise ManifestError(f"{label}: included record must carry a publication date")
    if known is not None:
        unknown = technique_ids - known
        if unknown:
            raise ManifestError(f"{label}: unknown technique id(s) {sorted(unknown)}")

    return ReportRecord(
        citation_key=citation_key,
        url=url,
        published=published,
        technique_ids=technique_ids,
        attribution=frozenset(raw.get("attribution", ())),
        include=include,
        exclusion_reason=reason,
    )


def included_records(records: list[ReportRecord]) -> list[ReportRecord]:
    return [r for r in records if r.include]


def find_candidate_pairs(
    records: list[ReportRecord], max_gap_days: int | None = None
) -> list[DuplicateCandidatePair]:
    """Unordered report pairs attributing at least one common group/malware.

    With ``max_gap_days``, only the pairs published at most that many days
    apart: each attribution group is sorted by date and swept forward from
    each record up to the first one past the gap (a sorted neighbourhood),
    so the work grows with the pairs listed rather than with the group size
    squared. A pair sharing several attributions is listed once.
    """
    for record in records:
        if not record.include or record.published is None:
            raise ParameterError(f"record {record.citation_key} is not included and dated")

    by_attribution: dict[str, list[ReportRecord]] = {}
    for record in records:
        for attributed in record.attribution:
            by_attribution.setdefault(attributed, []).append(record)

    by_key = {r.citation_key: r for r in records}
    pair_keys: set[tuple[str, str]] = set()
    for group in by_attribution.values():
        group.sort(key=lambda r: r.published)
        days = [r.published.toordinal() for r in group]
        for i, first in enumerate(group):
            if max_gap_days is None:
                end = len(group)
            else:
                end = bisect_right(days, days[i] + max_gap_days, i + 1)
            a = first.citation_key
            for second in group[i + 1 : end]:
                b = second.citation_key
                pair_keys.add((a, b) if a < b else (b, a))

    pairs = []
    for a, b in sorted(pair_keys):
        ra, rb = by_key[a], by_key[b]
        pairs.append(
            DuplicateCandidatePair(
                a=a,
                b=b,
                common_attribution=ra.attribution & rb.attribution,
                date_gap_days=abs((ra.published - rb.published).days),
            )
        )
    return pairs


def month_bucket(date_gap_days: int) -> int:
    """Bucket i holds gaps in (i-1, i] months; a zero-day gap lands in bucket 1."""
    return max(1, math.ceil(date_gap_days / DAYS_PER_MONTH))


def sample_buckets(
    pairs: list[DuplicateCandidatePair], n: int, s: int, seed: int
) -> list[ElbowSample]:
    """Draw ``s`` pairs without replacement from each of the first ``n`` month buckets.

    Deterministic for a given seed. A bucket with fewer than ``s`` pairs is
    emitted whole with a warning; duplicate fractions are left unfilled for
    the manual labeling pass.
    """
    if n < 1 or s < 1:
        raise ParameterError(f"n and s must be >= 1 (got n={n}, s={s})")
    buckets: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for pair in pairs:
        bucket = month_bucket(pair.date_gap_days)
        if bucket <= n:
            buckets[bucket].append(pair.key)

    samples = []
    for i in range(1, n + 1):
        candidates = sorted(buckets[i])
        if len(candidates) < s:
            logger.warning(
                "bucket %d has only %d pair(s), fewer than sample size %d; emitting all",
                i,
                len(candidates),
                s,
            )
            chosen = candidates
        else:
            rng = random.Random(seed * 1_000_003 + i)
            chosen = sorted(rng.sample(candidates, s))
        samples.append(ElbowSample(month_bucket=i, sampled_pairs=chosen))
    return samples


def read_elbow_labels(path: Path | str) -> list[float]:
    """Read the manual duplicate labels CSV (bucket,pair_key,is_duplicate).

    Returns the duplicate fraction r_i per bucket, ordered by bucket. Buckets
    must form a contiguous range starting at 1.
    """
    path = Path(path)
    tallies: dict[int, list[bool]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"bucket", "pair_key", "is_duplicate"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ManifestError(f"{path}: expected columns {sorted(required)}")
        for row in reader:
            try:
                bucket = int(row["bucket"])
            except ValueError as exc:
                raise ManifestError(f"{path}: bad bucket {row['bucket']!r}") from exc
            flag = row["is_duplicate"].strip().lower()
            if flag not in {"0", "1", "true", "false"}:
                raise ManifestError(f"{path}: bad is_duplicate {row['is_duplicate']!r}")
            tallies.setdefault(bucket, []).append(flag in {"1", "true"})
    if not tallies:
        raise ManifestError(f"{path}: no label rows")
    if sorted(tallies) != list(range(1, max(tallies) + 1)):
        raise ManifestError(f"{path}: buckets must be contiguous from 1 (got {sorted(tallies)})")
    return [sum(tallies[i]) / len(tallies[i]) for i in range(1, max(tallies) + 1)]


def estimate_tau(fractions: list[float]) -> int:
    """Elbow rule: the month gap after which the duplicate fraction drops most.

    Returns the largest index i (1-based) maximizing r_i - r_{i+1}. Raises if
    no consecutive decrease exists.
    """
    if len(fractions) < 2:
        raise ParameterError("need at least two duplicate fractions")
    for r in fractions:
        if not 0.0 <= r <= 1.0:
            raise ParameterError(f"duplicate fraction {r} outside [0, 1]")
    drops = [fractions[i] - fractions[i + 1] for i in range(len(fractions) - 1)]
    best = max(drops)
    if best <= 0.0:
        raise ParameterError("no elbow detectable: duplicate fractions never decrease")
    # Largest index wins on ties; indices are 1-based month buckets.
    return max(i + 1 for i, drop in enumerate(drops) if drop == best)


class _UnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, k: str) -> str:
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic representative: lexicographically smaller root.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def merge_duplicates(
    records: list[ReportRecord], pairs: list[DuplicateCandidatePair], tau: int
) -> list[TechniqueSet]:
    """Merge duplicate reports into technique-sets via connected components.

    An edge joins a candidate pair whose publication gap is at most ``tau``
    months (tau * 30 days); every connected component of included citations
    becomes one technique-set with the union of member techniques.
    """
    if tau < 1:
        raise ParameterError(f"tau must be >= 1 (got {tau})")
    included = [r for r in records if r.include]
    by_key = {r.citation_key: r for r in included}
    uf = _UnionFind(by_key)
    max_gap = tau * DAYS_PER_MONTH
    for pair in pairs:
        if pair.date_gap_days <= max_gap and pair.a in by_key and pair.b in by_key:
            uf.union(pair.a, pair.b)

    components: dict[str, list[ReportRecord]] = {}
    for key in sorted(by_key):
        components.setdefault(uf.find(key), []).append(by_key[key])

    sets = []
    for members in components.values():
        keys = frozenset(r.citation_key for r in members)
        dates = [r.published for r in members]
        sets.append(
            TechniqueSet(
                attack_id=min(keys),
                member_citations=keys,
                techniques=frozenset().union(*(r.technique_ids for r in members)),
                representative_date=min(dates),
                latest_date=max(dates),
            )
        )
    return sorted(sets, key=lambda ts: ts.attack_id)


def corpus_stats(sets: list[TechniqueSet]) -> CorpusStats:
    if not sets:
        raise ParameterError("corpus is empty")
    sizes = [len(ts.techniques) for ts in sets]
    return CorpusStats(
        report_count=len(sets),
        total_mentions=sum(sizes),
        mean_techniques=sum(sizes) / len(sizes),
        median_techniques=statistics.median(sizes),
        distinct_techniques=len(frozenset().union(*(ts.techniques for ts in sets))),
    )


def corpus_to_json(sets: list[TechniqueSet]) -> str:
    return canonical_json(
        [
            {
                "attack_id": ts.attack_id,
                "member_citations": sorted(ts.member_citations),
                "techniques": sorted(ts.techniques),
                "representative_date": ts.representative_date.isoformat(),
                "latest_date": ts.latest_date.isoformat(),
            }
            for ts in sets
        ]
    )


def corpus_from_json(text: str) -> list[TechniqueSet]:
    doc = json.loads(text)
    return [
        TechniqueSet(
            attack_id=entry["attack_id"],
            member_citations=string_set(entry["member_citations"], "member_citations"),
            techniques=string_set(entry["techniques"], "techniques"),
            representative_date=date.fromisoformat(entry["representative_date"]),
            latest_date=date.fromisoformat(entry["latest_date"]),
        )
        for entry in doc
    ]
