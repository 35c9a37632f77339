"""Build a deduplicated corpus of technique-sets from report metadata.

The pipeline here: load a report manifest (one record per citation, with
inclusion flags resolved by a human pass), estimate the publication-gap
threshold tau from hand-labeled duplicate fractions (elbow rule), link each
included report to its date neighbour among those attributing a common group
or malware, then merge duplicates via connected components. Each component
becomes one technique-set: the union of its member reports' techniques,
standing for one unique cyberattack. The same sorted sweep of each
attribution's reports lists the candidate pairs of the labeling sample.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from datetime import date
from functools import lru_cache
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .errors import ManifestError
from .io_utils import NUMBERS, csv_rows, read_text, reader, string_array

if TYPE_CHECKING:
    from .stix_ingest import AttackCatalog

DAYS_PER_MONTH = 30  # the dedup time unit: one month is exactly 30 days

EXCLUSION_REASONS = frozenset({"not-english", "inaccessible", "not-incident", "fewer-than-two-techniques",
                               "insecure-url", "no-attack-description", "non-report-url", "no-date"})

PAIR_KEY_SEP = "||"
SAMPLE_COLUMNS = ("bucket", "pair_key", "is_duplicate")  # the labeling sample, and the labels read back


def read_manifest_records(path: Path, record_type: type, stand_in: Callable[[dict], object]) -> list:
    """The records of a manifest file, a JSON array of objects, each decoded into
    ``record_type`` after ``stand_in`` has filled in the absent fields that no
    default can name. A ManifestError names the file, the record index and the field.
    """
    try:
        doc = json.loads(read_text(path, ManifestError))
    except (ValueError, RecursionError) as exc:  # not JSON, or nested past the decoder's depth
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ManifestError(f"{path}: manifest must be a JSON array of records")
    read, name = reader(record_type), record_type.__name__
    records = []
    for i, raw in enumerate(doc):
        if type(raw) is not dict:
            raise ManifestError(f"{path} record {i}: must be a JSON object, got {raw!r}")
        stand_in(raw)
        try:
            records.append(read(raw, name))
        except (KeyError, ValueError) as exc:
            problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ManifestError(f"{path} record {i}: {problem}") from None
    return records


class ReportRecord(NamedTuple):
    citation_key: str
    url: str  # an absent url reads as the citation_key
    include: bool
    published: date | None = None
    technique_ids: frozenset[str] = frozenset()
    attribution: frozenset[str] = frozenset()
    exclusion_reason: str | None = None


class DuplicateCandidatePair(NamedTuple):
    a: str
    b: str
    date_gap_days: int

    @property
    def key(self) -> str:
        return f"{self.a}{PAIR_KEY_SEP}{self.b}"


class TechniqueSet(NamedTuple):
    """One unique cyberattack: the merged technique-sets of duplicate reports."""

    attack_id: str
    member_citations: frozenset[str]
    techniques: frozenset[str]
    representative_date: date
    latest_date: date


def load_manifest(
    path: Path | str, catalog: AttackCatalog | None = None, catalog_name: Path | str = "the catalog"
) -> list[ReportRecord]:
    """Load and validate a report-metadata manifest (JSON array of records).

    Enforces the record invariants: an included record has a publication date
    and at least two techniques, and carries an exclusion reason iff it is
    excluded. With a catalog, every technique id must resolve in it, and an
    error names the catalog as ``catalog_name``.
    """
    path = Path(path)
    known = catalog.technique_ids() if catalog is not None else None
    records = read_manifest_records(path, ReportRecord, lambda raw: raw.setdefault("url", raw.get("citation_key")))
    seen_keys: set[str] = set()
    for i, record in enumerate(records):
        include, reason, technique_ids = record.include, record.exclusion_reason, record.technique_ids
        if reason is not None and reason not in EXCLUSION_REASONS:
            problem = f"unknown exclusion_reason {reason!r}"
        elif include and reason is not None:
            problem = "included record must not carry an exclusion_reason"
        elif not include and reason is None:
            problem = "excluded record must carry an exclusion_reason"
        elif include and len(technique_ids) < 2:
            problem = (
                f"included record maps {len(technique_ids)} technique(s); "
                "at least two are required (fewer-than-two-techniques)"
            )
        elif include and record.published is None:
            problem = "included record must carry a publication date"
        elif known is not None and not technique_ids <= known:
            problem = f"unknown technique id(s) {sorted(technique_ids - known)}, not in {catalog_name}"
        elif record.citation_key in seen_keys:
            problem = "duplicate citation_key"
        else:
            seen_keys.add(record.citation_key)
            continue
        raise ManifestError(f"{path} record {i} ({record.citation_key}): {problem}")
    return records


def _attribution_groups(records: list[ReportRecord]) -> list[list[tuple[int, str]]]:
    """The ``(day, citation_key)`` of the dated ``records`` per attribution that two or more of them
    share, each group sorted, and the groups in the order of their contents, whatever the record order."""
    by_attribution: dict[str, list[tuple[int, str]]] = {}
    for record in records:
        day = record.published.toordinal()
        for attributed in record.attribution:
            by_attribution.setdefault(attributed, []).append((day, record.citation_key))
    return sorted(sorted(group) for group in by_attribution.values() if len(group) > 1)


def find_candidate_pairs(records: list[ReportRecord], max_gap_days: float = math.inf) -> list[DuplicateCandidatePair]:
    """Unordered pairs of ``records`` attributing a common group/malware, at most ``max_gap_days`` apart.

    Each attribution's reports are swept forward in date order from each one up to the first past
    the gap (a sorted neighbourhood), so the work grows with the pairs listed rather than with the
    group size squared. Pairs come in the sweep's deterministic order (the groups by their contents,
    then by date and key); a pair sharing several attributions is listed once, in its first.
    """
    gaps: dict[tuple[str, str], int] = {}  # (a, b) with a < b -> days between them
    for group in _attribution_groups(records):
        for i, (day, a) in enumerate(group):
            for after, b in group[i + 1 : bisect_right(group, day + max_gap_days, i + 1, key=itemgetter(0))]:
                gaps[(a, b) if a < b else (b, a)] = after - day
    return [DuplicateCandidatePair(a, b, gap) for (a, b), gap in gaps.items()]


def date_neighbour_links(records: list[ReportRecord], tau: int) -> list[DuplicateCandidatePair]:
    """Each of the dated ``records`` linked to the one before it in (date, key) order within each of
    its attributions, when at most ``tau`` months earlier. A candidate pair within tau months is joined
    through every report dated between them, so merging these links gives the same components."""
    max_gap = tau * DAYS_PER_MONTH
    return [
        DuplicateCandidatePair(a, b, after - before)
        for group in _attribution_groups(records)
        for (before, a), (after, b) in zip(group, group[1:])
        if after - before <= max_gap
    ]


def month_bucket(date_gap_days: int) -> int:
    """Bucket i holds gaps in (i-1, i] months; a zero-day gap lands in bucket 1."""
    return max(1, math.ceil(date_gap_days / DAYS_PER_MONTH))


def sample_buckets(pairs: list[DuplicateCandidatePair], n: int, s: int, seed: int) -> dict[int, list[str]]:
    """Draw ``s`` pairs without replacement from each of the first ``n`` month buckets.

    Returns each bucket's sorted pair keys, by bucket. Deterministic for a
    given seed. A bucket with fewer than ``s`` pairs is emitted whole;
    duplicate fractions are left unfilled for the manual labeling pass.
    """
    buckets: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for pair in pairs:
        bucket = month_bucket(pair.date_gap_days)
        if bucket <= n:
            buckets[bucket].append(pair.key)

    for i, keys in buckets.items():
        keys.sort()
        if len(keys) >= s:
            buckets[i] = sorted(random.Random(seed * 1_000_003 + i).sample(keys, s))
    return buckets


def read_elbow_labels(path: Path | str) -> list[float]:
    """Read the manual duplicate labels CSV (columns ``SAMPLE_COLUMNS``).

    Returns the duplicate fraction r_i per bucket, ordered by bucket. Buckets
    must form a contiguous range starting at 1.
    """
    path = Path(path)
    tallies: dict[int, list[bool]] = {}
    for i, row in enumerate(csv_rows(path, set(SAMPLE_COLUMNS), ManifestError)):
        try:
            bucket = NUMBERS[int](row["bucket"])
        except ValueError as exc:
            raise ManifestError(f"{path} row {i}: bad bucket {row['bucket']!r}") from exc
        flag = row["is_duplicate"].strip().lower()
        if flag not in {"0", "1", "true", "false"}:
            raise ManifestError(f"{path} row {i}: bad is_duplicate {row['is_duplicate']!r}")
        tallies.setdefault(bucket, []).append(flag in {"1", "true"})
    if not tallies:
        raise ManifestError(f"{path}: no label rows")
    if sorted(tallies) != list(range(1, len(tallies) + 1)):  # len, not max: a bucket may be 10**20
        raise ManifestError(f"{path}: buckets must be contiguous from 1 (got {sorted(tallies)})")
    return [sum(tallies[i]) / len(tallies[i]) for i in range(1, len(tallies) + 1)]


def estimate_tau(fractions: list[float]) -> int:
    """Elbow rule: the month gap after which the duplicate fraction drops most.

    Returns the largest index i (1-based) maximizing r_i - r_{i+1}. Raises
    ValueError if no consecutive decrease exists.
    """
    if len(fractions) < 2:
        raise ValueError("need at least two duplicate fractions")
    drops = [fractions[i] - fractions[i + 1] for i in range(len(fractions) - 1)]
    best = max(drops)
    if best <= 0.0:
        raise ValueError("no elbow detectable: duplicate fractions never decrease")
    # Largest index wins on ties; indices are 1-based month buckets.
    return max(i + 1 for i, drop in enumerate(drops) if drop == best)


def merge_duplicates(
    records: list[ReportRecord], pairs: list[DuplicateCandidatePair], tau: int
) -> list[TechniqueSet]:
    """Merge duplicate reports into technique-sets via connected components.

    An edge joins a candidate pair whose publication gap is at most ``tau``
    months (tau * 30 days); every connected component of included citations
    becomes one technique-set with the union of member techniques, whatever the pair order.
    """
    by_key = {r.citation_key: r for r in records if r.include}
    max_gap = tau * DAYS_PER_MONTH
    parent: dict[str, str] = {}  # a union-find forest over the citations some edge touches
    for pair in pairs:
        if pair.date_gap_days <= max_gap and pair.a in by_key and pair.b in by_key:
            a, b = parent.setdefault(pair.a, pair.a), parent.setdefault(pair.b, pair.b)
            while a != parent[a]:
                parent[a] = a = parent[parent[a]]  # path halving
            while b != parent[b]:
                parent[b] = b = parent[parent[b]]
            parent[b] = a

    components: dict[str, list[str]] = {}
    for key, root in parent.items():
        while root != parent[root]:
            root = parent[root]
        components.setdefault(root, []).append(key)

    # A citation no edge touches is a technique-set of its own; tuple.__new__ skips TechniqueSet.__new__.
    new = tuple.__new__
    sets = [
        new(TechniqueSet, (key, frozenset((key,)), r.technique_ids, r.published, r.published))
        for key, r in by_key.items()
        if key not in parent
    ]
    for keys in components.values():
        members = [by_key[key] for key in keys]
        dates = [r.published for r in members]
        techniques = frozenset().union(*[r.technique_ids for r in members])
        sets.append(new(TechniqueSet, (min(keys), frozenset(keys), techniques, min(dates), max(dates))))
    return sorted(sets, key=itemgetter(0))


def median(values: Iterable) -> float:
    """What ``statistics.median`` returns for non-empty ``values``, of the same type."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def corpus_to_json(sets: list[TechniqueSet]) -> str:
    """``canonical_json`` of the corpus records, byte for byte, through its own C
    string encoder but without the slow pure-Python indenting encoder around it."""
    iso = lru_cache(maxsize=None)(date.isoformat)  # each distinct date rendered once
    records = []
    for attack_id, members, techniques, representative, latest in sets:
        encoded = encode_basestring(attack_id)  # a set of one citation lists its attack_id
        single = len(members) == 1 and attack_id in members
        listed = f"[\n      {encoded}\n    ]" if single else string_array(members, 4)
        records.append(
            f'  {{\n    "attack_id": {encoded},\n'
            f'    "latest_date": "{iso(latest)}",\n'
            f'    "member_citations": {listed},\n'
            f'    "representative_date": "{iso(representative)}",\n'
            f'    "techniques": {string_array(techniques, 4)}\n  }}'
        )
    records = ",\n".join(records)
    return f"[\n{records}\n]\n" if sets else "[]\n"


def corpus_from_json(text: str) -> list[TechniqueSet]:
    return reader(list[TechniqueSet])(json.loads(text), "corpus")
