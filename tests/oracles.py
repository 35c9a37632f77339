"""Independent brute-force oracles the tests check the package against.

Nothing here may call into :mod:`ttpminer` computation paths; p-values and
tail probabilities use ``math.erfc`` directly rather than scipy.
"""

from __future__ import annotations

import json
import math
from itertools import combinations


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


def pearson_chi2(n11: int, n10: int, n01: int, n00: int) -> float:
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
        total += (observed - expected) ** 2 / expected
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


def nearest_rank(values, pct: float):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
