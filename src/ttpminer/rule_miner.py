"""Pairwise association rule mining over technique-sets.

Rules here are single-antecedent/single-consequent, so mining reduces to
scoring unordered technique pairs: support and both directional confidences,
then the phi correlation coefficient and a chi-square significance test on
the pair's 2x2 contingency table. Every measure is computed from the pair's
four counts: co-occurrences, each technique's count and the number of sets.
Pairs passing the phi and significance thresholds are the recurring pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import AbstractSet, Mapping, NamedTuple, Sequence

# phi thresholds for the correlation-strength buckets; weak starts at the
# mining threshold itself.
STRENGTH_BUCKETS = (
    ("very_strong", 0.70),
    ("strong", 0.40),
    ("moderate", 0.30),
)
WEAK = "weak"

Itemsets = Sequence[AbstractSet[str]]


class CandidatePair(NamedTuple):
    tech_a: str
    tech_b: str
    cooccurrences: int
    count_a: int
    count_b: int
    n: int

    @property
    def support(self) -> float:
        return self.cooccurrences / self.n

    @property
    def confidence_ab(self) -> float:
        return self.cooccurrences / self.count_a

    @property
    def confidence_ba(self) -> float:
        return self.cooccurrences / self.count_b


class RecurringPair(NamedTuple):
    """A ``recurring_pairs`` row: a kept pair and its measures, its columns in order."""

    tech_a: str
    tech_b: str
    direction: str  # "ab" or "ba": the orientation with the higher confidence
    support: float
    confidence_ab: float
    confidence_ba: float
    phi: float
    chi2: float
    p_value: float
    lift: float
    strength: str
    relation_labels: frozenset[str]

    @property
    def key(self) -> tuple[str, str]:
        return (self.tech_a, self.tech_b)


def mine_pairs(corpus: Itemsets, min_support: float) -> list[CandidatePair]:
    """All unordered technique pairs whose support reaches ``min_support``.

    Equivalent to mining every ordered one-to-one rule and collapsing the two
    orientations; both directional confidences are kept. Pairs come sorted,
    with ``tech_a < tech_b``. Each technique gets a bitset (bit i: set i
    mentions it), and a pair's co-occurrences are the bits of their AND. A
    pair never occurs more often than either member, so only techniques whose
    own support reaches ``min_support`` are paired (the Apriori bound).
    """
    n = len(corpus)
    rows: defaultdict[str, bytearray] = defaultdict(lambda: bytearray((n + 7) // 8))
    for i, itemset in enumerate(corpus):
        byte, bit = i >> 3, 1 << (i & 7)
        for tech in itemset:
            rows[tech][byte] |= bit
    bitsets = {tech: int.from_bytes(row, "little") for tech, row in rows.items()}
    counts = {tech: bits.bit_count() for tech, bits in bitsets.items()}
    frequent = sorted(tech for tech, count in counts.items() if count / n >= min_support)
    pairs = []
    for i, tech_a in enumerate(frequent):
        bits_a = bitsets[tech_a]
        for tech_b in frequent[i + 1 :]:
            # min_support > 0, so a pair that never co-occurs fails this too.
            co = (bits_a & bitsets[tech_b]).bit_count()
            if co / n >= min_support:
                pairs.append(CandidatePair(tech_a, tech_b, co, counts[tech_a], counts[tech_b], n))
    return pairs


def phi(co: int, count_a: int, count_b: int, n: int) -> float:
    """Phi correlation coefficient of a pair seen together in ``co`` of ``n`` sets,
    its techniques in ``count_a`` and ``count_b`` of them.

    The numerator co*n - count_a*count_b (n11*n00 - n10*n01 of the pair's 2x2
    table) is computed in integer arithmetic, so exact independence yields
    exactly 0.0. A technique in every set or in none divides by zero.
    """
    return (co * n - count_a * count_b) / math.sqrt(count_a * (n - count_a) * count_b * (n - count_b))


def chi_square(co: int, count_a: int, count_b: int, n: int, yates: bool = False) -> tuple[float, float]:
    """Pearson chi-square statistic (1 dof) and its upper-tail p-value for the
    same counts as ``phi``, with the same zero division.

    Without the Yates continuity correction the statistic equals n * phi**2.
    """
    observed = (co, count_a - co, count_b - co, n - count_a - count_b + co)
    expected = (
        count_a * count_b / n,
        count_a * (n - count_b) / n,
        (n - count_a) * count_b / n,
        (n - count_a) * (n - count_b) / n,
    )
    correction = 0.5 if yates else 0.0
    statistic = 0.0
    for o, e in zip(observed, expected):  # left to right: sum() of floats is compensated from 3.12 on
        statistic += max(abs(o - e) - correction, 0.0) ** 2 / e
    # The chi-square upper tail with one degree of freedom is erfc(sqrt(x / 2)).
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


def strength_bucket(phi_value: float) -> str:
    for name, threshold in STRENGTH_BUCKETS:
        if phi_value >= threshold:
            return name
    return WEAK


def filter_pairs(
    candidates: Sequence[CandidatePair],
    phi_min: float = 0.20,
    alpha: float = 0.05,
    yates: bool = False,
    labels: Mapping[tuple[str, str], frozenset[str]] = {},
) -> list[RecurringPair]:
    """Keep candidates with phi >= ``phi_min`` and chi-square p < ``alpha``, each
    with its ``labels`` (relation names keyed by (tech_a, tech_b)).

    A pair with a degenerate marginal (a technique present in every set or in
    none) has no phi and is dropped before it is scored. The canonical direction
    is the orientation with the higher confidence, ties broken by technique id order.
    """
    kept = []
    for candidate in candidates:
        co, count_a, count_b, n = candidate.cooccurrences, candidate.count_a, candidate.count_b, candidate.n
        if count_a in (0, n) or count_b in (0, n):  # a zero marginal: phi would divide by zero
            continue
        phi_value = phi(co, count_a, count_b, n)
        if phi_value < phi_min:  # most candidates stop here, before the chi-square test
            continue
        statistic, p_value = chi_square(co, count_a, count_b, n, yates=yates)
        if p_value >= alpha:
            continue
        conf_ab, conf_ba = candidate.confidence_ab, candidate.confidence_ba
        kept.append(
            RecurringPair(
                tech_a=candidate.tech_a,
                tech_b=candidate.tech_b,
                support=candidate.support,
                confidence_ab=conf_ab,
                confidence_ba=conf_ba,
                phi=phi_value,
                chi2=statistic,
                p_value=p_value,
                lift=co * n / (count_a * count_b),
                strength=strength_bucket(phi_value),
                direction="ba" if conf_ba > conf_ab else "ab",
                relation_labels=labels.get((candidate.tech_a, candidate.tech_b), frozenset()),
            )
        )
    return kept
