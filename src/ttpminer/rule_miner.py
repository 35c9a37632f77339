"""Pairwise association rule mining over technique-sets.

Rules here are single-antecedent/single-consequent, so mining reduces to
scoring unordered technique pairs: support and both directional confidences,
then the phi correlation coefficient and a chi-square significance test on
the pair's 2x2 contingency table. Pairs passing the phi and significance
thresholds are the recurring pairs.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations
from typing import AbstractSet, Mapping, Sequence

from .errors import ParameterError, UndefinedMeasureError

logger = logging.getLogger(__name__)

# phi thresholds for the correlation-strength buckets; weak starts at the
# mining threshold itself.
STRENGTH_BUCKETS = (
    ("very_strong", 0.70),
    ("strong", 0.40),
    ("moderate", 0.30),
)
WEAK = "weak"

Itemsets = Sequence[AbstractSet[str]]


@dataclass(frozen=True)
class ContingencyTable:
    """Joint presence/absence counts of two techniques across technique-sets."""

    n11: int
    n10: int
    n01: int
    n00: int

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def marginals(self) -> tuple[int, int, int, int]:
        """(row A present, row A absent, col B present, col B absent)."""
        return (
            self.n11 + self.n10,
            self.n01 + self.n00,
            self.n11 + self.n01,
            self.n10 + self.n00,
        )


@dataclass(frozen=True)
class CandidatePair:
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

    def table(self) -> ContingencyTable:
        return ContingencyTable(
            n11=self.cooccurrences,
            n10=self.count_a - self.cooccurrences,
            n01=self.count_b - self.cooccurrences,
            n00=self.n - self.count_a - self.count_b + self.cooccurrences,
        )


@dataclass(frozen=True)
class RecurringPair:
    tech_a: str
    tech_b: str
    support: float
    confidence_ab: float
    confidence_ba: float
    phi: float
    chi2: float
    p_value: float
    lift: float
    strength: str
    direction: str  # "ab" or "ba": the orientation with the higher confidence
    relation_labels: frozenset[str] = frozenset()

    @property
    def key(self) -> tuple[str, str]:
        return (self.tech_a, self.tech_b)


def mine_pairs(corpus: Itemsets, min_support: float) -> list[CandidatePair]:
    """All unordered technique pairs whose support reaches ``min_support``.

    Equivalent to mining every ordered one-to-one rule and collapsing the two
    orientations; both directional confidences are kept.
    """
    if not 0.0 < min_support <= 1.0:
        raise ParameterError(f"min_support must be in (0, 1], got {min_support}")
    if not corpus:
        raise ParameterError("corpus is empty")
    n = len(corpus)
    counts: Counter[str] = Counter()
    cooccur: Counter[tuple[str, str]] = Counter()
    for itemset in corpus:
        items = sorted(itemset)
        counts.update(items)
        cooccur.update(combinations(items, 2))
    return [
        CandidatePair(
            tech_a=a,
            tech_b=b,
            cooccurrences=co,
            count_a=counts[a],
            count_b=counts[b],
            n=n,
        )
        for (a, b), co in sorted(cooccur.items())
        if co / n >= min_support
    ]


def contingency(tech_a: str, tech_b: str, corpus: Itemsets) -> ContingencyTable:
    """2x2 presence/absence table of two distinct techniques over the corpus."""
    if tech_a == tech_b:
        raise ParameterError(f"cannot build a contingency table of {tech_a} with itself")
    n11 = n10 = n01 = n00 = 0
    for itemset in corpus:
        a, b = tech_a in itemset, tech_b in itemset
        if a and b:
            n11 += 1
        elif a:
            n10 += 1
        elif b:
            n01 += 1
        else:
            n00 += 1
    return ContingencyTable(n11=n11, n10=n10, n01=n01, n00=n00)


def _require_marginals(table: ContingencyTable) -> None:
    if any(m == 0 for m in table.marginals):
        raise UndefinedMeasureError(
            f"degenerate marginal in table ({table.n11},{table.n10},{table.n01},{table.n00})"
        )


def phi(table: ContingencyTable) -> float:
    """Phi correlation coefficient of a 2x2 table.

    The numerator n11*n00 - n10*n01 is computed in integer arithmetic, so
    exact independence yields exactly 0.0.
    """
    _require_marginals(table)
    a_present, a_absent, b_present, b_absent = table.marginals
    numerator = table.n11 * table.n00 - table.n10 * table.n01
    return numerator / math.sqrt(a_present * a_absent * b_present * b_absent)


def chi_square(table: ContingencyTable, yates: bool = False) -> tuple[float, float]:
    """Pearson chi-square statistic (1 dof) and its upper-tail p-value.

    Without the Yates continuity correction the statistic equals n * phi**2.
    """
    _require_marginals(table)
    n = table.n
    a_present, a_absent, b_present, b_absent = table.marginals
    observed = (table.n11, table.n10, table.n01, table.n00)
    expected = (
        a_present * b_present / n,
        a_present * b_absent / n,
        a_absent * b_present / n,
        a_absent * b_absent / n,
    )
    correction = 0.5 if yates else 0.0
    statistic = sum(
        max(abs(o - e) - correction, 0.0) ** 2 / e for o, e in zip(observed, expected)
    )
    # The chi-square upper tail with one degree of freedom is erfc(sqrt(x / 2)).
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


def strength_bucket(
    phi_value: float, buckets: tuple[tuple[str, float], ...] = STRENGTH_BUCKETS
) -> str:
    for name, threshold in buckets:
        if phi_value >= threshold:
            return name
    return WEAK


def filter_pairs(
    candidates: Sequence[CandidatePair],
    phi_min: float = 0.20,
    alpha: float = 0.05,
    yates: bool = False,
    buckets: tuple[tuple[str, float], ...] = STRENGTH_BUCKETS,
) -> list[RecurringPair]:
    """Keep candidates with phi >= ``phi_min`` and chi-square p < ``alpha``.

    Pairs with a degenerate marginal (a technique present in every set or in
    none) are dropped with a logged reason. The canonical direction is the
    orientation with the higher confidence, ties broken by technique id order.
    """
    if not 0.0 <= phi_min <= 1.0:
        raise ParameterError(f"phi_min must be in [0, 1], got {phi_min}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    kept = []
    for candidate in candidates:
        table = candidate.table()
        try:
            phi_value = phi(table)
            statistic, p_value = chi_square(table, yates=yates)
        except UndefinedMeasureError as exc:
            logger.info("dropping pair (%s, %s): %s", candidate.tech_a, candidate.tech_b, exc)
            continue
        if phi_value < phi_min or p_value >= alpha:
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
                lift=candidate.cooccurrences * candidate.n / (candidate.count_a * candidate.count_b),
                strength=strength_bucket(phi_value, buckets),
                direction="ba" if conf_ba > conf_ab else "ab",
            )
        )
    return kept


def attach_relation_labels(
    pairs: Sequence[RecurringPair], labels: Mapping[tuple[str, str], AbstractSet[str]]
) -> list[RecurringPair]:
    """Return pairs with relation labels merged in, keyed by (tech_a, tech_b)."""
    return [
        replace(pair, relation_labels=frozenset(labels.get(pair.key, frozenset())))
        for pair in pairs
    ]
