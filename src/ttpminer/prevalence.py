"""Technique frequency/trend analysis and the 3x3 frequency-trend matrix.

Frequency is the number of technique-sets mentioning a technique. Trend is a
Mann-Kendall test on the technique's yearly report share over a trailing
window of calendar years. Each technique lands in exactly one of nine
(trend x frequency-bin) cells; the high/increasing, high/no-trend and
medium/increasing cells define the prevalent techniques.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus_builder import TechniqueSet, median

INCREASING = "increasing"
NO_TREND = "no_trend"
DECREASING = "decreasing"
TRENDS = (INCREASING, NO_TREND, DECREASING)

LOW = "low"
MEDIUM = "medium"
HIGH = "high"
BINS = (LOW, MEDIUM, HIGH)

# Cells whose techniques count as prevalent: high & not fading, or rising fast.
PREVALENT_CELLS = ((INCREASING, HIGH), (NO_TREND, HIGH), (INCREASING, MEDIUM))

MIN_TREND_POINTS = 4  # a shorter series classifies as no_trend

YearTally = Mapping[int, tuple[int, Counter[str]]]  # year -> (technique-sets, sets mentioning each technique)


class YearlySeries(NamedTuple):
    technique_id: str
    years: tuple[int, ...]
    values: tuple[float, ...]


class TrendResult(NamedTuple):
    technique_id: str
    s_statistic: int
    variance: float
    z_score: float
    p_value: float
    classification: str


class MatrixCell(NamedTuple):
    """A ``prevalence_matrix`` row: one (trend, frequency bin) cell, its columns in order."""

    trend: str
    bin: str
    count: int
    median_pct: float
    mention_share: float
    technique_ids: tuple[str, ...]


class PrevalenceMatrix(NamedTuple):
    cells: dict[tuple[str, str], MatrixCell]
    report_pct: dict[str, float]  # technique id -> percentage of sets mentioning it


def year_tally(corpus: Iterable[TechniqueSet]) -> YearTally:
    """Per representative year (a merged set's earliest member date), ascending:
    the number of technique-sets and how many of them mention each technique."""
    by_year: dict[int, list[frozenset[str]]] = {}
    for ts in corpus:
        by_year.setdefault(ts.representative_date.year, []).append(ts.techniques)
    return {year: (len(sets), Counter(chain.from_iterable(sets))) for year, sets in sorted(by_year.items())}


def technique_frequency(tally: YearTally, universe: Iterable[str] | None = None) -> dict[str, int]:
    """Count how many technique-sets of the :func:`year_tally` mention each technique.

    With a ``universe`` (e.g. all cataloged technique ids), techniques absent
    from every set are included with count 0.
    """
    frequencies: Counter[str] = Counter()
    for _, mentions in tally.values():
        frequencies.update(mentions)
    if universe is not None:
        for tid in universe:
            frequencies.setdefault(tid, 0)
    return dict(frequencies)


def yearly_series(
    tally: YearTally, technique_ids: Iterable[str], years: tuple[int, ...]
) -> dict[str, YearlySeries]:
    """Per-technique report share in each of ``years``, keys of the :func:`year_tally`:
    the sets mentioning the technique that year over all sets that year."""
    columns = [tally[year] for year in years]
    return {tid: YearlySeries(tid, years, tuple(mentions[tid] / total for total, mentions in columns))
            for tid in sorted(technique_ids)}


def mann_kendall(series: YearlySeries, alpha: float = 0.05) -> TrendResult:
    """Mann-Kendall trend test with tie-corrected variance.

    S sums sign(x_j - x_i) over all i < j. Var(S) applies the tie correction
    [n(n-1)(2n+5) - sum_t t(t-1)(2t+5)] / 18 over tie-group sizes t. The
    Z score uses the +/-1 continuity shift and classification is two-sided
    at ``alpha``. Series shorter than ``MIN_TREND_POINTS`` classify as no_trend
    (the test has no power there).
    """
    x = series.values
    n = len(x)

    s = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            s += (x[j] > x[i]) - (x[j] < x[i])

    tie_sizes = Counter(x).values()
    var_s = (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in tie_sizes)) / 18.0

    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))  # two-sided normal tail

    if n < MIN_TREND_POINTS:
        classification = NO_TREND
    elif p < alpha and z > 0:
        classification = INCREASING
    elif p < alpha and z < 0:
        classification = DECREASING
    else:
        classification = NO_TREND
    return TrendResult(
        technique_id=series.technique_id,
        s_statistic=s,
        variance=var_s,
        z_score=z,
        p_value=p,
        classification=classification,
    )


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(pct/100 * N), 1-based."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile_bins(frequencies: Mapping[str, int]) -> dict[str, str]:
    """Split techniques into low/medium/high frequency bins.

    Boundaries are the 33rd- and 67th-percentile frequency values
    (nearest-rank): high above the 67th value, medium above the 33rd,
    low otherwise. Tied values always share a bin, so a boundary value
    falls in the lower bin.
    """
    values = list(frequencies.values())
    p67 = nearest_rank_percentile(values, 67)
    p33 = nearest_rank_percentile(values, 33)
    bins = {}
    for tid, freq in frequencies.items():
        if freq > p67:
            bins[tid] = HIGH
        elif freq > p33:
            bins[tid] = MEDIUM
        else:
            bins[tid] = LOW
    return bins


def build_matrix(
    bins: Mapping[str, str],
    trends: Mapping[str, TrendResult],
    frequencies: Mapping[str, int],
    n_sets: int,
) -> PrevalenceMatrix:
    """Place every binned technique into its (trend, frequency) cell.

    ``frequencies`` are the :func:`technique_frequency` counts of every binned
    technique over ``n_sets`` (at least one) technique-sets. Per cell: technique
    count, the median percentage of technique-sets mentioning its techniques,
    and the cell's share of all mentions across the analyzed techniques.
    """
    report_pct = {tid: 100.0 * frequencies[tid] / n_sets for tid in bins}

    members: dict[tuple[str, str], list[str]] = {
        (trend, fbin): [] for trend in TRENDS for fbin in BINS
    }
    for tid in sorted(bins):
        members[(trends[tid].classification, bins[tid])].append(tid)

    total_mentions = sum(frequencies[tid] for tid in bins)
    cells = {}
    for key, tids in members.items():
        cell_mentions = sum(frequencies[tid] for tid in tids)
        cells[key] = MatrixCell(
            trend=key[0],
            bin=key[1],
            count=len(tids),
            median_pct=median(report_pct[tid] for tid in tids) if tids else 0.0,
            mention_share=cell_mentions / total_mentions if total_mentions else 0.0,
            technique_ids=tuple(tids),
        )
    return PrevalenceMatrix(cells=cells, report_pct=report_pct)


def prevalent_techniques(matrix: PrevalenceMatrix) -> list[str]:
    """Techniques from the three prevalence cells, by descending report share."""
    chosen: list[str] = []
    for key in PREVALENT_CELLS:
        chosen.extend(matrix.cells[key].technique_ids)
    return sorted(chosen, key=lambda tid: (-matrix.report_pct[tid], tid))
