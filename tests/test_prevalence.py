from __future__ import annotations

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttpminer.prevalence import (
    DECREASING,
    HIGH,
    INCREASING,
    LOW,
    MEDIUM,
    NO_TREND,
    YearlySeries,
    build_matrix,
    mann_kendall,
    nearest_rank_percentile,
    percentile_bins,
    prevalent_techniques,
    technique_frequency,
    year_tally,
    yearly_series,
)

from . import oracles
from .conftest import make_set


def series(values, tid="T1"):
    return YearlySeries(technique_id=tid, years=tuple(range(2018, 2018 + len(values))), values=tuple(values))


class TestFrequency:
    def test_counts_sets_containing_technique(self):
        corpus = [
            make_set("a", ["T1", "T2"], "2020-01-01"),
            make_set("b", ["T1"], "2020-02-01"),
            make_set("c", ["T2", "T3"], "2021-01-01"),
        ]
        assert technique_frequency(year_tally(corpus)) == {"T1": 2, "T2": 2, "T3": 1}

    def test_universe_fills_zeros(self):
        corpus = [make_set("a", ["T1"], "2020-01-01")]
        freq = technique_frequency(year_tally(corpus), universe=["T1", "T2"])
        assert freq == {"T1": 1, "T2": 0}

    def test_two_identical_sets(self):
        corpus = [make_set("a", ["T1"], "2020-01-01"), make_set("b", ["T1"], "2020-01-02")]
        assert technique_frequency(year_tally(corpus))["T1"] == 2


class TestYearlySeries:
    def test_shares_divide_by_yearly_totals(self):
        corpus = [
            make_set("a", ["T1", "T2"], "2021-01-01"),
            make_set("b", ["T1"], "2021-06-01"),
            make_set("c", ["T2"], "2022-01-01"),
        ]
        result = yearly_series(year_tally(corpus), ["T1", "T2"], (2021, 2022))
        assert result["T1"].years == (2021, 2022)
        assert result["T1"].values == (1.0, 0.0)
        assert result["T2"].values == (0.5, 1.0)


MENTIONED = ("T1", "T2", "T3", "T4")
UNMENTIONED = ("U1", "U2")  # universe ids no drawn set mentions


@st.composite
def tallied_corpora(draw):
    """A corpus over a few years (some holding a single set) and a trailing window
    of ``k`` years, often longer than the years the corpus spans."""
    rows = draw(st.lists(
        st.tuples(st.integers(2015, 2022), st.frozensets(st.sampled_from(MENTIONED), min_size=1)),
        min_size=1, max_size=25,
    ))
    corpus = [make_set(f"s{i}", techniques, f"{year}-0{i % 9 + 1}-01") for i, (year, techniques) in enumerate(rows)]
    return corpus, draw(st.integers(1, 10))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tallied_corpora())
@example(([make_set("a", ["T1", "T2"], "2019-01-01"), make_set("b", ["T2"], "2021-05-01"),
           make_set("c", ["T1", "T3"], "2021-07-01")], 8))
def test_tally_matches_a_brute_force_count(drawn):
    corpus, k = drawn
    universe = MENTIONED + UNMENTIONED
    tally = year_tally(corpus)

    assert technique_frequency(tally, universe) == {
        tid: sum(tid in ts.techniques for ts in corpus) for tid in universe
    }
    years = tuple(sorted({ts.representative_date.year for ts in corpus})[-k:])
    assert tuple(tally)[-k:] == years
    expected = {}
    for tid in sorted(universe):
        shares = []
        for year in years:
            in_year = [ts for ts in corpus if ts.representative_date.year == year]
            shares.append(sum(tid in ts.techniques for ts in in_year) / len(in_year))
        expected[tid] = YearlySeries(tid, years, tuple(shares))
    assert yearly_series(tally, universe, years) == expected


class TestMannKendall:
    def test_monotone_increasing_classifies_increasing(self):
        result = mann_kendall(series([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert result.s_statistic == 10
        assert result.classification == INCREASING

    def test_monotone_decreasing_classifies_decreasing(self):
        result = mann_kendall(series([0.5, 0.4, 0.3, 0.2, 0.1]))
        assert result.s_statistic == -10
        assert result.classification == "decreasing"

    def test_constant_series_is_no_trend(self):
        result = mann_kendall(series([0.2, 0.2, 0.2, 0.2, 0.2]))
        assert result.s_statistic == 0
        assert result.z_score == 0.0
        assert result.classification == NO_TREND

    def test_derived_example_with_ties(self):
        # S by direct pair enumeration is -7; value 0.1 ties twice, so
        # Var(S) = (5*4*15 - 2*1*9)/18 and the normal p-value exceeds 0.05.
        values = [0.3, 0.1, 0.2, 0.1, 0.0]
        result = mann_kendall(series(values), alpha=0.05)
        assert result.s_statistic == oracles.mk_s(values) == -7
        assert result.variance == pytest.approx(282 / 18, rel=1e-12)
        expected_z = (-7 + 1) / math.sqrt(282 / 18)
        assert result.z_score == pytest.approx(expected_z, rel=1e-12)
        assert result.p_value == pytest.approx(2 * oracles.normal_sf(abs(expected_z)), rel=1e-9)
        assert result.classification == NO_TREND

    def test_short_series_reports_no_trend_without_logging(self, caplog):
        """The prevalence stage reports a short window once per run; the kernel stays silent.
        Three points make no trend call, though their p ~ 0.296 is below alpha = 0.5."""
        with caplog.at_level("DEBUG"):
            result = mann_kendall(series([0.1, 0.2, 0.3]), alpha=0.5)
        assert result.p_value < 0.5
        assert result.classification == NO_TREND
        assert caplog.records == []

    @pytest.mark.parametrize(
        "values, expected", [([0.1, 0.2, 0.3, 0.4], INCREASING), ([0.4, 0.3, 0.2, 0.1], DECREASING)]
    )
    def test_four_points_are_enough_for_a_trend_call(self, values, expected):
        """A strictly monotone series of MIN_TREND_POINTS = 4 years: S = +-6, p ~ 0.089."""
        result = mann_kendall(series(values), alpha=0.1)
        assert result.p_value == pytest.approx(0.0894, abs=1e-4)
        assert result.classification == expected

    def test_s_matches_bruteforce_enumeration(self):
        for values in product((0, 1, 2), repeat=5):
            result = mann_kendall(series(list(values)))
            assert result.s_statistic == oracles.mk_s(values)

    def test_s_matches_bruteforce_up_to_length_8(self):
        for length in (2, 3, 8):
            for values in product((0.0, 0.5, 1.0), repeat=length):
                assert mann_kendall(series(values)).s_statistic == oracles.mk_s(values)

    def test_negation_antisymmetry(self):
        rng = random.Random(3)
        swap = {INCREASING: "decreasing", "decreasing": INCREASING, NO_TREND: NO_TREND}
        for _ in range(100):
            n = rng.randint(4, 9)
            values = [rng.choice([0.0, 0.1, 0.2, 0.3]) for _ in range(n)]
            forward = mann_kendall(series(values))
            backward = mann_kendall(series([-v for v in values]))
            assert backward.classification == swap[forward.classification]
            assert backward.s_statistic == -forward.s_statistic


class TestPercentileBins:
    def test_total_tie_puts_everything_low(self):
        bins = percentile_bins({f"T{i}": 7 for i in range(10)})
        assert set(bins.values()) == {LOW}

    def test_distinct_1_to_100(self):
        frequencies = {f"T{i:03d}": i for i in range(1, 101)}
        bins = percentile_bins(frequencies)
        p67 = oracles.nearest_rank(frequencies.values(), 67)
        p33 = oracles.nearest_rank(frequencies.values(), 33)
        for tid, freq in frequencies.items():
            expected = HIGH if freq > p67 else MEDIUM if freq > p33 else LOW
            assert bins[tid] == expected
        assert sum(1 for b in bins.values() if b == HIGH) == 33
        assert sum(1 for b in bins.values() if b == MEDIUM) == 34
        assert sum(1 for b in bins.values() if b == LOW) == 33

    def test_boundary_value_falls_in_lower_bin(self):
        # p67 of [1,1,1,5,5,9] is 5: the 5s stay medium, only 9 is high
        bins = percentile_bins({"a": 1, "b": 1, "c": 1, "d": 5, "e": 5, "f": 9})
        assert bins["d"] == bins["e"] == MEDIUM
        assert bins["f"] == HIGH

    def test_rank_rescaling_preserves_bins(self):
        rng = random.Random(9)
        for _ in range(20):
            frequencies = {f"T{i}": rng.randint(0, 50) for i in range(30)}
            scaled = {tid: 3 * f + 1 for tid, f in frequencies.items()}
            assert percentile_bins(frequencies) == percentile_bins(scaled)

    def test_nearest_rank_percentile(self):
        assert nearest_rank_percentile([1, 2, 3, 4], 50) == 2
        assert nearest_rank_percentile([1, 2, 3, 4], 100) == 4
        assert nearest_rank_percentile([5], 33) == 5


class TestMatrix:
    def trended_corpus(self):
        # T1 rises over five years, T2 stays flat-ish, T3 appears once.
        sets = []
        counter = 0
        per_year = {2018: 4, 2019: 4, 2020: 4, 2021: 4, 2022: 4}
        t1_per_year = {2018: 0, 2019: 1, 2020: 2, 2021: 3, 2022: 4}
        for year, total in per_year.items():
            for i in range(total):
                techniques = ["T2", f"F{counter}"]
                if i < t1_per_year[year]:
                    techniques.append("T1")
                if counter == 0:
                    techniques.append("T3")
                sets.append(make_set(f"s{counter}", techniques, f"{year}-03-0{i + 1}"))
                counter += 1
        return sets

    def test_every_technique_in_exactly_one_cell(self):
        corpus = self.trended_corpus()
        tally = year_tally(corpus)
        frequencies = technique_frequency(tally)
        bins = percentile_bins(frequencies)
        trends = {tid: mann_kendall(s) for tid, s in yearly_series(tally, bins.keys(), tuple(tally)).items()}
        matrix = build_matrix(bins, trends, frequencies, len(corpus))
        counts = sum(cell.count for cell in matrix.cells.values())
        assert counts == len(bins)
        placed = [tid for cell in matrix.cells.values() for tid in cell.technique_ids]
        assert sorted(placed) == sorted(bins)
        assert sum(cell.mention_share for cell in matrix.cells.values()) == pytest.approx(1.0, abs=1e-9)

    def test_rising_technique_lands_in_increasing_row(self):
        corpus = self.trended_corpus()
        tally = year_tally(corpus)
        frequencies = technique_frequency(tally)
        bins = percentile_bins(frequencies)
        trends = {tid: mann_kendall(s) for tid, s in yearly_series(tally, bins.keys(), tuple(tally)).items()}
        assert trends["T1"].classification == INCREASING
        matrix = build_matrix(bins, trends, frequencies, len(corpus))
        cell = matrix.cells[(INCREASING, bins["T1"])]
        assert "T1" in cell.technique_ids

    def test_single_technique_single_set(self):
        corpus = [make_set("a", ["T1"], "2020-01-01")]
        bins = {"T1": LOW}
        trends = {"T1": mann_kendall(series([1.0, 1.0], tid="T1"))}
        matrix = build_matrix(bins, trends, technique_frequency(year_tally(corpus)), len(corpus))
        cell = matrix.cells[(NO_TREND, LOW)]
        assert cell.count == 1
        assert cell.mention_share == pytest.approx(1.0)
        assert cell.median_pct == pytest.approx(100.0)


class TestPrevalent:
    def test_union_of_three_cells_sorted_by_pct(self):
        corpus = [
            make_set("a", ["T1", "T2", "T3"], "2020-01-01"),
            make_set("b", ["T1", "T2"], "2020-06-01"),
            make_set("c", ["T1"], "2021-01-01"),
        ]
        bins = {"T1": HIGH, "T2": MEDIUM, "T3": LOW}
        rising = [0.0, 0.25, 0.5, 0.75, 1.0]
        flat = [0.5] * 5
        trends = {
            "T1": mann_kendall(series(flat, tid="T1")),
            "T2": mann_kendall(series(rising, tid="T2")),
            "T3": mann_kendall(series(flat, tid="T3")),
        }
        matrix = build_matrix(bins, trends, technique_frequency(year_tally(corpus)), len(corpus))
        assert prevalent_techniques(matrix) == ["T1", "T2"]

    def test_empty_qualifying_cells_give_empty_list(self):
        corpus = [make_set("a", ["T1"], "2020-01-01")]
        bins = {"T1": LOW}
        trends = {"T1": mann_kendall(series([0.2] * 5, tid="T1"))}
        matrix = build_matrix(bins, trends, technique_frequency(year_tally(corpus)), len(corpus))
        assert prevalent_techniques(matrix) == []

    def test_only_medium_increasing_populated(self):
        corpus = [make_set("a", ["X1", "X2"], "2020-01-01")]
        bins = {"X1": MEDIUM, "X2": LOW}
        trends = {
            "X1": mann_kendall(series([0.0, 0.25, 0.5, 0.75, 1.0], tid="X1")),
            "X2": mann_kendall(series([0.5] * 5, tid="X2")),
        }
        matrix = build_matrix(bins, trends, technique_frequency(year_tally(corpus)), len(corpus))
        assert prevalent_techniques(matrix) == ["X1"]
