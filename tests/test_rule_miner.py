from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttpminer.rule_miner import (
    CandidatePair,
    chi_square,
    filter_pairs,
    mine_pairs,
    phi,
    strength_bucket,
)

from . import oracles


def by_key(candidates):
    return {(c.tech_a, c.tech_b): c for c in candidates}


class TestMinePairs:
    def test_worked_example_supports(self, fig1_itemsets):
        pairs = by_key(mine_pairs(fig1_itemsets, min_support=0.5))
        assert pairs[("CS", "OB")].support == 0.5
        assert pairs[("PH", "UE")].support == 0.75
        assert pairs[("CS", "OB")].confidence_ab == pytest.approx(2 / 3)
        assert pairs[("CS", "OB")].confidence_ba == 1.0

    def test_min_support_one_with_no_universal_pair(self, fig1_itemsets):
        assert mine_pairs(fig1_itemsets, min_support=1.0) == []

    def test_matches_bruteforce_enumeration(self):
        rng = random.Random(17)
        techniques = [f"T{i}" for i in range(8)]
        for _ in range(30):
            corpus = [
                frozenset(rng.sample(techniques, rng.randint(1, len(techniques))))
                for _ in range(rng.randint(1, 12))
            ]
            min_support = rng.choice([0.005, 0.1, 0.25, 0.5])
            mined = {
                (c.tech_a, c.tech_b): (c.support, c.confidence_ab, c.confidence_ba)
                for c in mine_pairs(corpus, min_support)
            }
            assert mined == oracles.enumerate_pair_stats(corpus, min_support)

    def test_worked_example_table(self, fig1_itemsets):
        c = by_key(mine_pairs(fig1_itemsets, min_support=0.5))[("CS", "OB")]
        co, a, b = c.cooccurrences, c.count_a, c.count_b
        assert (co, a - co, b - co, c.n - a - b + co) == (2, 1, 0, 1)
        assert c.n == 4

    def test_disjoint_techniques_are_never_a_candidate(self):
        corpus = [frozenset({"A"}), frozenset({"B"})]
        assert mine_pairs(corpus, min_support=0.5) == []
        assert oracles.enumerate_pair_stats(corpus, 0.5) == {}


@st.composite
def corpora_with_threshold(draw):
    """A corpus drawn from a few distinct sets, so identical sets repeat, and a
    threshold of exactly k/n for some k, 1/n or 1.0."""
    universe = [f"T{i}" for i in range(draw(st.integers(1, 8)))]
    distinct = draw(st.lists(st.frozensets(st.sampled_from(universe)), min_size=1, max_size=8))
    corpus = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    n = len(corpus)
    k = draw(st.integers(1, n))
    return corpus, draw(st.sampled_from([k / n, 1 / n, 1.0]))


# Thresholds k/n with k/n * n > k in floating point, 7/25 = 0.28 the first:
# comparing a count with min_support * n there drops a count of exactly k.
INEXACT_THRESHOLDS = [(k, n) for n in range(1, 41) for k in range(1, n + 1) if k / n * n > k]


def pair_seen_k_of_n_times(k_n):
    k, n = k_n
    return [frozenset({"A", "B"})] * k + [frozenset({"C"})] * (n - k), k / n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        corpora_with_threshold(), st.sampled_from(INEXACT_THRESHOLDS).map(pair_seen_k_of_n_times)
    )
)
# Techniques that never co-occur, one set, one technique.
@example(([frozenset({"A"}), frozenset({"B"}), frozenset({"A", "C"})], 1 / 3))
@example(([frozenset({"A", "B", "C"})], 1.0))
@example(([frozenset({"A"})] * 3, 1 / 3))
def test_kernel_matches_pair_enumeration(case):
    corpus, min_support = case
    mined = [tuple(c) for c in mine_pairs(corpus, min_support)]
    assert mined == oracles.enumerate_pair_counts(corpus, min_support)


def counts(n11, n10, n01, n00):
    """(co, count_a, count_b, n) of the 2x2 table with these cells."""
    return n11, n11 + n10, n11 + n01, n11 + n10 + n01 + n00


class TestPhi:
    def test_independent_table_is_exactly_zero(self):
        assert phi(25, 50, 50, 100) == 0.0

    def test_perfect_association(self):
        assert phi(50, 50, 50, 100) == 1.0

    def test_worked_example_value(self):
        assert phi(2, 3, 2, 4) == pytest.approx(2 / math.sqrt(12))

    # A in none, A in every set, B in none, B in every set: filter_pairs drops these first
    @pytest.mark.parametrize("table", [counts(0, 0, 5, 5), counts(5, 5, 0, 0), counts(0, 5, 0, 5), counts(5, 0, 5, 0)])
    def test_zero_marginal_is_undefined(self, table):
        with pytest.raises(ZeroDivisionError):
            phi(*table)
        for yates in (False, True):
            with pytest.raises(ZeroDivisionError):
                chi_square(*table, yates=yates)

    def test_symmetry_under_transpose(self):
        rng = random.Random(2)
        for _ in range(50):
            co, a, b, n = counts(*(rng.randint(1, 20) for _ in range(4)))
            assert phi(co, a, b, n) == pytest.approx(phi(co, b, a, n), rel=1e-12)
            assert chi_square(co, a, b, n)[0] == pytest.approx(chi_square(co, b, a, n)[0], rel=1e-12)


class TestChiSquare:
    def test_independent_table(self):
        statistic, p = chi_square(25, 50, 50, 100)
        assert statistic == 0.0
        assert p == 1.0

    def test_worked_example_statistic(self):
        statistic, _ = chi_square(2, 3, 2, 4)
        assert statistic == pytest.approx(4 * (2 / math.sqrt(12)) ** 2, rel=1e-9)

    def test_perfect_table(self):
        statistic, p = chi_square(50, 50, 50, 100)
        assert statistic == pytest.approx(100.0, rel=1e-12)
        assert p < 1e-20

    def test_identity_n_phi_squared(self):
        rng = random.Random(5)
        for _ in range(200):
            co, a, b, n = counts(*(rng.randint(1, 40) for _ in range(4)))
            statistic, p = chi_square(co, a, b, n)
            assert statistic == pytest.approx(n * phi(co, a, b, n) ** 2, rel=1e-9)
            assert p == pytest.approx(oracles.chi2_sf_1dof(statistic), rel=1e-9)

    def test_yates_correction_shrinks_statistic(self):
        plain, _ = chi_square(12, 15, 16, 30)
        corrected, _ = chi_square(12, 15, 16, 30, yates=True)
        assert corrected < plain

    def test_matches_scipy_contingency(self):
        from scipy.stats import chi2_contingency

        rng = random.Random(8)
        for _ in range(50):
            n11, n10, n01, n00 = (rng.randint(1, 30) for _ in range(4))
            observed = [[n11, n10], [n01, n00]]
            for yates in (False, True):
                statistic, p = chi_square(*counts(n11, n10, n01, n00), yates=yates)
                reference = chi2_contingency(observed, correction=yates)
                assert statistic == pytest.approx(reference.statistic, rel=1e-9)
                assert p == pytest.approx(reference.pvalue, rel=1e-9)


@st.composite
def pair_counts(draw):
    """(co, count_a, count_b, n) of a non-degenerate table: each technique in some sets
    but not all, co any count their overlap allows."""
    n = draw(st.integers(2, 10**5))
    count_a, count_b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    return draw(st.integers(max(0, count_a + count_b - n), min(count_a, count_b))), count_a, count_b, n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pair_counts(), st.booleans())
@example((25, 50, 50, 100), False)  # exact independence
@example((50, 50, 50, 100), True)  # perfect association
@example((1, 1, 1, 2), True)  # every |O - E| is 0.5: Yates cuts the statistic to 0
def test_measures_from_counts_equal_the_cell_oracles(table, yates):
    co, count_a, count_b, n = table
    cells = (co, count_a - co, count_b - co, n - count_a - count_b + co)
    statistic = oracles.pearson_chi2(*cells, yates=yates)
    assert phi(co, count_a, count_b, n) == oracles.phi_from_cells(*cells)
    assert chi_square(co, count_a, count_b, n, yates=yates) == (statistic, oracles.chi2_sf_1dof(statistic))


class TestStrength:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.20, "weak"),
            (0.29, "weak"),
            (0.30, "moderate"),
            (0.39, "moderate"),
            (0.40, "strong"),
            (0.69, "strong"),
            (0.70, "very_strong"),
            (1.0, "very_strong"),
        ],
    )
    def test_bucket_boundaries(self, value, expected):
        assert strength_bucket(value) == expected


def candidate(n11, n10, n01, n00, a="A", b="B"):
    return CandidatePair(a, b, *counts(n11, n10, n01, n00))


class TestFilterPairs:
    def test_keeps_significant_correlated_pair(self):
        # phi = 0.6, chi2 = 20 * 0.36 = 7.2, p ~ 0.007
        kept = filter_pairs([candidate(8, 2, 2, 8)])
        assert len(kept) == 1
        pair = kept[0]
        assert pair.phi == pytest.approx(0.6)
        assert pair.strength == "strong"
        assert pair.p_value < 0.05

    def test_phi_below_threshold_excluded(self):
        # phi = (841 - 441)/2500 = 0.16 < 0.20
        assert filter_pairs([candidate(29, 21, 21, 29)]) == []

    def test_insignificant_pair_excluded(self):
        # phi = 1.0 but n = 2: chi2 = 2, p ~ 0.157
        assert filter_pairs([candidate(1, 0, 0, 1)]) == []

    # A in every set, A in none, B in every set, B in none: each has no phi
    @pytest.mark.parametrize("table", [(5, 5, 0, 0), (0, 0, 5, 5), (5, 0, 5, 0), (0, 5, 0, 5)])
    def test_degenerate_marginal_dropped(self, table):
        assert filter_pairs([candidate(*table)], phi_min=0.0, alpha=0.999) == []

    def test_direction_is_higher_confidence_orientation(self):
        # conf a->b = 8/10, conf b->a = 8/16
        pair = filter_pairs([candidate(8, 2, 8, 14)], phi_min=0.0, alpha=0.5)[0]
        assert pair.direction == "ab"
        flipped = filter_pairs([candidate(8, 8, 2, 14)], phi_min=0.0, alpha=0.5)[0]
        assert flipped.direction == "ba"

    def test_direction_tie_breaks_to_id_order(self):
        pair = filter_pairs([candidate(8, 2, 2, 8)], phi_min=0.0, alpha=0.5)[0]
        assert pair.confidence_ab == pair.confidence_ba
        assert pair.direction == "ab"

    def test_lift_is_confidence_over_base_rate(self):
        pair = filter_pairs([candidate(8, 2, 2, 8)])[0]
        assert pair.lift == pytest.approx((8 / 10) / (10 / 20))


@st.composite
def candidates_and_thresholds(draw):
    """Candidate tables, degenerate ones included, with ``phi_min`` 0, 1, any value in
    between, or exactly the phi of one of the tables, and ``alpha`` a fixed level or
    exactly the p-value of one of the tables."""
    cells = draw(st.lists(st.tuples(*[st.integers(0, 25)] * 4), max_size=12))
    candidates = [candidate(*c, a=f"T{i:02d}", b=f"T{i:02d}.x") for i, c in enumerate(cells)]
    phis = [oracles.phi_from_cells(*c) for c in cells if all(m > 0 for m in marginals(*c))]
    choices = [st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)]
    if any(0.0 <= v <= 1.0 for v in phis):
        choices.append(st.sampled_from([v for v in phis if 0.0 <= v <= 1.0]))
    phi_min = draw(st.one_of(choices))
    p_values = [oracles.chi2_sf_1dof(oracles.pearson_chi2(*c)) for c in cells if all(m > 0 for m in marginals(*c))]
    alpha = draw(st.sampled_from([0.001, 0.05, 0.5, 0.999] + [p for p in p_values if 0.0 < p < 1.0]))
    keys = [(c.tech_a, c.tech_b) for c in candidates]
    names = st.frozensets(st.sampled_from(["follow", "same_asset", "share_tactic"]), min_size=1)
    labels = draw(st.dictionaries(st.sampled_from(keys), names) if keys else st.just({}))
    return candidates, cells, phi_min, alpha, draw(st.booleans()), labels


def marginals(n11, n10, n01, n00):
    return (n11 + n10, n01 + n00, n11 + n01, n10 + n00)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(candidates_and_thresholds())
@example(
    ([candidate(5, 5, 0, 0), candidate(8, 2, 2, 8, a="C", b="D")], [(5, 5, 0, 0), (8, 2, 2, 8)], 0.6, 0.05, False,
     {("A", "B"): frozenset({"follow"}), ("C", "D"): frozenset({"same_asset"})})
)
@example(([candidate(0, 0, 5, 5)], [(0, 0, 5, 5)], 0.0, 0.999, False, {("A", "B"): frozenset({"follow"})}))
@example(([candidate(8, 2, 2, 8)], [(8, 2, 2, 8)], 0.6, 0.05, True, {}))
@example(([candidate(10, 0, 0, 10)], [(10, 0, 0, 10)], 1.0, 0.05, False, {}))
def test_filter_pairs_matches_the_oracles(case):
    candidates, cells, phi_min, alpha, yates, labels = case
    expected = []
    for c, (n11, n10, n01, n00) in zip(candidates, cells):
        if 0 in marginals(n11, n10, n01, n00):  # no phi
            continue
        phi_value = oracles.phi_from_cells(n11, n10, n01, n00)
        chi2 = oracles.pearson_chi2(n11, n10, n01, n00, yates=yates)
        p_value = oracles.chi2_sf_1dof(chi2)
        if phi_value >= phi_min and p_value < alpha:
            key = (c.tech_a, c.tech_b)
            expected.append((*key, phi_value, chi2, p_value, labels.get(key, frozenset())))

    kept = filter_pairs(candidates, phi_min=phi_min, alpha=alpha, yates=yates, labels=labels)
    assert [(p.tech_a, p.tech_b, p.phi, p.chi2, p.p_value, p.relation_labels) for p in kept] == expected


class TestPiatetskyProperties:
    def test_property_1_exact_independence(self):
        rng = random.Random(31)
        found = 0
        while found < 50:
            n = rng.randint(4, 400)
            a = rng.randint(1, n - 1)
            b = rng.randint(1, n - 1)
            if (a * b) % n != 0:
                continue
            n11 = a * b // n
            assert phi(n11, a, b, n) == 0.0
            found += 1

    def test_property_2_increasing_in_joint_count(self):
        rng = random.Random(32)
        for _ in range(50):
            n = rng.randint(6, 60)
            a = rng.randint(1, n - 1)
            b = rng.randint(1, n - 1)
            lo = max(0, a + b - n)
            hi = min(a, b)
            values = [phi(n11, a, b, n) for n11 in range(lo, hi + 1)]
            for earlier, later in zip(values, values[1:]):
                assert later > earlier

    def test_property_3_decreasing_in_marginal(self):
        rng = random.Random(33)
        for _ in range(50):
            n = rng.randint(8, 60)
            n11 = rng.randint(1, n // 2)
            a = rng.randint(n11, n - 1)
            values = [phi(n11, a, b, n) for b in range(n11, n - a + n11 + 1) if b < n]  # B in every set: no phi
            for earlier, later in zip(values, values[1:]):
                assert later < earlier


class TestProbabilityIncrease:
    def test_worked_example(self, fig1_itemsets):
        pair = filter_pairs(mine_pairs(fig1_itemsets, 0.5), phi_min=0.0, alpha=0.99)
        cs_ob = next(p for p in pair if p.key == ("CS", "OB"))
        assert cs_ob.lift == pytest.approx(4 / 3)

    def test_independent_pair_is_one(self):
        corpus = (
            [frozenset({"A", "B"})] * 25
            + [frozenset({"A"})] * 25
            + [frozenset({"B"})] * 25
            + [frozenset({"X"})] * 25
        )
        (ab,) = [c for c in mine_pairs(corpus, 0.005) if (c.tech_a, c.tech_b) == ("A", "B")]
        independent = filter_pairs([ab], phi_min=0.0, alpha=0.5)
        assert independent == []  # p-value is 1.0: never significant


def test_filter_pairs_labels_the_pairs_it_keeps(fig1_itemsets):
    # PH occurs in every itemset, so PH pairs drop as degenerate; CS/OB/UE remain.
    labels = {("CS", "OB"): frozenset({"follow", "same_asset"}), ("PH", "UE"): frozenset({"follow"})}
    pairs = filter_pairs(mine_pairs(fig1_itemsets, 0.5), phi_min=0.0, alpha=0.99, labels=labels)
    by_pair = {p.key: p for p in pairs}
    assert by_pair[("CS", "OB")].relation_labels == frozenset({"follow", "same_asset"})
    assert by_pair[("CS", "UE")].relation_labels == frozenset()
    assert ("PH", "UE") not in by_pair
