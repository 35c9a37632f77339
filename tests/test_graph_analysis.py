from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpminer.errors import AnnotationError
from ttpminer.graph_analysis import (
    RELATION_TYPES,
    RelationAnnotation,
    build_graph,
    degree_centrality,
    directed_centrality,
    load_annotations,
    partner_count,
    relation_label_map,
    to_dot,
    top_k,
)
from ttpminer.rule_miner import RecurringPair


def pair(a, b, labels=()):
    return RecurringPair(
        tech_a=a,
        tech_b=b,
        support=0.1,
        confidence_ab=0.5,
        confidence_ba=0.5,
        phi=0.5,
        chi2=10.0,
        p_value=0.001,
        lift=2.0,
        strength="strong",
        direction="ab",
        relation_labels=frozenset(labels),
    )


def nodes_of(edges):
    return {t for edge in edges for t in edge}


@pytest.fixture
def worked_example_pairs():
    """Four techniques, five pairs: the centrality worked example."""
    return [
        pair("T1", "T2"),
        pair("T1", "T3"),
        pair("T1", "T4"),
        pair("T2", "T3"),
        pair("T3", "T4"),
    ]


@pytest.fixture
def worked_example_follow(worked_example_pairs):
    annotations = [
        RelationAnnotation(tech_a=p.tech_a, tech_b=p.tech_b, relation="follow", direction="ab")
        for p in worked_example_pairs
    ]
    return build_graph(worked_example_pairs, annotations, relation="follow")


class TestBuildGraph:
    def test_all_pairs_graph_is_undirected(self, worked_example_pairs):
        edges = build_graph(worked_example_pairs)
        assert edges == frozenset(p.key for p in worked_example_pairs)
        assert all(u < v for u, v in edges)  # undirected edges are stored (min, max)

    def test_multi_label_pairs_collapse_in_all_pairs_graph(self):
        pairs = [pair("A", "B", labels=["follow", "same_asset"])]
        assert build_graph(pairs) == frozenset({("A", "B")})

    def test_relation_filter_keeps_only_labeled_edges(self, worked_example_pairs):
        annotations = [
            RelationAnnotation("T1", "T2", "same_asset", "none"),
            RelationAnnotation("T1", "T3", "follow", "ab"),
        ]
        assert build_graph(worked_example_pairs, annotations, relation="same_asset") == frozenset({("T1", "T2")})

    def test_undirected_relation_stores_min_max(self):
        annotations = [RelationAnnotation("B", "A", "alternative", "none")]
        assert build_graph([pair("A", "B")], annotations, relation="alternative") == frozenset({("A", "B")})

    def test_follow_relation_keeps_the_annotated_orientation(self, worked_example_follow):
        assert ("T1", "T2") in worked_example_follow
        assert ("T2", "T1") not in worked_example_follow

    def test_ba_direction_reverses_edge(self):
        pairs = [pair("A", "B")]
        annotations = [RelationAnnotation("A", "B", "require", "ba")]
        assert build_graph(pairs, annotations, relation="require") == frozenset({("B", "A")})

    def test_empty_annotations_with_relation_filter(self, worked_example_pairs):
        assert build_graph(worked_example_pairs, [], relation="follow") == frozenset()

    def test_relation_edges_subset_of_all_pairs(self, worked_example_pairs):
        annotations = [
            RelationAnnotation("T1", "T2", "same_asset", "none"),
            RelationAnnotation("T2", "T3", "same_asset", "none"),
        ]
        all_pairs = build_graph(worked_example_pairs)
        filtered = build_graph(worked_example_pairs, annotations, relation="same_asset")
        assert filtered <= all_pairs


class TestCentrality:
    def test_worked_example_degree_centrality(self, worked_example_pairs):
        delta = degree_centrality(build_graph(worked_example_pairs))
        assert delta["T1"] == 0.75
        assert delta["T2"] == 0.5

    def test_worked_example_directed_centrality(self, worked_example_follow):
        scores = directed_centrality(worked_example_follow)
        assert scores["T3"][0] == 0.5  # in-degree: from T1 and T2
        assert scores["T1"][1] == 0.75  # out-degree: three outgoing edges

    def test_complete_graph_on_four_nodes(self):
        nodes = ["A", "B", "C", "D"]
        edges = frozenset(
            (min(u, v), max(u, v)) for i, u in enumerate(nodes) for v in nodes[i + 1 :]
        )
        assert all(value == 0.75 for value in degree_centrality(edges).values())

    def test_sink_node(self):
        scores = directed_centrality(frozenset({("A", "D"), ("B", "D")}))
        assert scores["D"] == (2 / 3, 0.0)  # three nodes: A, B and D

    def test_conventional_normalization(self, worked_example_pairs):
        delta = degree_centrality(build_graph(worked_example_pairs), conventional=True)
        assert delta["T1"] == 1.0

    def test_empty_graph_gives_empty_map(self):
        assert degree_centrality(frozenset()) == {}
        assert directed_centrality(frozenset()) == {}
        assert partner_count(frozenset()) == {}

    def test_degree_sum_invariants(self, worked_example_pairs, worked_example_follow):
        undirected = build_graph(worked_example_pairs)
        n = len(nodes_of(undirected))
        degree_sum = sum(degree_centrality(undirected).values()) * n
        assert degree_sum == 2 * len(undirected)
        directed = worked_example_follow
        n = len(nodes_of(directed))
        totals = directed_centrality(directed).values()
        assert sum(v[0] for v in totals) * n == pytest.approx(len(directed))
        assert sum(v[1] for v in totals) * n == pytest.approx(len(directed))

    def test_scores_bounded_by_normalization(self):
        rng = random.Random(14)
        nodes = [f"T{i}" for i in range(8)]
        for _ in range(20):
            edges = frozenset(
                tuple(sorted(rng.sample(nodes, 2))) for _ in range(rng.randint(1, 12))
            )
            used = nodes_of(edges)
            bound = (len(used) - 1) / len(used)
            assert all(0.0 <= d <= bound for d in degree_centrality(edges).values())

    def test_relabeling_permutes_scores(self, worked_example_pairs):
        rng = random.Random(4)
        edges = build_graph(worked_example_pairs)
        baseline = sorted(degree_centrality(edges).values())
        names = sorted(nodes_of(edges))
        for _ in range(5):
            permuted = rng.sample(names, len(names))
            mapping = dict(zip(names, permuted))
            renamed = frozenset(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in edges
            )
            assert sorted(degree_centrality(renamed).values()) == baseline


class TestPartnerCount:
    def test_distinct_partners(self, worked_example_pairs):
        eta = partner_count(build_graph(worked_example_pairs))
        assert eta["T1"] == 3
        assert eta["T2"] == 2

    def test_repeated_pair_under_different_relations_counts_once(self):
        pairs = [pair("A", "B", labels=["follow"]), pair("A", "C")]
        assert partner_count(build_graph(pairs))["A"] == 2
        relabeled = build_graph([pair("A", "B", labels=["follow", "same_asset"])])
        assert partner_count(relabeled)["A"] == 1


NAMES = ["T1", "T2", "T3", "T4", "T5", "T6"]
ARCS = st.frozensets(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)).filter(lambda arc: arc[0] != arc[1]), max_size=15
)


class TestCentralityOracle:
    """Each score equals a double loop over the techniques the edges join."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(arcs=ARCS, conventional=st.booleans())
    def test_degree_centrality_of_undirected_edges(self, arcs, conventional):
        edges = frozenset((min(u, v), max(u, v)) for u, v in arcs)
        nodes = sorted(nodes_of(edges))
        denominator = len(nodes) - 1 if conventional else len(nodes)
        expected = {
            u: sum((min(u, v), max(u, v)) in edges for v in nodes) / denominator for u in nodes
        }
        assert degree_centrality(edges, conventional=conventional) == expected
        assert list(degree_centrality(edges, conventional=conventional)) == nodes

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(arcs=ARCS, conventional=st.booleans())
    def test_directed_centrality_of_directed_edges(self, arcs, conventional):
        nodes = sorted(nodes_of(arcs))
        denominator = len(nodes) - 1 if conventional else len(nodes)
        expected = {
            u: (sum((v, u) in arcs for v in nodes) / denominator, sum((u, v) in arcs for v in nodes) / denominator)
            for u in nodes
        }
        assert directed_centrality(arcs, conventional=conventional) == expected
        assert list(directed_centrality(arcs, conventional=conventional)) == nodes

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(arcs=ARCS, undirected=st.booleans())
    def test_partner_count_counts_distinct_partners(self, arcs, undirected):
        edges = frozenset((min(u, v), max(u, v)) for u, v in arcs) if undirected else arcs
        nodes = sorted(nodes_of(edges))
        expected = {u: sum((u, v) in edges or (v, u) in edges for v in nodes) for u in nodes}
        assert partner_count(edges) == expected
        assert list(partner_count(edges)) == nodes


class TestTopK:
    def test_tie_breaks_by_ascending_id(self):
        assert top_k({"A": 0.5, "B": 0.5, "C": 0.1}, 2) == ["A", "B"]

    def test_k_larger_than_map(self):
        assert top_k({"B": 0.2, "A": 0.1}, 10) == ["B", "A"]


class TestAnnotations:
    def test_load_and_map(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text(
            "tech_a,tech_b,relation,direction\n"
            "T1,T2,follow,ab\n"
            "T1,T2,same_asset,none\n"
            "T2,T3,require,ba\n",
            encoding="utf-8",
        )
        annotations = load_annotations(path)
        assert len(annotations) == 3
        labels = relation_label_map(annotations)
        assert labels[("T1", "T2")] == frozenset({"follow", "same_asset"})
        assert labels[("T2", "T3")] == frozenset({"require"})

    def test_unknown_relation_rejected(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text("tech_a,tech_b,relation,direction\nT1,T2,friends,none\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="unknown relation"):
            load_annotations(path)

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text("tech_a,tech_b,relation,direction\nT1,T2,follow,up\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="direction"):
            load_annotations(path)

    @pytest.mark.parametrize("relation, direction", [("follow", "none"), ("require", "")])
    def test_directed_relation_without_orientation_names_file_and_row(self, tmp_path, relation, direction):
        path = tmp_path / "annotations.csv"
        path.write_text(
            f"tech_a,tech_b,relation,direction\nT1,T2,same_asset,none\nT1,T2,{relation},{direction}\n",
            encoding="utf-8",
        )
        message = f"{path} row 1: directed relation {relation!r} requires an orientation for (T1, T2)"
        with pytest.raises(AnnotationError, match=f"^{re.escape(message)}$"):
            load_annotations(path)

    @pytest.mark.parametrize("row, column", [(",T2,follow,ab", "tech_a"), ("T1,,follow,ab", "tech_b"),
                                             (" , ,same_asset,none", "tech_a")])
    def test_a_blank_technique_names_its_column_and_row(self, tmp_path, row, column):
        path = tmp_path / "annotations.csv"
        path.write_text(f"tech_a,tech_b,relation,direction\nT1,T2,same_asset,none\n{row}\n", encoding="utf-8")
        message = f"{path} row 1: {column} must name a technique"
        with pytest.raises(AnnotationError, match=f"^{re.escape(message)}$"):
            load_annotations(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="columns"):
            load_annotations(path)


def test_relation_taxonomy_directedness():
    assert RELATION_TYPES["follow"] is True
    assert RELATION_TYPES["require"] is True
    assert sum(RELATION_TYPES.values()) == 2
    assert len(RELATION_TYPES) == 7


def test_to_dot_renders_both_kinds(worked_example_pairs, worked_example_follow):
    undirected = to_dot(build_graph(worked_example_pairs), None)
    assert undirected.startswith('graph "all_pairs"')
    assert '"T1" -- "T2";' in undirected
    directed = to_dot(worked_example_follow, "follow")
    assert directed.startswith('digraph "follow"')
    assert '"T1" -> "T2";' in directed
