from __future__ import annotations

import random
import re

import pytest

from ttpminer.errors import AnnotationError
from ttpminer.graph_analysis import (
    RELATION_TYPES,
    RelationAnnotation,
    TechniqueGraph,
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
        graph = build_graph(worked_example_pairs)
        assert not graph.directed
        assert graph.nodes == frozenset({"T1", "T2", "T3", "T4"})
        assert len(graph.edges) == 5

    def test_multi_label_pairs_collapse_in_all_pairs_graph(self):
        pairs = [pair("A", "B", labels=["follow", "same_asset"])]
        graph = build_graph(pairs)
        assert graph.edges == frozenset({("A", "B")})

    def test_relation_filter_keeps_only_labeled_edges(self, worked_example_pairs):
        annotations = [
            RelationAnnotation("T1", "T2", "same_asset", "none"),
            RelationAnnotation("T1", "T3", "follow", "ab"),
        ]
        graph = build_graph(worked_example_pairs, annotations, relation="same_asset")
        assert not graph.directed
        assert graph.edges == frozenset({("T1", "T2")})
        assert graph.nodes == frozenset({"T1", "T2"})

    def test_follow_relation_builds_directed_graph(self, worked_example_follow):
        assert worked_example_follow.directed
        assert ("T1", "T2") in worked_example_follow.edges

    def test_ba_direction_reverses_edge(self):
        pairs = [pair("A", "B")]
        annotations = [RelationAnnotation("A", "B", "require", "ba")]
        graph = build_graph(pairs, annotations, relation="require")
        assert graph.edges == frozenset({("B", "A")})

    def test_empty_annotations_with_relation_filter(self, worked_example_pairs):
        graph = build_graph(worked_example_pairs, [], relation="follow")
        assert graph.edges == frozenset()
        assert graph.nodes == frozenset()

    def test_relation_edges_subset_of_all_pairs(self, worked_example_pairs):
        annotations = [
            RelationAnnotation("T1", "T2", "same_asset", "none"),
            RelationAnnotation("T2", "T3", "same_asset", "none"),
        ]
        all_pairs = build_graph(worked_example_pairs)
        filtered = build_graph(worked_example_pairs, annotations, relation="same_asset")
        assert filtered.edges <= all_pairs.edges


class TestCentrality:
    def test_worked_example_degree_centrality(self, worked_example_pairs):
        graph = build_graph(worked_example_pairs)
        delta = degree_centrality(graph)
        assert delta["T1"] == 0.75
        assert delta["T2"] == 0.5

    def test_worked_example_directed_centrality(self, worked_example_follow):
        scores = directed_centrality(worked_example_follow)
        assert scores["T3"][0] == 0.5  # in-degree: from T1 and T2
        assert scores["T1"][1] == 0.75  # out-degree: three outgoing edges

    def test_isolated_node_scores_zero(self):
        graph = TechniqueGraph(
            nodes=frozenset({"A", "B", "C"}), edges=frozenset({("A", "B")}), directed=False
        )
        assert degree_centrality(graph)["C"] == 0.0

    def test_complete_graph_on_four_nodes(self):
        nodes = ["A", "B", "C", "D"]
        edges = frozenset(
            (min(u, v), max(u, v)) for i, u in enumerate(nodes) for v in nodes[i + 1 :]
        )
        graph = TechniqueGraph(nodes=frozenset(nodes), edges=edges, directed=False)
        assert all(value == 0.75 for value in degree_centrality(graph).values())

    def test_sink_node(self):
        graph = TechniqueGraph(
            nodes=frozenset({"A", "B", "C", "D"}),
            edges=frozenset({("A", "D"), ("B", "D")}),
            directed=True,
        )
        scores = directed_centrality(graph)
        assert scores["D"] == (0.5, 0.0)
        assert scores["C"] == (0.0, 0.0)

    def test_conventional_normalization(self, worked_example_pairs):
        graph = build_graph(worked_example_pairs)
        delta = degree_centrality(graph, conventional=True)
        assert delta["T1"] == 1.0

    def test_empty_graph_gives_empty_map(self):
        empty = TechniqueGraph(nodes=frozenset(), edges=frozenset(), directed=False)
        assert degree_centrality(empty) == {}

    def test_degree_sum_invariants(self, worked_example_pairs, worked_example_follow):
        undirected = build_graph(worked_example_pairs)
        n = len(undirected.nodes)
        degree_sum = sum(degree_centrality(undirected).values()) * n
        assert degree_sum == 2 * len(undirected.edges)
        directed = worked_example_follow
        n = len(directed.nodes)
        totals = directed_centrality(directed).values()
        assert sum(v[0] for v in totals) * n == pytest.approx(len(directed.edges))
        assert sum(v[1] for v in totals) * n == pytest.approx(len(directed.edges))

    def test_scores_bounded_by_normalization(self):
        rng = random.Random(14)
        nodes = [f"T{i}" for i in range(8)]
        for _ in range(20):
            edges = frozenset(
                tuple(sorted(rng.sample(nodes, 2))) for _ in range(rng.randint(1, 12))
            )
            used = frozenset(t for e in edges for t in e)
            graph = TechniqueGraph(nodes=used, edges=edges, directed=False)
            bound = (len(used) - 1) / len(used)
            assert all(0.0 <= d <= bound for d in degree_centrality(graph).values())

    def test_relabeling_permutes_scores(self, worked_example_pairs):
        rng = random.Random(4)
        graph = build_graph(worked_example_pairs)
        baseline = sorted(degree_centrality(graph).values())
        names = sorted(graph.nodes)
        for _ in range(5):
            permuted = rng.sample(names, len(names))
            mapping = dict(zip(names, permuted))
            renamed = TechniqueGraph(
                nodes=frozenset(mapping[n] for n in graph.nodes),
                edges=frozenset(
                    (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                    for u, v in graph.edges
                ),
                directed=False,
            )
            assert sorted(degree_centrality(renamed).values()) == baseline


class TestPartnerCount:
    def test_distinct_partners(self, worked_example_pairs):
        graph = build_graph(worked_example_pairs)
        eta = partner_count(graph)
        assert eta["T1"] == 3
        assert eta["T2"] == 2

    def test_repeated_pair_under_different_relations_counts_once(self):
        pairs = [pair("A", "B", labels=["follow"]), pair("A", "C")]
        graph = build_graph(pairs)
        assert partner_count(graph)["A"] == 2
        relabeled = build_graph([pair("A", "B", labels=["follow", "same_asset"])])
        assert partner_count(relabeled)["A"] == 1


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
    undirected = to_dot(build_graph(worked_example_pairs))
    assert undirected.startswith('graph "all_pairs"')
    assert '"T1" -- "T2";' in undirected
    directed = to_dot(worked_example_follow)
    assert directed.startswith('digraph "follow"')
    assert '"T1" -> "T2";' in directed
