"""Relation-typed technique graphs and centrality scores.

Recurring pairs plus human-coded relation annotations yield one graph per
relation type (directed for follow/require, undirected otherwise) and an
all-pairs undirected graph. Centrality follows the worked-example
normalization: degree divided by the node count, with the conventional
n - 1 normalization available behind a flag.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import AnnotationError
from .io_utils import csv_rows

if TYPE_CHECKING:  # annotations only: `ttpminer ingest` loads no rule_miner
    from .rule_miner import RecurringPair

# Relation taxonomy: name -> directed. Follow and require orient
# antecedent -> consequent; the rest are symmetric.
RELATION_TYPES: dict[str, bool] = {
    "same_asset": False,
    "follow": True,
    "implementation_overlap": False,
    "happens_together": False,
    "require": True,
    "alternative": False,
    "same_platform": False,
}

DIRECTIONS = ("ab", "ba", "none")


class RelationAnnotation(NamedTuple):
    tech_a: str
    tech_b: str
    relation: str
    direction: str  # "ab", "ba", or "none"

    @property
    def pair_key(self) -> tuple[str, str]:
        return (min(self.tech_a, self.tech_b), max(self.tech_a, self.tech_b))


class TechniqueGraph(NamedTuple):
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]  # undirected edges stored (min, max)
    directed: bool
    relation: str | None = None


def load_annotations(path: Path | str) -> list[RelationAnnotation]:
    """Read the relation annotation CSV: tech_a,tech_b,relation,direction."""
    path = Path(path)
    annotations = []
    for i, row in enumerate(csv_rows(path, {"tech_a", "tech_b", "relation", "direction"}, AnnotationError)):
        tech_a, tech_b, relation = row["tech_a"].strip(), row["tech_b"].strip(), row["relation"].strip()
        direction = row["direction"].strip() or "none"
        if not tech_a or not tech_b:
            problem = f"{'tech_b' if tech_a else 'tech_a'} must name a technique"
        elif relation not in RELATION_TYPES:
            problem = f"unknown relation {relation!r}"
        elif direction not in DIRECTIONS:
            problem = f"direction must be one of {DIRECTIONS}"
        elif RELATION_TYPES[relation] and direction == "none":
            problem = f"directed relation {relation!r} requires an orientation for ({tech_a}, {tech_b})"
        else:
            annotations.append(RelationAnnotation(tech_a, tech_b, relation, direction))
            continue
        raise AnnotationError(f"{path} row {i}: {problem}")
    return annotations


def relation_label_map(
    annotations: Sequence[RelationAnnotation],
) -> dict[tuple[str, str], frozenset[str]]:
    """Unordered pair key -> set of relation names annotated on it."""
    labels: dict[tuple[str, str], set[str]] = {}
    for annotation in annotations:
        labels.setdefault(annotation.pair_key, set()).add(annotation.relation)
    return {key: frozenset(names) for key, names in labels.items()}


def build_graph(
    pairs: Sequence[RecurringPair],
    annotations: Sequence[RelationAnnotation] = (),
    relation: str | None = None,
) -> TechniqueGraph:
    """Build the technique graph for one relation, or the all-pairs graph.

    Without a relation filter this is the undirected graph joining the two
    techniques of every recurring pair (multi-label pairs collapse to a
    single edge). With a relation, edges come from the annotations carrying
    that label; directed relations take their orientation (``ab`` or ``ba``)
    from the annotation's direction column. Each annotation must name a pair.
    """
    if relation is None:
        edges = frozenset(pair.key for pair in pairs)
        nodes = frozenset(t for edge in edges for t in edge)
        return TechniqueGraph(nodes=nodes, edges=edges, directed=False, relation=None)

    directed = RELATION_TYPES[relation]
    edges = set()
    for annotation in annotations:
        if annotation.relation != relation:
            continue
        if not directed:
            edges.add(annotation.pair_key)
        elif annotation.direction == "ab":
            edges.add((annotation.tech_a, annotation.tech_b))
        else:
            edges.add((annotation.tech_b, annotation.tech_a))
    nodes = frozenset(t for edge in edges for t in edge)
    return TechniqueGraph(nodes=nodes, edges=frozenset(edges), directed=directed, relation=relation)


def degree_centrality(graph: TechniqueGraph, conventional: bool = False) -> dict[str, float]:
    """Degree centrality of an undirected graph: degree / node count.

    ``conventional=True`` divides by node count - 1 instead.
    """
    if not graph.nodes:
        return {}
    denominator = len(graph.nodes) - 1 if conventional else len(graph.nodes)
    degrees = {node: 0 for node in graph.nodes}
    for u, v in graph.edges:
        degrees[u] += 1
        degrees[v] += 1
    return {node: degrees[node] / denominator for node in sorted(degrees)}


def directed_centrality(
    graph: TechniqueGraph, conventional: bool = False
) -> dict[str, tuple[float, float]]:
    """In- and out-degree centrality of a directed graph, same normalization."""
    if not graph.nodes:
        return {}
    denominator = len(graph.nodes) - 1 if conventional else len(graph.nodes)
    in_deg = {node: 0 for node in graph.nodes}
    out_deg = {node: 0 for node in graph.nodes}
    for u, v in graph.edges:
        out_deg[u] += 1
        in_deg[v] += 1
    return {
        node: (in_deg[node] / denominator, out_deg[node] / denominator)
        for node in sorted(graph.nodes)
    }


def partner_count(graph: TechniqueGraph) -> dict[str, int]:
    """Number of distinct partner techniques per node (all-pairs graph)."""
    partners: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for u, v in graph.edges:
        partners[u].add(v)
        partners[v].add(u)
    return {node: len(partners[node]) for node in sorted(partners)}


def top_k(scores: Mapping[str, float], k: int) -> list[str]:
    """Top-k ids by descending score, ties broken by ascending id."""
    ranked = sorted(scores, key=lambda node: (-scores[node], node))
    return ranked[:k]


def to_dot(graph: TechniqueGraph) -> str:
    """DOT rendering of the graph for external visualization tools."""
    kind = "digraph" if graph.directed else "graph"
    arrow = "->" if graph.directed else "--"
    name = graph.relation or "all_pairs"
    lines = [f'{kind} "{name}" {{']
    for node in sorted(graph.nodes):
        lines.append(f'  "{node}";')
    for u, v in sorted(graph.edges):
        lines.append(f'  "{u}" {arrow} "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
