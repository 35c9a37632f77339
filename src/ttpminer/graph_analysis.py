"""Relation-typed technique graphs and centrality scores.

Recurring pairs plus human-coded relation annotations yield one graph per
relation type (directed for follow/require, undirected otherwise) and an
all-pairs undirected graph, each held as its edge set. Centrality follows
the worked-example normalization: degree divided by the node count (the
techniques some edge of the graph joins), with the conventional n - 1
normalization available behind a flag.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Mapping, NamedTuple, Sequence

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
) -> frozenset[tuple[str, str]]:
    """The edge set of one relation's technique graph, or of the all-pairs graph.

    Without a relation filter these are the undirected edges joining the two
    techniques of every recurring pair (multi-label pairs collapse to a single
    edge). With a relation, edges come from the annotations carrying that
    label; directed relations take their orientation (``ab`` or ``ba``) from
    the annotation's direction column. An undirected edge is stored (min, max).
    A graph's nodes are the techniques its edges join.
    """
    if relation is None:
        return frozenset(pair.key for pair in pairs)
    directed = RELATION_TYPES[relation]
    return frozenset(
        annotation.pair_key if not directed
        else (annotation.tech_a, annotation.tech_b) if annotation.direction == "ab"
        else (annotation.tech_b, annotation.tech_a)
        for annotation in annotations
        if annotation.relation == relation
    )


def degree_centrality(edges: Collection[tuple[str, str]], conventional: bool = False) -> dict[str, float]:
    """Degree centrality of an undirected graph: degree / node count.

    ``conventional=True`` divides by node count - 1 instead.
    """
    degrees = Counter(t for edge in edges for t in edge)
    denominator = len(degrees) - 1 if conventional else len(degrees)
    return {node: degrees[node] / denominator for node in sorted(degrees)}


def directed_centrality(
    edges: Collection[tuple[str, str]], conventional: bool = False
) -> dict[str, tuple[float, float]]:
    """In- and out-degree centrality of a directed graph, same normalization."""
    out_deg = Counter(u for u, _ in edges)
    in_deg = Counter(v for _, v in edges)
    nodes = sorted(out_deg.keys() | in_deg.keys())
    denominator = len(nodes) - 1 if conventional else len(nodes)
    return {node: (in_deg[node] / denominator, out_deg[node] / denominator) for node in nodes}


def partner_count(edges: Collection[tuple[str, str]]) -> dict[str, int]:
    """Number of distinct partner techniques per node (all-pairs graph)."""
    partners = Counter(t for pair in {frozenset(edge) for edge in edges} for t in pair)
    return {node: partners[node] for node in sorted(partners)}


def top_k(scores: Mapping[str, float], k: int) -> list[str]:
    """Top-k ids by descending score, ties broken by ascending id."""
    ranked = sorted(scores, key=lambda node: (-scores[node], node))
    return ranked[:k]


def to_dot(edges: Collection[tuple[str, str]], relation: str | None) -> str:
    """DOT rendering of one relation's graph (None: all pairs) for external visualization tools."""
    kind, arrow = ("digraph", "->") if relation is not None and RELATION_TYPES[relation] else ("graph", "--")
    lines = [f'{kind} "{relation or "all_pairs"}" {{']
    lines += [f'  "{node}";' for node in sorted({t for edge in edges for t in edge})]
    lines += [f'  "{u}" {arrow} "{v}";' for u, v in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
