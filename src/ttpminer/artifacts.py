"""Readers and writers for the documented stage artifact files.

Tabular artifacts (matrix, prevalent techniques, recurring pairs, centrality)
exist in CSV and JSON variants with identical column semantics; readers sniff
the variant from the file extension. All writers go through the atomic,
byte-deterministic helpers in :mod:`ttpminer.io_utils`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, get_type_hints

from .errors import ArtifactError
from .io_utils import atomic_write_text, canonical_json, csv_rows, decode, reader, render_csv
from .prevalence import BINS, TRENDS, PrevalenceMatrix
from .rule_miner import RecurringPair
from .stix_ingest import AttackCatalog

MATRIX_HEADER = ("trend", "bin", "count", "median_pct", "mention_share", "technique_ids")
PREVALENT_HEADER = ("id", "name", "tactic", "pct_reports", "cell")
PAIRS_HEADER = (
    "tech_a",
    "tech_b",
    "direction",
    "support",
    "confidence_ab",
    "confidence_ba",
    "phi",
    "chi2",
    "p_value",
    "lift",
    "strength",
    "relation_labels",
)
CENTRALITY_HEADER = ("node", "relation", "delta", "delta_in", "delta_out", "eta")


def _write_table(path: Path, header: Sequence[str], rows: list[list]) -> None:
    if path.suffix == ".json":
        doc = [dict(zip(header, row)) for row in rows]
        atomic_write_text(path, canonical_json(doc))
    else:
        atomic_write_text(path, render_csv(header, rows))


@dataclass(frozen=True)
class PrevalentRow:
    """A ``prevalent_techniques`` row, as written (``PREVALENT_HEADER``)."""

    id: str
    name: str
    tactic: str
    pct_reports: float
    cell: str


def _number(cell: str, name: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {cell!r}") from None


def _read_table(path: Path, header: Sequence[str], record_type: type) -> list[dict]:
    """Rows holding ``header``'s columns; the ``float`` fields of ``record_type`` are
    parsed as numbers in CSV, whose cells are text."""
    if path.suffix != ".json":
        floats = {c for c, kind in get_type_hints(record_type).items() if kind is float}
        rows = csv_rows(path, set(header), ArtifactError)
        return [{c: _number(v, c) if c in floats else v for c, v in row.items()} for row in rows]
    rows = json.loads(path.read_text(encoding="utf-8"))
    if type(rows) is not list or any(type(row) is not dict for row in rows):
        raise ValueError("must be an array of objects")
    return rows


def write_matrix(path: Path, matrix: PrevalenceMatrix) -> None:
    rows = []
    for trend in TRENDS:
        for fbin in BINS:
            cell = matrix.cells[(trend, fbin)]
            rows.append(
                [
                    trend,
                    fbin,
                    cell.count,
                    cell.median_pct,
                    cell.mention_share,
                    ";".join(cell.technique_ids),
                ]
            )
    _write_table(path, MATRIX_HEADER, rows)


def write_prevalent(
    path: Path, prevalent: Sequence[str], matrix: PrevalenceMatrix, catalog: AttackCatalog | None
) -> None:
    by_id = catalog.technique_by_id() if catalog is not None else {}
    cell_of = {
        tid: f"{cell.frequency_bin}/{cell.trend}"
        for cell in matrix.cells.values()
        for tid in cell.technique_ids
    }
    rows = []
    for tid in prevalent:
        record = by_id.get(tid)
        rows.append(
            [
                tid,
                record.name if record else "",
                ";".join(sorted(record.tactic_ids)) if record else "",
                matrix.report_pct[tid],
                cell_of[tid],
            ]
        )
    _write_table(path, PREVALENT_HEADER, rows)


def read_prevalent(path: Path) -> list[str]:
    return [decode(row, PrevalentRow).id for row in _read_table(path, PREVALENT_HEADER, PrevalentRow)]


def write_pairs(path: Path, pairs: Sequence[RecurringPair]) -> None:
    rows = []
    for p in sorted(pairs, key=lambda p: p.key):
        row = {**vars(p), "relation_labels": ";".join(sorted(p.relation_labels))}
        rows.append([row[column] for column in PAIRS_HEADER])
    _write_table(path, PAIRS_HEADER, rows)


def _labels(cell: object) -> list[str]:
    return [label for label in reader(str)(cell, "relation_labels").split(";") if label]


def read_pairs(path: Path) -> list[RecurringPair]:
    rows = _read_table(path, PAIRS_HEADER, RecurringPair)
    return [decode({**row, "relation_labels": _labels(row["relation_labels"])}, RecurringPair) for row in rows]


def write_centrality(path: Path, rows: list[list]) -> None:
    _write_table(path, CENTRALITY_HEADER, rows)
