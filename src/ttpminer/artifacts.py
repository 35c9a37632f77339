"""Readers and writers for the documented stage artifact files.

Tabular artifacts (matrix, prevalent techniques, recurring pairs, centrality)
exist in CSV and JSON variants with identical column semantics; readers sniff
the variant from the file extension. A table with a row record has that
record's fields as its columns, in declaration order. All writers go through
the atomic, byte-deterministic helpers in :mod:`ttpminer.io_utils`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, get_type_hints

from .errors import ArtifactError
from .io_utils import NUMBERS, atomic_write_text, canonical_json, csv_rows, decode, reader, render_csv

if TYPE_CHECKING:
    from .prevalence import PrevalenceMatrix
    from .rule_miner import RecurringPair
    from .stix_ingest import AttackCatalog

CENTRALITY_HEADER = ("node", "relation", "delta", "delta_in", "delta_out", "eta")


def _write_table(path: Path, header: Sequence[str], rows: list[list]) -> None:
    if path.suffix == ".json":
        doc = [dict(zip(header, row)) for row in rows]
        atomic_write_text(path, canonical_json(doc))
    else:
        atomic_write_text(path, render_csv(header, rows))


def _cell(value: object) -> object:
    if isinstance(value, frozenset):
        return ";".join(sorted(value))
    return ";".join(value) if isinstance(value, tuple) else value


def _write_records(path: Path, record_type: type, records: Iterable) -> None:
    """One row per record, one column per field of ``record_type`` in declaration
    order; a set cell is written sorted and ``;``-joined, a tuple cell ``;``-joined."""
    _write_table(path, record_type._fields, [[_cell(value) for value in record] for record in records])


def _number(cell: str, name: str) -> float:
    try:
        value = NUMBERS[float](cell)
        if math.isfinite(value):  # float() also reads "nan" and "inf"
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} must be a number, got {cell!r}")


class _Constant(str):
    """A bare ``NaN``, ``Infinity`` or ``-Infinity`` in a JSON table, which
    ``json.loads`` accepts. No field reads it, so the error names the field."""

    __repr__ = str.__str__


def _read_records(path: Path, record_type: type) -> list:
    """The ``record_type`` rows of a table that :func:`_write_records` wrote. CSV cells
    are text, so there the ``float`` fields are parsed as numbers; a ``frozenset[str]``
    field is a ``;``-joined string in both formats. A ``float`` field must be finite."""
    hints = get_type_hints(record_type)
    if path.suffix != ".json":
        floats = {c for c, hint in hints.items() if hint is float}
        rows = csv_rows(path, set(hints), ArtifactError)
        rows = [{c: _number(v, c) if c in floats else v for c, v in row.items()} for row in rows]
    else:
        rows = json.loads(path.read_text(encoding="utf-8"), parse_constant=_Constant)
        if type(rows) is not list or any(type(row) is not dict for row in rows):
            raise ValueError("must be an array of objects")
    for c in [c for c, hint in hints.items() if hint == frozenset[str]]:
        for row in rows:
            if c in row:
                row[c] = [item for item in reader(str)(row[c], c).split(";") if item]
    return [decode(row, record_type) for row in rows]


class PrevalentRow(NamedTuple):
    """A ``prevalent_techniques`` row, as written."""

    id: str
    name: str
    tactic: str
    pct_reports: float
    cell: str


def write_matrix(path: Path, matrix: PrevalenceMatrix) -> None:
    from .prevalence import MatrixCell
    _write_records(path, MatrixCell, matrix.cells.values())  # build_matrix fills TRENDS x BINS in order


def write_prevalent(path: Path, prevalent: Sequence[str], matrix: PrevalenceMatrix, catalog: AttackCatalog) -> None:
    """The prevalent techniques, each named from ``catalog``, which must hold it."""
    by_id = catalog.technique_by_id()
    cell_of = {
        tid: f"{cell.bin}/{cell.trend}"
        for cell in matrix.cells.values()
        for tid in cell.technique_ids
    }
    rows = []
    for tid in prevalent:
        record = by_id[tid]
        tactic = ";".join(sorted(record.tactic_ids))
        rows.append(PrevalentRow(tid, record.name, tactic, matrix.report_pct[tid], cell_of[tid]))
    _write_records(path, PrevalentRow, rows)


def read_prevalent(path: Path) -> list[str]:
    """The prevalent technique ids as ``write_prevalent`` wrote them, each once."""
    ids = [row.id for row in _read_records(path, PrevalentRow)]
    seen: set[str] = set()
    for i, tid in enumerate(ids):
        if tid in seen:
            raise ArtifactError(f"{path} row {i}: repeats the id {tid}")
        seen.add(tid)
    return ids


def write_pairs(path: Path, pairs: Sequence[RecurringPair]) -> None:
    from .rule_miner import RecurringPair
    _write_records(path, RecurringPair, sorted(pairs, key=lambda p: p.key))


def read_pairs(path: Path) -> list[RecurringPair]:
    """The pairs as ``write_pairs`` wrote them: each once, with ``tech_a`` before ``tech_b``."""
    from .rule_miner import RecurringPair
    pairs = _read_records(path, RecurringPair)
    seen: set[tuple[str, str]] = set()
    for i, pair in enumerate(pairs):
        if pair.tech_a >= pair.tech_b:
            raise ArtifactError(f"{path} row {i}: tech_a {pair.tech_a!r} must sort before tech_b {pair.tech_b!r}")
        if pair.key in seen:
            raise ArtifactError(f"{path} row {i}: repeats the pair ({pair.tech_a}, {pair.tech_b})")
        seen.add(pair.key)
    return pairs


def write_centrality(path: Path, rows: list[list]) -> None:
    _write_table(path, CENTRALITY_HEADER, rows)
