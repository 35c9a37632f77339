"""Deterministic file output helpers: canonical JSON, atomic writes, CSV.

Every artifact writer here is byte-deterministic for a given input: keys
sorted, LF line endings, floats rendered with ``repr`` (shortest round-trip
form), and a trailing newline. Stage outputs are written to a temp file in
the target directory and renamed into place.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, Iterable, Mapping, Sequence, get_args, get_type_hints


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON: sorted keys, 2-space indent, LF."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def is_string_array(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def string_set(value: Any, name: str) -> frozenset[str]:
    """A decoded JSON array of strings as a set; anything else raises ValueError naming ``name``."""
    if not is_string_array(value):
        raise ValueError(f"{name} must be an array of strings")
    return frozenset(value)


TYPE_NOUNS = {str: "a string", bool: "a boolean", int: "an integer", float: "a number", type(None): "null"}


@cache
def scalar_fields(record_type: type) -> dict[str, tuple[type, ...]]:
    """The dataclass fields annotated with JSON scalar types, and those types."""
    hints = get_type_hints(record_type).items()
    kinds = {name: get_args(h) if isinstance(h, UnionType) else (h,) for name, h in hints}
    return {name: types for name, types in kinds.items() if set(types) <= TYPE_NOUNS.keys()}


def check_scalars(row: Mapping[str, Any], record_type: type) -> Mapping[str, Any]:
    """``row``, once each scalar field of ``record_type`` holds its exact type; else ValueError."""
    for name, types in scalar_fields(record_type).items():
        if type(row[name]) not in types:
            raise ValueError(f"{name} must be {' or '.join(map(TYPE_NOUNS.get, types))}, got {row[name]!r}")
    return row


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_number(value: Any) -> str:
    """Format a cell value for CSV output; floats use repr for determinism."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_number(cell) for cell in row])
    return buf.getvalue()


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    atomic_write_text(path, render_csv(header, rows))


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
