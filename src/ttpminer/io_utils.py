"""File helpers: canonical JSON, atomic writes, CSV, and the one JSON record decoder.

Every artifact writer here is byte-deterministic for a given input: keys
sorted, LF line endings, floats rendered with ``repr`` (shortest round-trip
form), and a trailing newline. Stage outputs are written to a temp file in
the target directory and renamed into place. ``catalog.json`` and
``corpus.json`` have layout writers, tested against ``canonical_json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from datetime import date
from functools import cache, lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON: sorted keys, 2-space indent, LF. It writes
    ``evaluation.json``, ``run_manifest.json`` and the JSON tables; ``json`` indents in
    pure Python, so ``catalog.json`` and ``corpus.json`` have layout writers tested against it."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_ARRAY_LAYOUTS = {n: (f"[\n  {' ' * n}", f",\n  {' ' * n}", f"\n{' ' * n}]") for n in range(0, 10, 2)}


def string_array(values: Collection[str], indent: int) -> str:
    """``canonical_json`` of ``sorted(values)``, its closing bracket ``indent`` spaces in
    (0, 2, 4, 6 or 8), each string through the encoder's own C function."""
    opening, separator, closing = _ARRAY_LAYOUTS[indent]
    return f"{opening}{separator.join(map(encode_basestring, sorted(values)))}{closing}" if values else "[]"


TYPE_NOUNS = {str: "a string", bool: "a boolean", int: "an integer", float: "a number", type(None): "null"}


def _plain(kind: type) -> Callable[[str], int | float]:
    """``kind`` read only from an ASCII literal without ``_``: ``int`` and ``float``
    also take digit-group underscores and any Unicode digit (``1_2``, ``٣``)."""

    def read(text: str) -> int | float:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)

    read.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" names it
    return read


NUMBERS = {int: _plain(int), float: _plain(float)}  # a number of each kind in a config value, flag or CSV cell


def _string_set(value: Any, name: str) -> frozenset[str]:
    if type(value) is list:
        try:
            "".join(value)  # a TypeError unless every item is a string; quicker than a loop
            return frozenset(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an array of strings")


def _iso_date(value: Any, name: str) -> date:
    try:
        return _parse_date(value)
    except (TypeError, ValueError):  # TypeError: not a string, or unhashable
        raise ValueError(f"{name} must be an ISO date string, got {value!r}") from None


@lru_cache(maxsize=1 << 16)  # the date of each distinct string that parsed; a failure is not kept
def _parse_date(text: str) -> date:
    parsed = date.fromisoformat(text)
    if parsed.isoformat() != text:  # YYYY-MM-DD, as written
        raise ValueError(text)
    return parsed


@cache
def reader(hint: Any) -> Callable[[Any, str], Any]:
    """``read(value, name)``: the Python value of a decoded JSON field annotated
    ``hint``, else ValueError naming the field. A record (a ``NamedTuple``) is an
    object with its fields and no others; a field with a default may be absent and
    reads as it, and a missing one without raises KeyError. ``frozenset[str]`` is an
    array of strings, ``date`` an ISO string, ``list[X]`` and ``dict[str, X]``
    an array and an object of X, ``X | None`` null or X, and a scalar has its
    exact JSON type. A row with exactly a record's fields is read by one function
    built for it, as ``collections.namedtuple`` builds ``__new__``, that types exact
    scalars inline and builds the tuple from the values in field order.
    """
    if hint == frozenset[str]:
        return _string_set
    if hint is date:
        return _iso_date
    if hasattr(hint, "_field_defaults"):
        readers = {name: reader(h) for name, h in get_type_hints(hint).items()}
        names, ordered = readers.keys(), tuple(readers.items())  # in the record's field order
        required = [field for field in names if field not in hint._field_defaults]

        def record(row: Any, name: str) -> Any:
            if type(row) is dict and row.keys() == names:
                return hint(*[read(row[field], field) for field, read in ordered])
            if type(row) is not dict:
                raise ValueError(f"a {hint.__name__} record must be an object, got {row!r}")
            missing = [field for field in required if field not in row]
            if missing:
                raise KeyError(missing[0])
            unknown = [key for key in row if key not in names]
            if unknown:
                raise ValueError(f"unknown field {unknown[0]!r}")
            return hint(**{field: readers[field](value, field) for field, value in row.items()})

        scalar = {i: read.types for i, read in enumerate(readers.values()) if hasattr(read, "types")}
        env = {"hint": hint, "new": tuple.__new__, "record": record, **{f"t{i}": t for i, t in scalar.items()},
               **{f"r{i}": read for i, read in enumerate(readers.values())}}
        values = "".join(f"v{i}, " if i in scalar else f"r{i}(v{i}, {field!r}), " for i, field in enumerate(readers))
        exec(f"""def straight(row, name):
    if type(row) is dict and len(row) == {len(readers)}:
        try:
            ({"".join(f"v{i}, " for i in range(len(readers)))}) = ({"".join(f"row[{f!r}], " for f in readers)})
        except KeyError:
            return record(row, name)
        if True{"".join(f" and type(v{i}) in t{i}" for i in scalar)}:
            return new(hint, ({values}))
    return record(row, name)  # any other row, or a scalar of another type
""", env)
        return env["straight"]
    if get_origin(hint) in (list, dict):
        container, read = get_origin(hint), reader(get_args(hint)[-1])

        def items(value: Any, name: str) -> Any:
            if type(value) is not container:
                raise ValueError(f"{name} must be {'an array' if container is list else 'an object'}")
            if container is list:
                return [read(item, name) for item in value]
            return {key: read(item, name) for key, item in value.items()}

        return items
    types = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if type(None) in types and len(types) == 2 and not set(types) <= TYPE_NOUNS.keys():
        read = reader(next(t for t in types if t is not type(None)))  # null, or a non-scalar X
        return lambda value, name: None if value is None else read(value, name)
    expected = " or ".join(map(TYPE_NOUNS.__getitem__, types))

    def exact(value: Any, name: str) -> Any:
        if type(value) in types:
            return value
        raise ValueError(f"{name} must be {expected}, got {value!r}")

    exact.types = types
    return exact


def decode(row: Any, record_type: type) -> Any:
    """The ``record_type`` record held by the decoded JSON object ``row`` (see :func:`reader`)."""
    return reader(record_type)(row, record_type.__name__)


def read_text(path: Path, error: type[Exception]) -> str:
    """The text of the UTF-8 file ``path``; other bytes raise ``error`` naming the file."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def csv_rows(path: Path, columns: set[str], error: type[Exception]) -> Iterator[dict[str, str]]:
    """Rows of the UTF-8 CSV ``path`` (missing cells read as ""); its header must name
    ``columns``, and a row with more cells than the header, or a line that the ``csv``
    module refuses (a cell over its ``field_size_limit``), raises ``error``.
    """
    rows = csv.DictReader(io.StringIO(read_text(path, error), newline=""), restval="")
    i = None  # the last row read; None while the header is read
    try:
        if rows.fieldnames is None or not columns.issubset(rows.fieldnames):
            raise error(f"{path}: expected columns {sorted(columns)}")
        i = -1
        for i, row in enumerate(rows):
            if None in row:  # DictReader files the cells past the header under None
                raise error(f"{path} row {i}: {len(row[None])} cell(s) more than the header")
            yield row
    except csv.Error as exc:
        raise error(f"{path} {'header' if i is None else f'row {i + 1}'}: {exc}") from None


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


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The CSV text of ``header`` and ``rows``; ``csv.writer`` writes a float as its ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
