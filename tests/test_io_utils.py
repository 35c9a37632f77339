from __future__ import annotations

import hashlib
import os
import re
from datetime import date
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpminer.corpus_builder import ReportRecord, TechniqueSet
from ttpminer.eval_harness import UnseenReport
from ttpminer.io_utils import (
    atomic_write_text,
    canonical_json,
    csv_rows,
    decode,
    reader,
    render_csv,
    sha256_file,
)
from ttpminer.stix_ingest import CitationEntry


def test_canonical_json_sorts_keys_and_ends_with_newline():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert "\r" not in text


def test_canonical_json_preserves_unicode():
    assert "Ωμέγα" in canonical_json({"name": "Ωμέγα"})


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "nested" / "file.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    # no temp files left behind
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_atomic_write_failure_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "file.txt"

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_text(target, "data")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(), max_size=4), max_size=4))
def test_render_csv_writes_a_float_as_its_repr_and_an_int_as_its_str(rows):
    lines = render_csv(("a",), rows).split("\n")
    assert lines == ["a", *(",".join(repr(c) if isinstance(c, float) else str(c) for c in row) for row in rows), ""]


def test_render_csv_quotes_and_terminates_lf():
    text = render_csv(("a", "b"), [["x,y", 0.25]])
    assert text == 'a,b\n"x,y",0.25\n'


class TestCsvRows:
    def test_short_row_reads_missing_cells_as_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1\n", encoding="utf-8")
        assert list(csv_rows(path, {"a", "c"}, LookupError)) == [{"a": "1", "b": "", "c": ""}]

    def test_row_longer_than_header_names_file_and_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n1,2,3,4\n", encoding="utf-8")
        message = f"{path} row 1: 2 cell(s) more than the header"
        with pytest.raises(LookupError, match=f"^{re.escape(message)}$"):
            list(csv_rows(path, {"a"}, LookupError))

    @pytest.mark.parametrize(
        "text, where",
        [
            (f"a,{'x' * 131_073}\n1,2\n", "header"),
            (f"a,b\n{'x' * 131_073},2\n", "row 0"),
            (f"a,b\n1,2\n3,{'x' * 131_073}\n", "row 1"),
        ],
        ids=["header", "row-0", "row-1"],
    )
    def test_cell_over_the_field_limit_names_file_and_row(self, tmp_path, text, where):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        message = f"{path} {where}: field larger than field limit (131072)"
        with pytest.raises(LookupError, match=f"^{re.escape(message)}$"):
            list(csv_rows(path, {"a"}, LookupError))


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"\x00\x01" * 1000
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


class TestDecode:
    ROW = {"key": "k", "source_name": "s", "url": "https://x", "date_text": None}

    def test_annotated_types_pass(self):
        assert decode(self.ROW, CitationEntry) == CitationEntry("k", "s", "https://x", None)
        assert decode({**self.ROW, "date_text": "2020"}, CitationEntry).date_text == "2020"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("date_text", 5, "date_text must be a string or null, got 5"),
            ("url", None, "url must be a string, got None"),
        ],
    )
    def test_other_type_names_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            decode({**self.ROW, field: value}, CitationEntry)

    def test_missing_field_is_a_key_error(self):
        with pytest.raises(KeyError, match="url"):
            decode({"key": "k", "source_name": "s", "date_text": None}, CitationEntry)

    def test_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="unknown field 'extra'"):
            decode({**self.ROW, "extra": 5}, CitationEntry)

    def test_a_field_with_a_default_may_be_absent(self):
        class Row(NamedTuple):
            key: str
            tags: frozenset[str] = frozenset()
            note: str | None = None

        assert decode({"key": "k"}, Row) == Row("k", frozenset(), None)
        assert decode({"note": "n", "key": "k"}, Row) == Row("k", frozenset(), "n")
        with pytest.raises(KeyError, match="key"):
            decode({"tags": []}, Row)
        with pytest.raises(ValueError, match="unknown field 'extra'"):
            decode({"key": "k", "extra": 1}, Row)
        with pytest.raises(ValueError, match="tags must be an array of strings"):
            decode({"key": "k", "tags": "T1"}, Row)

    def test_string_set_and_date(self):
        row = {"attack_id": "a", "member_citations": ["a", "b"], "techniques": ["T1"],
               "representative_date": "2020-01-02", "latest_date": "2020-03-04"}
        assert decode(row, TechniqueSet) == TechniqueSet(
            "a", frozenset({"a", "b"}), frozenset({"T1"}), date(2020, 1, 2), date(2020, 3, 4)
        )
        with pytest.raises(ValueError, match="techniques must be an array of strings"):
            decode({**row, "techniques": ["T1", 1]}, TechniqueSet)
        for value in (5, "20200304", "2020-W10-3"):
            with pytest.raises(ValueError, match=f"latest_date must be an ISO date string, got {value!r}"):
                decode({**row, "latest_date": value}, TechniqueSet)

    def test_each_date_string_reads_the_same_on_every_call(self):
        read = reader(date)
        for _ in range(2):
            for value in ("20200304", "2020-W10-3", 5, None, ["2020-03-04"]):
                with pytest.raises(ValueError, match=re.escape(f"d must be an ISO date string, got {value!r}")):
                    read(value, "d")
        first, second = (read("-".join(["2020", "03", "04"]), "d") for _ in range(2))  # two equal strings
        assert first == second == date(2020, 3, 4)

    def test_nullable_non_scalar(self):
        read = reader(date | None)
        assert read(None, "published") is None
        assert read("2020-03-04", "published") == date(2020, 3, 4)
        with pytest.raises(ValueError, match="published must be an ISO date string, got '20200304'"):
            read("20200304", "published")


# --- the straight-line record reader against the generic one it falls back to ---

TEXT = st.text(alphabet="aTz.1-", max_size=4)
ISO_DATES = st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31)).map(date.isoformat)
STRINGS = st.lists(TEXT, max_size=3)
ROWS = {  # each record type, and a strategy for each of its fields
    ReportRecord: {"citation_key": TEXT, "url": TEXT, "include": st.booleans(), "published": st.none() | ISO_DATES,
                   "technique_ids": STRINGS, "attribution": STRINGS, "exclusion_reason": st.none() | TEXT},
    UnseenReport: {"id": TEXT, "published": ISO_DATES, "technique_ids": STRINGS},
    TechniqueSet: {"attack_id": TEXT, "member_citations": STRINGS, "techniques": STRINGS,
                   "representative_date": ISO_DATES, "latest_date": ISO_DATES},
}
JSON_VALUES = st.sampled_from([5, 1.5, True, None, "x", "", [], ["x"], {}, {"a": "b"}])
BAD_DATES = st.sampled_from(["2020-1-02", "20200102", "2020-02-30", "2020-W10-3", "2020-01-02T00:00", " 2020-01-02"])


def _outcome(read, row: dict, record_type: type):
    try:
        return read(row, record_type.__name__)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def rows(draw, malformed: bool):
    """(record type, a row in a random key order, whether it must be rejected)."""
    record_type = draw(st.sampled_from(list(ROWS)))
    strategies = ROWS[record_type]
    row = {field: draw(strategy) for field, strategy in strategies.items()}
    row = dict(draw(st.permutations(list(row.items()))))
    if not malformed:
        return record_type, row, False
    field = draw(st.sampled_from(list(row)))
    shape = draw(st.sampled_from(["type", "missing", "extra", "array", "date"]))
    if shape == "type":
        row[field] = draw(JSON_VALUES)
        return record_type, row, False  # the value may happen to be valid
    if shape == "missing":
        del row[field]
        return record_type, row, field not in record_type._field_defaults
    if shape == "extra":
        row[draw(st.sampled_from(["extra", "Published", ""]))] = draw(JSON_VALUES)
        return record_type, row, True
    if shape == "array":
        arrays = [f for f, s in strategies.items() if s is STRINGS]
        row[draw(st.sampled_from(arrays))] = draw(st.lists(TEXT, max_size=2)) + [draw(JSON_VALUES.filter(
            lambda v: not isinstance(v, str)))]
        return record_type, row, True
    row[draw(st.sampled_from([f for f in strategies if "date" in f or f == "published"]))] = draw(BAD_DATES)
    return record_type, row, True


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=rows(malformed=False) | rows(malformed=True))
def test_straight_line_reader_reads_and_fails_as_the_generic_path(case):
    record_type, row, rejected = case
    straight = reader(record_type)
    generic = straight.__globals__["record"]  # the generic path a row that does not fit falls back to
    assert generic is not straight
    expected = _outcome(generic, row, record_type)
    actual = _outcome(straight, row, record_type)
    assert actual == expected and type(actual) is type(expected)  # a tuple equals a record of its values
    if rejected:
        assert type(expected) is tuple, expected  # (exception type, message), not a record
    elif set(row) == set(ROWS[record_type]) and type(expected) is not tuple:
        assert type(expected) is record_type
