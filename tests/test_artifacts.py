from __future__ import annotations

import json
import re

import pytest

from ttpminer.artifacts import read_pairs, read_prevalent, write_pairs
from ttpminer.errors import ArtifactError
from ttpminer.rule_miner import filter_pairs, mine_pairs

from .conftest import edit_pair_rows


@pytest.fixture
def sample_pairs():
    corpus = (
        [frozenset({"T1", "T2", "T3"})] * 8
        + [frozenset({"T1", "T4"})] * 2
        + [frozenset({"T2", "T4"})] * 2
        + [frozenset({"T4", "T5"})] * 8
    )
    pairs = filter_pairs(mine_pairs(corpus, 0.005), phi_min=0.2, alpha=0.05)
    assert pairs
    return pairs


EMPTY_PAIRS = {
    ".csv": "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,strength,"
    "relation_labels\n",
    ".json": "[]\n",
}


@pytest.mark.parametrize(
    "suffix, empty",
    [pytest.param(suffix, empty, id=f"empty{suffix}" if empty else suffix)
     for empty in (False, True) for suffix in (".csv", ".json")],
)
def test_pairs_round_trip_exact(tmp_path, sample_pairs, suffix, empty):
    pairs = [] if empty else sample_pairs
    path = tmp_path / f"pairs{suffix}"
    write_pairs(path, pairs)
    if empty:
        assert path.read_text(encoding="utf-8") == EMPTY_PAIRS[suffix]  # a header-only CSV, or []
    restored = read_pairs(path)
    assert restored == sorted(pairs, key=lambda p: p.key)


def test_read_pairs_missing_columns(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("tech_a,tech_b\nT1,T2\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="expected columns"):
        read_pairs(path)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("edit", ["reverse", "self", "repeat"])
def test_read_pairs_rejects_a_reversed_self_or_repeated_row(tmp_path, sample_pairs, suffix, edit):
    path = tmp_path / f"pairs{suffix}"
    write_pairs(path, sample_pairs)
    a, b = edit_pair_rows(path, edit)
    problem = {
        "reverse": f"row 0: tech_a {b!r} must sort before tech_b {a!r}",
        "self": f"row 0: tech_a {a!r} must sort before tech_b {a!r}",  # a self-pair (T1, T1)
        "repeat": f"row 2: repeats the pair ({a}, {b})",
    }[edit]
    with pytest.raises(ArtifactError, match=f"^{re.escape(f'{path} {problem}')}$"):
        read_pairs(path)


@pytest.mark.parametrize("cell", ["6.192836923871984e-11", "1", "+2.5E-3", "-0.0"])
def test_a_csv_number_cell_reads_as_its_ascii_literal(tmp_path, cell):
    path = tmp_path / "recurring_pairs.csv"
    path.write_text(f"{EMPTY_PAIRS['.csv']}T1,T2,ab,{cell},0.5,0.5,0.3,9.0,0.01,1.2,moderate,\n", encoding="utf-8")
    (pair,) = read_pairs(path)
    assert repr(pair.support) == repr(float(cell))  # a repr float reads back exactly


PREVALENT_ROW = {"id": "T1059", "name": "Command", "tactic": "TA0002", "pct_reports": 12.5, "cell": "high/rising"}


@pytest.mark.parametrize(
    "row, error, needle",
    [
        ({"id": "T1059", "bogus": 1}, KeyError, "'name'"),
        ({k: v for k, v in PREVALENT_ROW.items() if k != "cell"}, KeyError, "'cell'"),
        ({**PREVALENT_ROW, "bogus": 1}, ValueError, "unknown field 'bogus'"),
        ({**PREVALENT_ROW, "pct_reports": "12.5"}, ValueError, "pct_reports must be a number, got '12.5'"),
        ({**PREVALENT_ROW, "pct_reports": 12}, ValueError, "pct_reports must be a number, got 12"),
        ({**PREVALENT_ROW, "tactic": None}, ValueError, "tactic must be a string, got None"),
    ],
)
def test_read_prevalent_reads_the_whole_json_row(tmp_path, row, error, needle):
    path = tmp_path / "prevalent_techniques.json"
    path.write_text(json.dumps([PREVALENT_ROW, row]), encoding="utf-8")
    with pytest.raises(error, match=re.escape(needle)):
        read_prevalent(path)


@pytest.mark.parametrize("document", ["7", "null", '"T1059"', "[7]", "[[]]"])
def test_a_json_table_must_be_an_array_of_objects(tmp_path, document):
    path = tmp_path / "prevalent_techniques.json"
    path.write_text(document, encoding="utf-8")
    with pytest.raises(ValueError, match="^must be an array of objects$"):
        read_prevalent(path)


def test_read_prevalent_csv(tmp_path):
    path = tmp_path / "prevalent_techniques.csv"
    path.write_text("id,name,tactic,pct_reports,cell\nT1059,Command,TA0002,12.5,high/rising\n", encoding="utf-8")
    assert read_prevalent(path) == ["T1059"]
    path.write_text("id,name,tactic,pct_reports\nT1059,Command,TA0002,12.5\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="expected columns"):
        read_prevalent(path)
    path.write_text("id,name,tactic,pct_reports,cell\nT1059,Command,TA0002,many,high/rising\n", encoding="utf-8")
    with pytest.raises(ValueError, match="pct_reports must be a number, got 'many'"):
        read_prevalent(path)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_read_prevalent_rejects_a_repeated_id(tmp_path, suffix):
    path = tmp_path / f"prevalent_techniques{suffix}"
    rows = [PREVALENT_ROW, {**PREVALENT_ROW, "id": "T1003"}, PREVALENT_ROW]
    lines = [",".join(PREVALENT_ROW), *(",".join(map(str, row.values())) for row in rows)]
    path.write_text(json.dumps(rows) if suffix == ".json" else "\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match=f"^{re.escape(f'{path} row 2: repeats the id T1059')}$"):
        read_prevalent(path)
