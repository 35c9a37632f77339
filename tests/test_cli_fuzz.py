"""Fuzz the stage boundary: a stage fed an upstream artifact or an input file with
one value replaced exits 0 or 1, never lets an exception escape ``cli.main``, and
on exit 1 names the replaced file in its logged error."""

from __future__ import annotations

import csv
import io
import json
import logging
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpminer.cli import main

from .conftest import FIXTURES

E2E = FIXTURES / "e2e"

# Each upstream artifact and input manifest, and the stage commands that read it.
CONSUMERS = {
    "catalog.json": ("corpus", "prevalence"),
    "corpus.json": ("prevalence", "mine", "eval"),
    "recurring_pairs.json": ("graph", "eval"),
    "prevalent_techniques.json": ("eval",),
    "manifest.json": ("corpus",),
    "unseen.json": ("eval",),
}

# Each CSV input and CSV upstream artifact (of ``--format csv``), and the stage
# commands that read it.
CSV_CONSUMERS = {
    "annotations.csv": ("mine", "graph"),
    "elbow_labels.csv": ("corpus",),
    "recurring_pairs.csv": ("graph", "eval"),
    "prevalent_techniques.csv": ("eval",),
}

CELLS = (
    st.text(max_size=12)
    | st.sampled_from(["0", "1", "-1", "2", "1e309", "nan", "inf", "T1001", "T1005", "ab", "ba", "follow"])
    | st.just("x" * 131_073)  # one character over the csv module's field_size_limit
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


def stage_args(command: str, out: Path, output_format: str = "json") -> list[str]:
    """A stage run on the inputs and artifacts in ``out``, where the config file sits too."""
    argv = [command, "--config", str(out / "config.cfg"), "--output-dir", str(out), "--format", output_format]
    if command == "corpus" and output_format == "csv":
        argv += ["--elbow-labels", str(out / "elbow_labels.csv")]
    return argv + ["--parent-match"] if command == "eval" else argv


@pytest.fixture(scope="module")
def upstream(tmp_path_factory) -> dict[str, str]:
    """The text of the e2e inputs the stages read, and of each upstream artifact
    that ``all --format json`` writes for them."""
    out = tmp_path_factory.mktemp("fuzz_base")
    for path in E2E.iterdir():
        shutil.copy(path, out)
    assert main(stage_args("all", out)) == 0
    assert main(stage_args("all", out, "csv")) == 0
    names = (*CONSUMERS, *CSV_CONSUMERS, "config.cfg")
    return {name: (out / name).read_text(encoding="utf-8") for name in names}


def assert_exits_0_or_1_naming(caplog, path: Path, argv: list[str]) -> None:
    """``main(argv)`` exits 0, or 1 with a logged error that names ``path``."""
    caplog.clear()
    code = main(argv)
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code in (0, 1)
    assert code == 0 or str(path) in errors[-1], errors


def paths_by_depth(doc) -> list[list[tuple]]:
    """The path (keys and indices) to every value in ``doc``, grouped by depth."""
    levels, frontier = [], [((), doc)]
    while frontier:
        levels.append([path for path, _ in frontier])
        frontier = [
            (path + (key,), child)
            for path, value in frontier
            if isinstance(value, (dict, list))
            for key, child in (value.items() if isinstance(value, dict) else enumerate(value))
        ]
    return levels


@pytest.mark.parametrize("artifact", sorted(CONSUMERS))
def test_one_replaced_value_exits_0_or_1(upstream, caplog, artifact):
    doc = json.loads(upstream[artifact])
    levels = paths_by_depth(doc)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        depth = data.draw(st.integers(0, len(levels) - 1), label="depth")
        path = data.draw(st.sampled_from(levels[depth]), label="path")
        value = data.draw(JSON_VALUES, label="value")
        mutated = json.loads(upstream[artifact])
        if path:
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            mutated = value
        with tempfile.TemporaryDirectory() as out:
            for name, text in upstream.items():
                Path(out, name).write_text(text, encoding="utf-8")
            Path(out, artifact).write_text(json.dumps(mutated), encoding="utf-8")
            for command in CONSUMERS[artifact]:
                assert_exits_0_or_1_naming(caplog, Path(out, artifact), stage_args(command, Path(out)))

    check()


@pytest.mark.parametrize("name", sorted(CSV_CONSUMERS))
def test_one_replaced_csv_cell_exits_0_or_1_naming_the_file(upstream, caplog, name):
    rows = list(csv.reader(io.StringIO(upstream[name], newline="")))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        column = data.draw(st.integers(0, len(rows[row]) - 1), label="column")
        mutated = [list(cells) for cells in rows]
        mutated[row][column] = data.draw(CELLS, label="cell")
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(mutated)
        with tempfile.TemporaryDirectory() as out:
            for other, content in upstream.items():
                Path(out, other).write_text(content, encoding="utf-8")
            path = Path(out, name)
            path.write_text(text.getvalue(), encoding="utf-8")
            for command in CSV_CONSUMERS[name]:
                assert_exits_0_or_1_naming(caplog, path, stage_args(command, Path(out), "csv"))

    check()
