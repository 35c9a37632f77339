"""Fuzz the stage boundary: a stage fed an upstream artifact or an input file with
one value replaced exits 0 or 1, never lets an exception escape ``cli.main``, and
on exit 1 names the replaced file in its logged error (or, for a config line, the
path that line sets)."""

from __future__ import annotations

import csv
import io
import json
import logging
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpminer.cli import main

from .conftest import FIXTURES

E2E = FIXTURES / "e2e"

# Each upstream artifact and JSON input file, and the stage commands that read it.
CONSUMERS = {
    "bundle.json": ("ingest",),
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
    | st.text(max_size=12)
    | st.sampled_from(["http://[x", "https://example.com/r", "HTTPS://Example.COM/r/#a", "//", "mailto:x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


# A config value: any one-line text, an integer, or a value near a key's range or
# naming a file of the run directory (or the directory itself).
CONFIG_VALUES = (
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
    | st.integers().map(str)
    | st.sampled_from(["0", "1", "-1", "0.5", "1e309", "nan", "inf", "", ".", "/", "csv", "json", "missing.json",
                       "bundle.json", "manifest.json", "unseen.json", "annotations.csv", "elbow_labels.csv",
                       "config.cfg", "catalog.json", "corpus.json"])
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
        if path.is_file():  # the inputs, not the golden outputs
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


def test_one_replaced_config_value_exits_0_or_1_naming_the_file_or_its_path(upstream, caplog):
    # The e2e config plus the two keys it leaves at their defaults. ``--output-dir``
    # stays on the command line, so a replaced output_dir writes nowhere else.
    lines = [*upstream["config.cfg"].splitlines(), "output_dir = out", "output_format = csv"]
    settable = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        i = data.draw(st.sampled_from(settable), label="line")
        key = lines[i].partition("=")[0].strip()
        value = data.draw(CONFIG_VALUES, label="value")
        mutated = [*lines[:i], f"{key} = {value}", *lines[i + 1:]]
        with tempfile.TemporaryDirectory() as out:
            for name, text in upstream.items():
                Path(out, name).write_text(text, encoding="utf-8")
            config = Path(out, "config.cfg")
            config.write_text("\n".join(mutated) + "\n", encoding="utf-8")
            caplog.clear()
            code = main(["all", "--config", str(config), "--output-dir", out])
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert code in (0, 1)
            if code == 1:  # the config file, or the path the line sets, as a whole path
                named = (str(config), str(Path(out, value.strip())))
                assert any(re.search(f"{re.escape(name)}(?=$|[: ])", errors[-1]) for name in named), errors

    check()
