"""Fuzz the stage boundary: a stage fed an upstream artifact or a manifest with
one value replaced exits 0 or 1 and never lets an exception escape ``cli.main``."""

from __future__ import annotations

import json
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


def stage_args(command: str, out: Path) -> list[str]:
    """A stage run on the inputs and artifacts in ``out``, where the config file sits too."""
    argv = [command, "--config", str(out / "config.cfg"), "--output-dir", str(out), "--format", "json"]
    return argv + ["--parent-match"] if command == "eval" else argv


@pytest.fixture(scope="module")
def upstream(tmp_path_factory) -> dict[str, str]:
    """The text of the e2e inputs the stages read, and of each upstream artifact
    that ``all --format json`` writes for them."""
    out = tmp_path_factory.mktemp("fuzz_base")
    for path in E2E.iterdir():
        shutil.copy(path, out)
    assert main(stage_args("all", out)) == 0
    names = (*CONSUMERS, "config.cfg", "annotations.csv")
    return {name: (out / name).read_text(encoding="utf-8") for name in names}


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
def test_one_replaced_value_exits_0_or_1(upstream, artifact):
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
                assert main(stage_args(command, Path(out))) in (0, 1)

    check()
