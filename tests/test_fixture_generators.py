"""The committed fixtures are what their generator scripts write, byte for byte.

``make_e2e_fixture.py`` holds the brute-force oracles whose results
``expected.json`` records, so a fixture that drifted from its script would
leave the acceptance tests checking against values nothing recomputes.
``make_e2e_golden.py`` runs the pipeline on that fixture, so its case pins
every artifact's bytes, and on the three benchmark workloads at a small scale,
whose artifacts' SHA-256 it pins: an output change fails it, naming the first
file and line that differ, until the goldens are regenerated and the diff reviewed.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from .conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_difference(written: Path, committed: Path, ignored: tuple[str, ...] = ()) -> str | None:
    """The first place where the files under ``written`` differ from those under
    ``committed``, leaving out the committed subdirectories named in ``ignored``:
    a missing or extra file, or a file and the first line that differs. None if equal."""

    def files(root: Path) -> list[Path]:
        found = [p.relative_to(root) for p in root.rglob("*") if p.is_file()] if root.is_dir() else [Path()]
        return sorted(p for p in found if not p.parts or p.parts[0] not in ignored)

    names = files(written)
    if names != files(committed):
        return f"files differ: wrote {[str(p) for p in names]}, committed {[str(p) for p in files(committed)]}"
    for name in names:
        ours, theirs = (written / name).read_bytes(), (committed / name).read_bytes()
        if ours != theirs:
            lines = zip(ours.splitlines(keepends=True) + [b""], theirs.splitlines(keepends=True) + [b""])
            line, (got, want) = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
            return f"{(committed / name).relative_to(FIXTURES)} line {line}: wrote {got!r}, committed {want!r}"
    return None


@pytest.mark.parametrize(
    "script, target, committed, ignored",
    [
        ("make_pinned_bundle", "OUT", FIXTURES / "attack_v12_shape_bundle.json", ()),
        ("make_e2e_fixture", "OUT_DIR", FIXTURES / "e2e", ("golden",)),
        ("make_e2e_golden", "OUT_DIR", FIXTURES / "e2e" / "golden", ()),
    ],
    ids=["pinned_bundle", "e2e", "e2e_golden"],
)
def test_generator_reproduces_committed_fixture(tmp_path, monkeypatch, script, target, committed, ignored):
    module = load_script(script)
    out = tmp_path / committed.name
    monkeypatch.setattr(module, target, out)
    module.main()
    assert out.exists()
    assert first_difference(out, committed, ignored) is None


def test_the_tiny_digests_use_the_benchmark_tests_scales():
    tree = ast.parse((ROOT / "bench" / "test_bench.py").read_text(encoding="utf-8"))
    (tiny,) = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TINY"]]
    assert load_script("make_e2e_golden").TINY == tiny
