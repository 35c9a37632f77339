"""The committed fixtures are what their generator scripts write, byte for byte.

``make_e2e_fixture.py`` holds the brute-force oracles whose results
``expected.json`` records, so a fixture that drifted from its script would
leave the acceptance tests checking against values nothing recomputes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from .conftest import FIXTURES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script, target, committed",
    [
        ("make_pinned_bundle", "OUT", FIXTURES / "attack_v12_shape_bundle.json"),
        ("make_e2e_fixture", "OUT_DIR", FIXTURES / "e2e"),
    ],
    ids=["pinned_bundle", "e2e"],
)
def test_generator_reproduces_committed_fixture(tmp_path, monkeypatch, script, target, committed):
    module = load_script(script)
    out = tmp_path / committed.name
    monkeypatch.setattr(module, target, out)
    module.main()
    written = sorted(out.iterdir()) if out.is_dir() else [out]
    assert written
    for path in written:
        assert path.read_bytes() == (committed.parent / path.relative_to(tmp_path)).read_bytes(), path.name
    if out.is_dir():
        assert [p.name for p in written] == sorted(p.name for p in committed.iterdir())
