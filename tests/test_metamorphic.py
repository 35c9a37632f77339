"""Metamorphic relations of the whole pipeline: ``all`` on the end-to-end fixture, run
in process on inputs rewritten in ways that must not change the result, writes the
same artifacts. ``run_manifest.json`` is left out, since its input digests change.

- Reordering changes nothing: the manifest records, each record's keys, its
  ``attribution`` and ``technique_ids`` arrays, the unseen records, the annotation
  rows and the bundle objects.
- An appended excluded record changes nothing, even one with the dates,
  attribution and techniques of an included record.
- Shifting every date by whole leap cycles (four years, so every day gap holds)
  shifts only the dates in ``corpus.json`` and the evaluation cutoff.
- Renaming the citation keys in an order-preserving way renames them in
  ``corpus.json`` alone.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpminer.cli import run, validate_config
from ttpminer.corpus_builder import EXCLUSION_REASONS

from .conftest import FIXTURES

E2E = FIXTURES / "e2e"
INPUTS = ("bundle.json", "manifest.json", "unseen.json", "annotations.csv", "config.cfg")
DATE = re.compile(r"\b(\d{4})(-\d\d-\d\d)\b")
JSON_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')
REORDERINGS = ("records", "keys", "arrays", "unseen", "annotations", "bundle")


def run_all(inputs: dict[str, str], directory: Path) -> dict[str, str]:
    """The artifacts of ``all`` on ``inputs`` written into ``directory``, by name."""
    for name, text in inputs.items():
        (directory / name).write_text(text, encoding="utf-8")
    run("all", validate_config(directory / "config.cfg")._replace(output_dir=directory / "out"))
    return {path.name: path.read_text(encoding="utf-8")
            for path in (directory / "out").iterdir() if path.name != "run_manifest.json"}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> tuple[dict[str, str], dict[str, str]]:
    inputs = {name: (E2E / name).read_text(encoding="utf-8") for name in INPUTS}
    return inputs, run_all(inputs, tmp_path_factory.mktemp("baseline"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    reorder=st.sets(st.sampled_from(REORDERINGS)),
    order=st.randoms(use_true_random=False),
    excluded=st.booleans(),
    years=st.sampled_from([-8, -4, 0, 4, 8]),
    prefix=st.none() | st.text("az", max_size=2),
)
def test_rewritten_inputs_give_the_same_artifacts(baseline, reorder, order, excluded, years, prefix):
    inputs, artifacts = baseline
    expected = dict(artifacts)
    manifest, unseen = json.loads(inputs["manifest.json"]), json.loads(inputs["unseen.json"])
    bundle = json.loads(inputs["bundle.json"])
    header, *rows = inputs["annotations.csv"].splitlines(keepends=True)

    if prefix is not None:  # each key becomes its rank behind a common prefix, so the key order holds
        keys = sorted(record["citation_key"] for record in manifest)
        renamed = {key: f"{prefix}{rank:03d}" for rank, key in enumerate(keys)}
        for record in manifest:
            record["citation_key"] = renamed[record["citation_key"]]
        expected["corpus.json"] = JSON_STRING.sub(lambda m: f'"{renamed.get(m[1], m[1])}"', expected["corpus.json"])
    if years:
        def shift(text: str) -> str:
            return DATE.sub(lambda m: f"{int(m[1]) + years}{m[2]}", text)

        for record in manifest + unseen:
            if record.get("published") is not None:
                record["published"] = shift(record["published"])
        for name in ("corpus.json", "evaluation.json", "evaluation.txt"):
            expected[name] = shift(expected[name])
    if excluded:
        twin = order.choice([record for record in manifest if record["include"]])
        manifest.append({**twin, "citation_key": "~excluded", "url": "https://reports.example/~excluded",
                         "include": False, "exclusion_reason": order.choice(sorted(EXCLUSION_REASONS))})

    if "records" in reorder:
        order.shuffle(manifest)
    if "keys" in reorder:
        manifest = [dict(reversed(record.items())) for record in manifest]
    if "arrays" in reorder:
        for record in manifest + unseen:
            order.shuffle(record["technique_ids"])
            order.shuffle(record.get("attribution", []))
    if "unseen" in reorder:
        order.shuffle(unseen)
    if "annotations" in reorder:
        order.shuffle(rows)
    if "bundle" in reorder:
        order.shuffle(bundle["objects"])

    rewritten = {**inputs, "manifest.json": json.dumps(manifest), "unseen.json": json.dumps(unseen),
                 "bundle.json": json.dumps(bundle), "annotations.csv": "".join([header, *rows])}
    with tempfile.TemporaryDirectory(prefix="ttpminer-metamorphic-") as directory:
        actual = run_all(rewritten, Path(directory))
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        assert actual[name] == text, name
