from __future__ import annotations

import csv
import io
import json
import signal
from datetime import date
from pathlib import Path

import pytest

from ttpminer.corpus_builder import TechniqueSet

FIXTURES = Path(__file__).parent / "fixtures"

# The slowest test takes about 6 s; a fault that loops forever fails its test
# at this limit instead of hanging the run.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis does not catch it and replay the hanging example."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Arms SIGALRM (POSIX, main thread) around each test and its function-scoped fixtures."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- STIX object builders -------------------------------------------------

def stix_tactic(external_id: str, name: str, shortname: str) -> dict:
    return {
        "type": "x-mitre-tactic",
        "id": f"x-mitre-tactic--{external_id.lower()}",
        "name": name,
        "x_mitre_shortname": shortname,
        "external_references": [
            {
                "source_name": "mitre-attack",
                "external_id": external_id,
                "url": f"https://attack.mitre.org/tactics/{external_id}",
            }
        ],
    }


def stix_technique(
    external_id: str,
    name: str,
    shortnames: list[str] | None = None,
    citations: list[tuple[str, str]] = (),
    revoked: bool = False,
    deprecated: bool = False,
    stix_id: str | None = None,
) -> dict:
    refs = [
        {
            "source_name": "mitre-attack",
            "external_id": external_id,
            "url": f"https://attack.mitre.org/techniques/{external_id.replace('.', '/')}",
        }
    ]
    for source_name, url in citations:
        refs.append({"source_name": source_name, "url": url})
    obj = {
        "type": "attack-pattern",
        "id": stix_id or f"attack-pattern--{external_id.lower()}",
        "name": name,
        "external_references": refs,
        "x_mitre_is_subtechnique": "." in external_id,
    }
    if shortnames is not None:
        obj["kill_chain_phases"] = [
            {"kill_chain_name": "mitre-attack", "phase_name": s} for s in shortnames
        ]
    if revoked:
        obj["revoked"] = True
    if deprecated:
        obj["x_mitre_deprecated"] = True
    return obj


def stix_attributor(
    otype: str, external_id: str, name: str, citations: list[tuple[str, str]] = ()
) -> dict:
    refs = [
        {
            "source_name": "mitre-attack",
            "external_id": external_id,
            "url": f"https://attack.mitre.org/x/{external_id}",
        }
    ]
    for source_name, url in citations:
        refs.append({"source_name": source_name, "url": url})
    return {
        "type": otype,
        "id": f"{otype}--{external_id.lower()}",
        "name": name,
        "external_references": refs,
    }


def stix_uses(source_id: str, target_id: str, citations: list[tuple[str, str]] = ()) -> dict:
    return {
        "type": "relationship",
        "id": f"relationship--{source_id.split('--')[1]}-{target_id.split('--')[1]}",
        "relationship_type": "uses",
        "source_ref": source_id,
        "target_ref": target_id,
        "external_references": [
            {"source_name": source_name, "url": url} for source_name, url in citations
        ],
    }


def bundle_bytes(objects: list[dict], spec_version: str = "2.1") -> bytes:
    return json.dumps(
        {"type": "bundle", "id": "bundle--test", "spec_version": spec_version, "objects": objects}
    ).encode("utf-8")


# --- corpus helpers --------------------------------------------------------

def edit_pair_rows(path: Path, edit: str) -> tuple[str, str]:
    """Rewrite the recurring pairs table ``path`` (CSV or JSON) as no ``mine`` writes it:
    ``"reverse"`` swaps tech_a and tech_b in row 0, ``"self"`` sets row 0's tech_b to its
    tech_a, ``"repeat"`` inserts a copy of row 1 as row 2. Returns the edited pair's
    (tech_a, tech_b) as ``mine`` wrote it."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        rows, a, b = json.loads(text), "tech_a", "tech_b"
    else:
        header, *rows = csv.reader(io.StringIO(text))
        a, b = header.index("tech_a"), header.index("tech_b")
    row = rows[1] if edit == "repeat" else rows[0]
    key = row[a], row[b]
    if edit == "reverse":
        row[a], row[b] = row[b], row[a]
    elif edit == "self":
        row[b] = row[a]
    else:
        rows.insert(2, row)
    if path.suffix == ".json":
        path.write_text(json.dumps(rows), encoding="utf-8")
    else:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        path.write_text(out.getvalue(), encoding="utf-8")
    return key


def make_set(attack_id: str, techniques, published: str, latest: str | None = None) -> TechniqueSet:
    return TechniqueSet(
        attack_id=attack_id,
        member_citations=frozenset({attack_id}),
        techniques=frozenset(techniques),
        representative_date=date.fromisoformat(published),
        latest_date=date.fromisoformat(latest or published),
    )


@pytest.fixture
def fig1_itemsets() -> list[frozenset[str]]:
    """Four attack itemsets reproducing the worked rule-mining example:

    CS in three sets, OB in two of those three, CS&OB together in two of
    four (support 0.5), PH&UE together in three of four (support 0.75).
    """
    return [
        frozenset({"PH", "UE", "CS", "OB"}),
        frozenset({"PH", "UE", "CS", "OB"}),
        frozenset({"PH", "UE", "CS"}),
        frozenset({"PH"}),
    ]
