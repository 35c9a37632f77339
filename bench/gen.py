"""Seeded input generator for the ttpminer benchmark workloads.

``generate(workload, seed, out_dir)`` writes a STIX bundle, a report
manifest, an unseen-report manifest, relation annotations and a pipeline
config into ``out_dir`` and returns what the checks need to know about the
planted structure. The same workload, seed and scale give byte-identical
files. Nothing here imports ttpminer.

    python3 bench/gen.py --workload paper_scale --seed 1 --out bench/out/gen
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_BUNDLE = ROOT / "tests" / "fixtures" / "attack_v12_shape_bundle.json"

FIRST_DAY = date(2014, 1, 1)
LAST_DAY = date(2022, 12, 31)  # nine calendar years of corpus reports
UNSEEN_FIRST_DAY = date(2023, 1, 2)

EXCLUSION_REASONS = (
    "not-english",
    "inaccessible",
    "not-incident",
    "fewer-than-two-techniques",
    "insecure-url",
    "no-date",
    "no-attack-description",
    "non-report-url",
)

# Relation types assigned to planted pairs in turn; follow/require are directed.
RELATIONS = (
    ("same_asset", "none"),
    ("follow", "ab"),
    ("implementation_overlap", "none"),
    ("require", "ab"),
    ("happens_together", "none"),
    ("follow", "ba"),
    ("alternative", "none"),
    ("same_platform", "none"),
)

PARAMS = {
    "tau": 2,
    "min_support": 0.005,
    "phi_min": 0.2,
    "alpha_rules": 0.05,
    "alpha_trend": 0.05,
    "trend_years": 5,
}


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs at scale 1."""

    records: int  # included manifest records
    unseen: int
    set_size: tuple[int, int]  # background techniques per record, inclusive range
    # planted pairs as (joint share, one-sided share): a record holds both
    # techniques, only the first, or only the second, in these shares of n
    planted: tuple[tuple[float, float], ...]
    # "bundle": an ATT&CK-sized bundle whose groups and software cite the
    # reports; "groups": a few hundred large groups; "own": one per report
    attribution: str
    groups: int = 0  # attribution groups for "groups"
    group_pool: int = 0  # techniques in each group's toolkit for "groups"


WORKLOADS: dict[str, Spec] = {
    "paper_scale": Spec(
        records=667,
        unseen=120,
        set_size=(9, 17),
        planted=((0.04, 0.0), (0.05, 0.01), (0.04, 0.015), (0.06, 0.02)) * 3,
        attribution="bundle",
    ),
    "dedup_heavy": Spec(
        records=16000,
        unseen=2000,
        set_size=(2, 3),
        planted=((0.05, 0.0), (0.04, 0.01), (0.06, 0.02), (0.05, 0.03)),
        attribution="groups",
        groups=400,
        group_pool=10,
    ),
    "pair_dense_stagewise": Spec(
        records=15000,
        unseen=1500,
        set_size=(10, 18),
        planted=((0.03, 0.0), (0.04, 0.01), (0.02, 0.03), (0.05, 0.03)) * 4,
        attribution="own",
    ),
}


@dataclass
class Generated:
    """What the checks need beyond the files: the planted structure."""

    config: Path
    planted_pairs: list[tuple[str, str]]
    intended_phi: list[float]


def intended_phi(joint: float, one_sided: float) -> float:
    """Report-level phi of a pair planted in these shares of the records."""
    p_a = joint + one_sided
    return (joint * (1 - joint - 2 * one_sided) - one_sided**2) / (p_a * (1 - p_a))


def _technique_ids(bundle: dict) -> list[str]:
    ids = []
    for obj in bundle["objects"]:
        if obj["type"] == "attack-pattern":
            ids.append(obj["external_references"][0]["external_id"])
    return sorted(ids)


def _zipf_weights(n: int, s: float = 0.9) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def _draw(rng: random.Random, pool: list[str], cum: list[float], k: int) -> set[str]:
    chosen: set[str] = set()
    while len(chosen) < k:
        chosen.update(rng.choices(pool, cum_weights=cum, k=k - len(chosen)))
    return chosen


def _spread_dates(rng: random.Random, count: int) -> list[date]:
    span = (LAST_DAY - FIRST_DAY).days
    return [FIRST_DAY + timedelta(days=rng.randrange(span + 1)) for _ in range(count)]


def _plant(rng: random.Random, sets: list[set[str]], pairs, shares) -> None:
    """Insert each planted pair into exact counts of records."""
    n = len(sets)
    for (a, b), (joint, one_sided) in zip(pairs, shares):
        both, only = round(joint * n), round(one_sided * n)
        chosen = rng.sample(range(n), both + 2 * only)
        for i in chosen[:both]:
            sets[i].update((a, b))
        for i in chosen[both : both + only]:
            sets[i].add(a)
        for i in chosen[both + only :]:
            sets[i].add(b)


def _plant_rising(sets: list[set[str]], dates: list[date], tid: str) -> None:
    """Give ``tid`` a share of each year's records that rises every year."""
    by_year: dict[int, list[int]] = {}
    for i, d in enumerate(dates):
        by_year.setdefault(d.year, []).append(i)
    years = sorted(by_year)
    for rank, year in enumerate(years):
        members = by_year[year]
        share = 0.1 + 0.5 * rank / max(1, len(years) - 1)
        for i in members[: round(share * len(members))]:
            sets[i].add(tid)


def _bundle_objects(bundle: dict) -> list[dict]:
    return [o for o in bundle["objects"] if o["type"] in ("x-mitre-tactic", "attack-pattern")]


def _stix_id(kind: str, n: int) -> str:
    return f"{kind}--00000000-0000-4000-9000-{n:012d}"


def _big_bundle(
    base: dict, rng: random.Random, reports: list[dict], attributors: list[tuple[str, str]]
) -> dict:
    """The pinned techniques plus groups, software and one cited ``uses``
    relationship per (report, technique), as an ATT&CK release has."""
    objects = _bundle_objects(base)
    stix_of_technique = {
        o["external_references"][0]["external_id"]: o["id"]
        for o in objects
        if o["type"] == "attack-pattern"
    }
    stix_of_attributor = {}
    for n, (otype, ext_id) in enumerate(attributors):
        stix_id = _stix_id(otype, n)
        stix_of_attributor[ext_id] = stix_id
        objects.append(
            {
                "type": otype,
                "id": stix_id,
                "name": f"Actor {ext_id}",
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": ext_id,
                     "url": f"https://attack.mitre.org/x/{ext_id}"}
                ],
            }
        )
    rel = 0
    for report in reports:
        source = stix_of_attributor[report["attribution"][0]]
        for tid in report["technique_ids"]:
            objects.append(
                {
                    "type": "relationship",
                    "id": _stix_id("relationship", rel),
                    "relationship_type": "uses",
                    "source_ref": source,
                    "target_ref": stix_of_technique[tid],
                    "description": f"{report['attribution'][0]} has used {tid}.",
                    "external_references": [
                        {"source_name": f"Vendor {report['url'].rsplit('/', 1)[-1]}", "url": report["url"],
                         "description": f"Analyst Team. ({report['published'] or 'n.d.'}). Intrusion report."}
                    ],
                }
            )
            rel += 1
    rng.shuffle(objects)
    return {"type": "bundle", "id": "bundle--bench", "spec_version": "2.1", "objects": objects}


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> Generated:
    """Write the workload's inputs into ``out_dir``; deterministic in the seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    base = json.loads(PINNED_BUNDLE.read_text(encoding="utf-8"))
    techniques = _technique_ids(base)

    n = max(40, round(spec.records * scale))
    n_unseen = max(10, round(spec.unseen * scale))
    # Planted and rising techniques are kept out of the background draw, so
    # their co-occurrence is exactly what was planted.
    reserved = rng.sample(techniques, 2 * len(spec.planted) + 1)
    pairs = [tuple(sorted(reserved[2 * i : 2 * i + 2])) for i in range(len(spec.planted))]
    rising = reserved[-1]
    background = [t for t in techniques if t not in set(reserved)]
    rng.shuffle(background)
    cum = list(_accumulate(_zipf_weights(len(background))))

    attributors: list[tuple[str, str]] = []
    if spec.attribution == "bundle":
        # ATT&CK-like: 130 groups and 650 software; each report is cited by one.
        attributors = [("intrusion-set", f"G{1000 + i}") for i in range(130)]
        attributors += [("malware" if i % 4 else "tool", f"S{3000 + i}") for i in range(650)]
        attributor_cum = list(_accumulate(_zipf_weights(len(attributors), 0.6)))

    dates = sorted(_spread_dates(rng, n))
    sets: list[set[str]] = []
    attributions: list[list[str]] = []
    if spec.attribution == "groups":
        # Fixed group sizes; each group draws from its own small toolkit.
        pools = [sorted(_draw(rng, background, cum, spec.group_pool)) for _ in range(spec.groups)]
        order = list(range(n))
        rng.shuffle(order)
        group_of = [0] * n
        for rank, i in enumerate(order):
            group_of[i] = rank % spec.groups
        for i in range(n):
            g = group_of[i]
            k = rng.randint(*spec.set_size)
            sets.append(set(rng.sample(pools[g], k)))
            attributions.append([f"G{5000 + g}"])
    else:
        for i in range(n):
            sets.append(_draw(rng, background, cum, rng.randint(*spec.set_size)))
            if spec.attribution == "own":
                attributions.append([f"S{10000 + i}"])
            else:
                attributions.append([rng.choices(attributors, cum_weights=attributor_cum)[0][1]])
    _plant(rng, sets, pairs, spec.planted)
    _plant_rising(sets, dates, rising)

    records = []
    for i in range(n):
        url = f"https://reports.example.test/{workload}/{seed}/r{i:06d}"
        records.append(
            {
                "citation_key": url,
                "url": url,
                "published": dates[i].isoformat(),
                "technique_ids": sorted(sets[i]),
                "attribution": sorted(attributions[i]),
                "include": True,
                "exclusion_reason": None,
            }
        )
    for j, reason in enumerate(EXCLUSION_REASONS):
        url = f"https://reports.example.test/{workload}/{seed}/x{j:03d}"
        tids = sorted(_draw(rng, background, cum, 1 if reason == "fewer-than-two-techniques" else 4))
        records.append(
            {
                "citation_key": url,
                "url": url,
                "published": None if reason == "no-date" else _spread_dates(rng, 1)[0].isoformat(),
                "technique_ids": tids,
                "attribution": sorted(attributions[rng.randrange(n)]),
                "include": False,
                "exclusion_reason": reason,
            }
        )
    rng.shuffle(records)

    bundle = _big_bundle(base, rng, records, attributors) if attributors else base

    unseen = []
    for i in range(n_unseen):
        s = _draw(rng, background, cum, rng.randint(*spec.set_size) + 1)
        for a, b in pairs:
            roll = rng.random()
            if roll < 0.25:
                s.update((a, b))
            elif roll < 0.35:
                s.add(a)
        if rng.random() < 0.5:
            s.add(rising)
        unseen.append(
            {
                "id": f"u{i:05d}",
                "published": (UNSEEN_FIRST_DAY + timedelta(days=i % 300)).isoformat(),
                "technique_ids": sorted(s),
            }
        )

    annotations = io.StringIO()
    writer = csv.writer(annotations, lineterminator="\n")
    writer.writerow(["tech_a", "tech_b", "relation", "direction"])
    for i, (a, b) in enumerate(pairs):
        relation, direction = RELATIONS[i % len(RELATIONS)]
        writer.writerow([a, b, relation, direction])

    _write(out_dir / "bundle.json", json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n")
    _write(out_dir / "manifest.json", json.dumps(records, indent=1) + "\n")
    _write(out_dir / "unseen.json", json.dumps(unseen, indent=1) + "\n")
    _write(out_dir / "annotations.csv", annotations.getvalue())
    config = out_dir / "config.cfg"
    _write(
        config,
        "bundle_path = bundle.json\n"
        "manifest_path = manifest.json\n"
        "unseen_manifest_path = unseen.json\n"
        "annotation_path = annotations.csv\n"
        + "".join(f"{key} = {value}\n" for key, value in PARAMS.items())
        + f"seed = {seed}\n",
    )
    return Generated(
        config=config,
        planted_pairs=pairs,
        intended_phi=[intended_phi(*shares) for shares in spec.planted],
    )


def _accumulate(values):
    total = 0.0
    for v in values:
        total += v
        yield total


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generated = generate(args.workload, args.seed, args.out)
    for pair, phi in zip(generated.planted_pairs, generated.intended_phi):
        print(f"planted {pair[0]},{pair[1]} intended phi {phi:.3f}")


if __name__ == "__main__":
    main()
