"""Checks of ttpminer's artifacts against computations made apart from it.

Every check reads the program's output directory and the raw inputs, and
recomputes what the method defines with its own code: plain loops, a
per-attribution sort-and-sweep for duplicates, per-technique bitsets for
pair counts, and the brute-force functions in ``tests/oracles.py`` for phi,
chi-square and the ``erfc`` tail probabilities. Nothing here calls into
ttpminer. A check returns its failures and its notes; a note records a
value too close to a threshold to call, which is reported, not failed.
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
import sys
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from tests import oracles  # noqa: E402

REL_TOL = 1e-9  # the tolerance the repository's tests compare p-values at
DAYS_PER_MONTH = 30
TECHNIQUE_ID_RE = re.compile(r"^T\d{4}(\.\d{3})?$")
CATALOG_SOURCES = {"mitre-attack", "mitre-mobile-attack", "mitre-ics-attack"}
ATTRIBUTION_TYPES = {"intrusion-set", "malware", "tool"}
DIRECTED = {"follow", "require"}
PREVALENT_CELLS = (("increasing", "high"), ("no_trend", "high"), ("increasing", "medium"))
STRENGTHS = (("very_strong", 0.70), ("strong", 0.40), ("moderate", 0.30))


@dataclass
class Result:
    name: str
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


@dataclass
class Inputs:
    """Paths and parameters of one pipeline run, read from its config file."""

    bundle: Path
    manifest: Path
    unseen: Path | None
    annotations: Path | None
    params: dict

    @classmethod
    def from_config(cls, config: Path) -> "Inputs":
        values = {}
        for line in config.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = (part.strip() for part in line.partition("="))
                values[key] = value

        def path(key: str) -> Path | None:
            return config.parent / values[key] if key in values else None

        params = {
            "tau": int(values.get("tau", 2)),
            "min_support": float(values.get("min_support", 0.005)),
            "phi_min": float(values.get("phi_min", 0.2)),
            "alpha_rules": float(values.get("alpha_rules", 0.05)),
            "alpha_trend": float(values.get("alpha_trend", 0.05)),
            "trend_years": int(values.get("trend_years", 5)),
        }
        return cls(path("bundle_path"), path("manifest_path"), path("unseen_manifest_path"),
                   path("annotation_path"), params)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-290)


def near(value: float, threshold: float) -> bool:
    return abs(value - threshold) <= REL_TOL * max(abs(threshold), 1e-300)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _normalize_url(url: str) -> str:
    parts = urlsplit(url.strip())
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path.rstrip("/"), parts.query, ""))


def _mitre_id(obj: dict) -> str | None:
    for ref in obj.get("external_references", ()):
        if ref.get("source_name") in CATALOG_SOURCES and ref.get("external_id"):
            return ref["external_id"]
    return None


def _cited_keys(obj: dict) -> list[str]:
    return [
        _normalize_url(ref["url"])
        for ref in obj.get("external_references", ())
        if ref.get("url") and ref.get("source_name") not in CATALOG_SOURCES
    ]


def check_catalog(out: Path, inputs: Inputs) -> Result:
    """Technique ids, citation keys and both citation maps, from the raw bundle."""
    result = Result("catalog")
    objects = json.loads(inputs.bundle.read_text(encoding="utf-8"))["objects"]
    techniques, technique_of, attributor_of = set(), {}, {}
    cites: dict[str, set] = {}
    attribution: dict[str, set] = {}
    for obj in objects:
        ext = _mitre_id(obj)
        if obj["type"] == "attack-pattern" and ext and TECHNIQUE_ID_RE.match(ext):
            techniques.add(ext)
            technique_of[obj["id"]] = ext
            for key in _cited_keys(obj):
                cites.setdefault(key, set()).add(ext)
                attribution.setdefault(key, set())
        elif obj["type"] in ATTRIBUTION_TYPES:
            name = ext or obj.get("name") or obj["id"]
            attributor_of[obj["id"]] = name
            for key in _cited_keys(obj):
                attribution.setdefault(key, set()).add(name)
                cites.setdefault(key, set())
    for obj in objects:
        if obj["type"] != "relationship" or obj.get("relationship_type") != "uses":
            continue
        target = technique_of.get(obj.get("target_ref"))
        if target is None:
            continue
        source = attributor_of.get(obj.get("source_ref"))
        for key in _cited_keys(obj):
            cites.setdefault(key, set()).add(target)
            attribution.setdefault(key, set())
            if source is not None:
                attribution[key].add(source)

    catalog = json.loads((out / "catalog.json").read_text(encoding="utf-8"))
    if {t["id"] for t in catalog["techniques"]} != techniques:
        result.fail("catalog technique ids differ from the bundle's attack-patterns")
    if [c["key"] for c in catalog["citations"]] != sorted(cites):
        result.fail(f"catalog has {len(catalog['citations'])} citations, the bundle cites {len(cites)}")
    for name, expected in (("technique_citations", cites), ("attribution", attribution)):
        got = {k: set(v) for k, v in catalog[name].items()}
        if got != expected:
            wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
            result.fail(f"{name} differs for {len(wrong)} citation(s), e.g. {wrong[0]}")
    return result


def _included(inputs: Inputs) -> dict[str, dict]:
    records = json.loads(inputs.manifest.read_text(encoding="utf-8"))
    return {r["citation_key"]: r for r in records if r["include"] is True}


def load_corpus(out: Path) -> list[dict]:
    return json.loads((out / "corpus.json").read_text(encoding="utf-8"))


def check_corpus(out: Path, inputs: Inputs) -> Result:
    """The technique-sets are the components of same-attribution reports
    within tau * 30 days, found by sorting each attribution by date and
    joining neighbours; unions, attack ids and dates follow from them."""
    result = Result("corpus")
    included = _included(inputs)
    corpus = load_corpus(out)
    dates = {k: date.fromisoformat(r["published"]) for k, r in included.items()}

    set_of: dict[str, int] = {}
    for i, ts in enumerate(corpus):
        for key in ts["member_citations"]:
            if key not in included:
                result.fail(f"{key} is in a technique-set but is not an included citation")
            elif key in set_of:
                result.fail(f"{key} sits in two technique-sets")
            set_of[key] = i
    missing = set(included) - set(set_of)
    if missing:
        result.fail(f"{len(missing)} included citation(s) sit in no technique-set, e.g. {min(missing)}")
    if result.failures:
        return result

    parent = {k: k for k in included}

    def find(k: str) -> str:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    max_gap = inputs.params["tau"] * DAYS_PER_MONTH
    by_attribution: dict[str, list[str]] = {}
    for key, record in included.items():
        for name in record["attribution"]:
            by_attribution.setdefault(name, []).append(key)
    for keys in by_attribution.values():
        keys.sort(key=lambda k: (dates[k], k))
        for a, b in zip(keys, keys[1:]):
            if (dates[b] - dates[a]).days <= max_gap:
                if set_of[a] != set_of[b]:
                    result.fail(f"{a} and {b} share an attribution within {max_gap} days but are split")
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

    components: dict[str, list[str]] = {}
    for key in included:
        components.setdefault(find(key), []).append(key)
    expected = {}
    for members in components.values():
        members.sort()
        expected[members[0]] = {
            "attack_id": members[0],
            "member_citations": members,
            "techniques": sorted(set().union(*(included[m]["technique_ids"] for m in members))),
            "representative_date": min(dates[m] for m in members).isoformat(),
            "latest_date": max(dates[m] for m in members).isoformat(),
        }
    if len(expected) != len(corpus):
        result.fail(f"{len(corpus)} technique-sets, expected {len(expected)}")
    for ts in corpus:
        want = expected.get(ts["attack_id"])
        if want != ts:
            result.fail(f"technique-set {ts['attack_id']} differs from its recomputation")
    if [ts["attack_id"] for ts in corpus] != sorted(expected):
        result.fail("technique-sets are not in attack_id order")
    return result


def mann_kendall(values: list[float], alpha: float) -> tuple[int, float, str]:
    """S by enumeration, tie-corrected variance, erfc p-value, classification."""
    n = len(values)
    s = oracles.mk_s(values)
    ties: dict[float, int] = {}
    for v in values:
        ties[v] = ties.get(v, 0) + 1
    var_s = (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties.values())) / 18
    z = (s - 1) / math.sqrt(var_s) if s > 0 else (s + 1) / math.sqrt(var_s) if s < 0 else 0.0
    p = 2 * oracles.normal_sf(abs(z))
    trend = "no_trend"
    if n >= 4 and p < alpha:
        trend = "increasing" if z > 0 else "decreasing"
    return s, p, trend


def check_prevalence(out: Path, inputs: Inputs, trend_calls: dict | None = None) -> Result:
    """Nearest-rank bins, Mann-Kendall trends and the matrix, recomputed over
    the catalog universe; with ``trend_calls`` (technique -> (S, p) seen by
    the traced run) S and p are compared too."""
    result = Result("prevalence")
    corpus = load_corpus(out)
    catalog = json.loads((out / "catalog.json").read_text(encoding="utf-8"))
    universe = sorted(t["id"] for t in catalog["techniques"])
    alpha = inputs.params["alpha_trend"]
    n_sets = len(corpus)
    frequency = {t: 0 for t in universe}
    for ts in corpus:
        for t in ts["techniques"]:
            frequency[t] += 1
    values = list(frequency.values())
    p67, p33 = oracles.nearest_rank(values, 67), oracles.nearest_rank(values, 33)
    bins = {t: "high" if f > p67 else "medium" if f > p33 else "low" for t, f in frequency.items()}

    years = sorted({int(ts["representative_date"][:4]) for ts in corpus})[-inputs.params["trend_years"]:]
    totals = {y: 0 for y in years}
    mentions = {y: {} for y in years}
    for ts in corpus:
        year = int(ts["representative_date"][:4])
        if year in totals:
            totals[year] += 1
            for t in ts["techniques"]:
                mentions[year][t] = mentions[year].get(t, 0) + 1
    trends, borderline = {}, set()
    for t in universe:
        s, p, trends[t] = mann_kendall([mentions[y].get(t, 0) / totals[y] for y in years], alpha)
        if near(p, alpha):
            borderline.add(t)
            result.notes.append(f"{t}: trend p-value {p!r} is within {REL_TOL} of alpha")
        if trend_calls is not None:
            seen = trend_calls.get(t)
            if seen is None:
                result.fail(f"no Mann-Kendall call was traced for {t}")
            elif seen[0] != s or not close(seen[1], p):
                result.fail(f"{t}: Mann-Kendall S/p {seen} differ from recomputed ({s}, {p!r})")

    pct = {t: 100.0 * frequency[t] / n_sets for t in universe}
    total_mentions = sum(values)
    rows = {(r["trend"], r["bin"]): r for r in _csv_rows(out / "prevalence_matrix.csv")}
    cells = {}
    for trend in ("increasing", "no_trend", "decreasing"):
        for fbin in ("low", "medium", "high"):
            cells[(trend, fbin)] = [t for t in universe if trends[t] == trend and bins[t] == fbin]
    if set(rows) != set(cells):
        result.fail(f"matrix cells {sorted(rows)} are not the nine trend x bin cells")
        return result
    for key, tids in cells.items():
        row = rows[key]
        got = [t for t in row["technique_ids"].split(";") if t]
        if [t for t in got if t not in borderline] != [t for t in tids if t not in borderline]:
            result.fail(f"cell {key} holds {len(got)} technique(s), expected {len(tids)}")
            continue
        if borderline & set(got + tids):
            continue
        share = sum(frequency[t] for t in tids) / total_mentions if total_mentions else 0.0
        median = statistics.median(pct[t] for t in tids) if tids else 0.0
        if int(row["count"]) != len(tids) or not close(float(row["median_pct"]), median) \
                or not close(float(row["mention_share"]), share):
            result.fail(f"cell {key}: count/median_pct/mention_share differ from recomputation")

    prevalent = sorted(
        (t for key in PREVALENT_CELLS for t in cells[key]), key=lambda t: (-pct[t], t)
    )
    got = _csv_rows(out / "prevalent_techniques.csv")
    if not borderline and [r["id"] for r in got] != prevalent:
        result.fail(f"prevalent list has {len(got)} technique(s), expected {len(prevalent)}")
    for row in got:
        t = row["id"]
        if t in pct and (not close(float(row["pct_reports"]), pct[t])
                         or row["cell"] != f"{bins[t]}/{trends[t]}") and t not in borderline:
            result.fail(f"prevalent {t}: pct_reports/cell differ from recomputation")
    return result


def _annotation_rows(inputs: Inputs) -> list[dict]:
    return _csv_rows(inputs.annotations) if inputs.annotations else []


def _strength(phi: float) -> str:
    for name, threshold in STRENGTHS:
        if phi >= threshold:
            return name
    return "weak"


def check_pairs(out: Path, inputs: Inputs, planted: list[tuple[str, str]] = ()) -> Result:
    """Support, phi, chi-square and p for every pair above min_support, from
    per-technique bitsets; the kept set is phi >= phi_min and p < alpha."""
    result = Result("pairs")
    corpus = load_corpus(out)
    n = len(corpus)
    params = inputs.params
    bits: dict[str, int] = {}
    for i, ts in enumerate(corpus):
        for t in ts["techniques"]:
            bits[t] = bits.get(t, 0) | (1 << i)
    counts = {t: b.bit_count() for t, b in bits.items()}
    frequent = sorted(t for t in bits if counts[t] / n >= params["min_support"])
    labels: dict[tuple[str, str], set] = {}
    for row in _annotation_rows(inputs):
        key = tuple(sorted((row["tech_a"].strip(), row["tech_b"].strip())))
        labels.setdefault(key, set()).add(row["relation"].strip())

    expected, borderline = {}, set()
    for i, a in enumerate(frequent):
        bits_a, count_a = bits[a], counts[a]
        for b in frequent[i + 1:]:
            n11 = (bits_a & bits[b]).bit_count()
            if n11 == 0 or n11 / n < params["min_support"]:
                continue
            count_b = counts[b]
            if count_a == n or count_b == n:
                continue  # degenerate marginal: phi is undefined
            cells = (n11, count_a - n11, count_b - n11, n - count_a - count_b + n11)
            phi = oracles.phi_from_cells(*cells)
            chi2 = oracles.pearson_chi2(*cells)
            p = oracles.chi2_sf_1dof(chi2)
            if near(phi, params["phi_min"]) or near(p, params["alpha_rules"]):
                borderline.add((a, b))
                result.notes.append(f"pair {a},{b}: phi {phi!r} / p {p!r} is at a threshold")
                continue
            if phi >= params["phi_min"] and p < params["alpha_rules"]:
                conf_ab, conf_ba = n11 / count_a, n11 / count_b
                expected[(a, b)] = {
                    "direction": "ba" if conf_ba > conf_ab else "ab",
                    "support": n11 / n, "confidence_ab": conf_ab, "confidence_ba": conf_ba,
                    "phi": phi, "chi2": chi2, "p_value": p,
                    "lift": n11 * n / (count_a * count_b), "strength": _strength(phi),
                    "relation_labels": ";".join(sorted(labels.get((a, b), ()))),
                }
    rows = {(r["tech_a"], r["tech_b"]): r for r in _csv_rows(out / "recurring_pairs.csv")}
    got = set(rows) - borderline
    if got != set(expected):
        extra, lost = sorted(got - set(expected)), sorted(set(expected) - got)
        result.fail(f"kept pairs differ: {len(extra)} unexpected {extra[:3]}, {len(lost)} missing {lost[:3]}")
    for key in sorted(got & set(expected)):
        row, want = rows[key], expected[key]
        for column, value in want.items():
            ok = close(float(row[column]), value) if isinstance(value, float) else row[column] == value
            if not ok:
                result.fail(f"pair {key} {column}: {row[column]} != {value!r}")
    for pair in planted:
        if tuple(pair) not in rows:
            result.fail(f"planted pair {pair[0]},{pair[1]} was not kept")
    return result


def check_graph(out: Path, inputs: Inputs) -> Result:
    """Degree, in/out-degree centrality and partner counts from the pairs."""
    result = Result("graph")
    edges = {(r["tech_a"], r["tech_b"]) for r in _csv_rows(out / "recurring_pairs.csv")}
    expected = []
    nodes = sorted({t for e in edges for t in e})
    degree = {v: sum(v in e for e in edges) for v in nodes}
    for v in nodes:
        expected.append((v, "all_pairs", degree[v] / len(nodes), None, None, degree[v]))
    annotations = _annotation_rows(inputs)
    for relation in sorted({a["relation"].strip() for a in annotations}):
        chosen = [a for a in annotations if a["relation"].strip() == relation]
        if relation in DIRECTED:
            arcs = {(a["tech_a"], a["tech_b"]) if a["direction"] == "ab" else (a["tech_b"], a["tech_a"])
                    for a in chosen}
            rel_nodes = sorted({t for e in arcs for t in e})
            for v in rel_nodes:
                d_in = sum(e[1] == v for e in arcs) / len(rel_nodes)
                d_out = sum(e[0] == v for e in arcs) / len(rel_nodes)
                expected.append((v, relation, None, d_in, d_out, None))
        else:
            rel_edges = {tuple(sorted((a["tech_a"], a["tech_b"]))) for a in chosen}
            rel_nodes = sorted({t for e in rel_edges for t in e})
            for v in rel_nodes:
                expected.append((v, relation, sum(v in e for e in rel_edges) / len(rel_nodes), None, None, None))
    expected.sort(key=lambda row: (row[1], row[0]))

    def num(text: str):
        return float(text) if text != "" else None

    got = [(r["node"], r["relation"], num(r["delta"]), num(r["delta_in"]), num(r["delta_out"]), num(r["eta"]))
           for r in _csv_rows(out / "graph_centrality.csv")]
    if len(got) != len(expected):
        result.fail(f"{len(got)} centrality rows, expected {len(expected)}")
    for row, want in zip(got, expected):
        if row[:2] != want[:2] or any(
            (x is None) != (y is None) or (x is not None and not close(x, y))
            for x, y in zip(row[2:], want[2:])
        ):
            result.fail(f"centrality row {row} != {want}")
    return result


def check_eval(out: Path, inputs: Inputs) -> Result:
    """EV-A coverage and EV-B pair occurrence in the unseen reports."""
    result = Result("eval")
    corpus = load_corpus(out)
    unseen = json.loads(inputs.unseen.read_text(encoding="utf-8"))
    reports = [set(r["technique_ids"]) for r in unseen]
    prevalent = [r["id"] for r in _csv_rows(out / "prevalent_techniques.csv")]
    pairs = _csv_rows(out / "recurring_pairs.csv")

    found = [t for t in prevalent if any(t in r for r in reports)]
    per_report = [sum(t in r for t in prevalent) for r in reports]
    counts: dict[str, int] = {}
    for r in reports:
        for t in r:
            counts[t] = counts.get(t, 0) + 1
    top20 = set(sorted(counts, key=lambda t: (-counts[t], t))[:20])
    overlap = [t for t in prevalent if t in top20]

    universe = set().union(*reports)
    valid = [p for p in pairs if p["tech_a"] in universe and p["tech_b"] in universe]
    hits = [[p for p in valid if p["tech_a"] in r and p["tech_b"] in r] for r in reports]
    matched = sorted({(p["tech_a"], p["tech_b"]) for h in hits for p in h})
    labels = {(p["tech_a"], p["tech_b"]): [x for x in p["relation_labels"].split(";") if x] for p in valid}
    per_relation: dict[str, int] = {}
    for key in matched:
        for label in labels[key]:
            per_relation[label] = per_relation.get(label, 0) + 1
    total_hits = sum(len(h) for h in hits)
    with_pair = sum(1 for h in hits if h)
    expected = {
        "cutoff": max(ts["latest_date"] for ts in corpus),
        "unseen_report_count": len(reports),
        "ev_a": {
            "prevalent_found_count": len(found),
            "prevalent_found_ids": found,
            "mean_prevalent_per_report": sum(per_report) / len(reports),
            "median_prevalent_per_report": statistics.median(per_report),
            "top20_overlap_count": len(overlap),
            "top20_overlap_ids": overlap,
        },
        "ev_b": {
            "valid_pair_count": len(valid),
            "matched_pair_count": len(matched),
            "matched_pairs": [list(k) for k in matched],
            "reports_with_pair": with_pair,
            "mean_valid_pairs_per_report": total_hits / len(reports),
            "mean_valid_pairs_per_matching_report": total_hits / with_pair if with_pair else 0.0,
            "per_relation_matches": dict(sorted(per_relation.items())),
        },
    }
    got = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    for section in ("ev_a", "ev_b"):
        for key, want in expected[section].items():
            value = got.get(section, {}).get(key)
            same = close(value, want) if isinstance(want, float) and isinstance(value, (int, float)) else value == want
            if not same:
                result.fail(f"evaluation {section}.{key} = {value!r}, expected {want!r}")
    for key in ("cutoff", "unseen_report_count"):
        if got.get(key) != expected[key]:
            result.fail(f"evaluation {key} = {got.get(key)!r}, expected {expected[key]!r}")
    return result


def run_all(out: Path, inputs: Inputs, planted=(), trend_calls: dict | None = None) -> list[Result]:
    """Every artifact check, in pipeline order."""
    return [
        check_catalog(out, inputs),
        check_corpus(out, inputs),
        check_prevalence(out, inputs, trend_calls),
        check_pairs(out, inputs, planted),
        check_graph(out, inputs),
        check_eval(out, inputs),
    ]
