"""Command-line front end wiring the pipeline stages together.

Subcommands mirror the stages (ingest, corpus, prevalence, mine, graph,
eval) plus ``all``. Each stage writes its artifacts atomically and a run
manifest records the configuration, input digests, and tool version.
Within ``all`` a stage takes its upstream values from the stages before it
in memory; run on its own, it reads them back from the artifact files in
the output directory. Both give the same values, so fixed inputs,
configuration and seed give byte-identical artifacts either way.

Exit codes: 0 success, 1 validation/configuration error, 2 I/O error or a
command line argparse rejects (an unknown flag, or ``--tau x``).
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from functools import cached_property
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_type_hints

from . import __version__
from .errors import AnnotationError, ArtifactError, ConfigError, ManifestError, ParameterError, TTPMinerError
from .io_utils import TYPE_NOUNS, atomic_write_text, canonical_json, read_text, render_csv, sha256_file

logger = logging.getLogger(__name__)

_COMMAND_HELP = {
    "ingest": "parse a STIX bundle into the catalog artifact",
    "corpus": "build the deduplicated technique-set corpus",
    "prevalence": "frequency-trend matrix and prevalent techniques",
    "mine": "mine recurring technique pairs",
    "graph": "relation graphs and centrality scores",
    "eval": "evaluate findings against unseen reports",
    "all": "run every stage in order",
}

COMMANDS = tuple(_COMMAND_HELP)


class PipelineConfig(NamedTuple):
    """Shared pipeline configuration; defaults carry the published parameters."""

    bundle_path: Path | None = None
    manifest_path: Path | None = None
    unseen_manifest_path: Path | None = None
    annotation_path: Path | None = None
    tau: int = 2
    min_support: float = 0.005
    phi_min: float = 0.20
    alpha_rules: float = 0.05
    alpha_trend: float = 0.05
    trend_years: int = 5
    seed: int = 0
    output_dir: Path = Path("out")
    output_format: str = "csv"

    def validate(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ConfigError(f"min_support must be in (0, 1], got {self.min_support}")
        if not 0.0 <= self.phi_min <= 1.0:
            raise ConfigError(f"phi_min must be in [0, 1], got {self.phi_min}")
        for name in ("alpha_rules", "alpha_trend"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.trend_years < 2:  # a trend test needs two years
            raise ConfigError(f"trend_years must be >= 2, got {self.trend_years}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format must be csv or json, got {self.output_format!r}")


def _value_types() -> dict[str, type]:
    """Each PipelineConfig field's value type: int, float, str or Path."""
    return {
        name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
        for name, hint in get_type_hints(PipelineConfig).items()
    }


def _plain(kind: type) -> Callable[[str], int | float]:
    """``kind`` read only from an ASCII literal without ``_``: ``int`` and ``float``
    also take digit-group underscores and any Unicode digit (``1_2``, ``٣``)."""

    def read(text: str) -> int | float:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)

    read.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" names it
    return read


NUMBERS = {int: _plain(int), float: _plain(float)}  # a config value or flag of each number kind


def validate_config(path: Path | str) -> PipelineConfig:
    """Parse a ``key = value`` config file; unknown keys and bad types are errors.

    Relative paths are resolved against the config file's directory.
    """
    path = _require_file(Path(path), "config")
    value_types = _value_types()
    values = {}
    for lineno, raw_line in enumerate(read_text(path, ConfigError).splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in value_types:
            import difflib
            hint = difflib.get_close_matches(key, value_types, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}{suggestion}")
        kind = value_types[key]
        try:
            # an absolute path replaces the parent
            values[key] = path.parent / value if kind is Path else NUMBERS.get(kind, kind)(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} must be {TYPE_NOUNS[kind]}, got {value!r}") from None
    config = PipelineConfig(**values)  # the last value of each key
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


UNIVERSES = ("catalog", "corpus")  # the techniques the prevalence stage bins


class StageOptions(NamedTuple):
    """Per-stage knobs that are not part of the shared configuration."""

    elbow_labels: Path | None = None
    sample_pairs: Path | None = None
    n_buckets: int = 5
    sample_size: int = 20
    universe: str = "catalog"  # "catalog" bins zero-mention techniques too
    yates: bool = False
    relation: str | None = None
    top_k: int | None = None
    conventional_normalization: bool = False
    parent_match: bool = False
    dot_path: Path | None = None

    def validate(self) -> None:
        for flag, value in (("--n-buckets", self.n_buckets), ("--sample-size", self.sample_size),
                            ("--top-k", self.top_k)):
            if value is not None and value < 1:
                raise ConfigError(f"{flag} must be >= 1, got {value}")
        if self.universe not in UNIVERSES:
            raise ConfigError(f"--universe must be one of {UNIVERSES}, got {self.universe!r}")
        if self.relation is not None:
            relations = _module("graph_analysis").RELATION_TYPES
            if self.relation not in relations:
                raise ConfigError(f"--relation must be one of {tuple(relations)}, got {self.relation!r}")


def _require_file(path: Path | None, role: str) -> Path:
    if path is None:
        raise ConfigError(f"no {role} configured; pass the flag or set it in the config file")
    if not path.is_file():
        raise ConfigError(f"{role} path is not a file: {path}" if path.exists() else f"missing {role} file: {path}")
    return path


def _artifact(config: PipelineConfig, stem: str, suffix: str | None = None) -> Path:
    suffix = suffix if suffix is not None else f".{config.output_format}"
    return config.output_dir / f"{stem}{suffix}"


def _read_corpus(path: Path) -> list:
    """The corpus artifact. The corpus stage never writes an empty one, a
    technique-set of fewer than two techniques, one attack_id twice, an
    attack_id other than its set's least member citation, a representative
    date after the latest, nor a citation under two technique-sets, so each
    is corrupt."""
    corpus = _module("corpus_builder").corpus_from_json(path.read_text("utf-8"))
    if not corpus:
        raise ValueError("no technique-sets")
    attack_ids: set[str] = set()
    owners: dict[str, str] = {}  # citation -> attack_id of the technique-set listing it
    for ts in corpus:
        if len(ts.techniques) < 2:
            raise ValueError(f"technique-set {ts.attack_id!r} has fewer than two techniques")
        if ts.attack_id in attack_ids:
            raise ValueError(f"attack_id {ts.attack_id!r} names two technique-sets")
        attack_ids.add(ts.attack_id)
        if ts.attack_id != min(ts.member_citations, default=None):
            raise ValueError(f"attack_id {ts.attack_id!r} is not the least of its member citations")
        if ts.representative_date > ts.latest_date:
            raise ValueError(f"technique-set {ts.attack_id!r} has representative_date {ts.representative_date} "
                             f"after its latest_date {ts.latest_date}")
        for citation in ts.member_citations:
            if owners.setdefault(citation, ts.attack_id) != ts.attack_id:
                raise ValueError(f"citation {citation!r} is listed under technique-sets "
                                 f"{owners[citation]!r} and {ts.attack_id!r}")
    return corpus


# The artifact each stage hands on: stem, suffix (None for the tabular format)
# and loader, which imports its reader's module when called. RunState.hand_off
# writes the file named here and RunState.upstream reads it back.
_UPSTREAM = {
    "ingest": ("catalog", ".json", lambda p: _module("stix_ingest").catalog_from_json(p.read_text("utf-8"))),
    "corpus": ("corpus", ".json", _read_corpus),
    "prevalence": ("prevalent_techniques", None, lambda p: _module("artifacts").read_prevalent(p)),
    "mine": ("recurring_pairs", None, lambda p: _module("artifacts").read_pairs(p)),
}


def _module(name: str):
    """The ttpminer module ``name``; a command imports only the modules its stages run."""
    return import_module(f".{name}", __package__)


class RunState:
    """What one ``run`` reads, writes and hands from stage to stage; each run makes its own."""

    def __init__(self, config: PipelineConfig, config_path: Path | None) -> None:
        self.config = config
        self.config_path = config_path  # the file config was read from, named where a setting is blamed
        self.inputs: dict[str, Path] = {}  # role -> input file, for the run manifest
        self.written: list[Path] = []
        self.produced: dict[str, object] = {}  # stage -> the value it returned

    def input(self, role: str, path: Path | None, noun: str) -> Path:
        """The configured input file ``path``, checked to exist and recorded as ``role``."""
        self.inputs[role] = _require_file(path, noun)
        return path

    def write(self, path: Path, writer, *args) -> None:
        writer(path, *args)
        self.written.append(path)
        logger.info("wrote %s", path)

    def hand_off(self, stage: str, writer, *args) -> None:
        """Write ``stage``'s upstream artifact, where ``upstream`` reads it back."""
        stem, suffix, _ = _UPSTREAM[stage]
        self.write(_artifact(self.config, stem, suffix), writer, *args)

    def upstream(self, stage: str):
        """The value ``stage`` returned earlier in this run, else its artifact read back.

        Every artifact round-trips exactly, so both give the same value. An artifact
        that cannot be decoded raises ArtifactError naming the file (and a missing field).
        """
        if stage in self.produced:
            return self.produced[stage]
        stem, suffix, load = _UPSTREAM[stage]
        path = _require_file(_artifact(self.config, stem, suffix), f"{stem.replace('_', ' ')} artifact")
        hint = f"; re-run `ttpminer {stage}`"
        try:
            return load(path)
        except ArtifactError as exc:  # a CSV table that csv_rows refused; it names the file
            raise ArtifactError(f"{exc}{hint}") from exc
        except (KeyError, ValueError, RecursionError) as exc:  # what the decoders raise; JSON errors too
            problem = f"missing field {exc}" if isinstance(exc, KeyError) else f"malformed ({exc})"
            raise ArtifactError(f"{path}: {problem}{hint}") from exc

    @cached_property
    def annotations(self) -> list:
        """The configured relation annotations, parsed once per run; [] without any."""
        if self.config.annotation_path is None:
            return []
        path = self.input("annotations", self.config.annotation_path, "relation annotations")
        return _module("graph_analysis").load_annotations(path)


def stage_ingest(config: PipelineConfig, options: StageOptions, state: RunState) -> object:
    from . import stix_ingest
    bundle_path = state.input("bundle", config.bundle_path, "STIX bundle")
    try:
        catalog = stix_ingest.parse_bundle(bundle_path.read_bytes())
    except TTPMinerError as exc:  # the bundle is not UTF-8 JSON, or not a usable bundle
        exc.args = (f"{bundle_path}: {exc}",)  # named, keeping a parse error's offset
        raise
    logger.info(
        "parsed %d tactics, %d techniques (%d sub-techniques), %d citations",
        len(catalog.tactics),
        len(catalog.techniques),
        sum(t.is_subtechnique for t in catalog.techniques),
        len(catalog.citations),
    )
    state.hand_off("ingest", atomic_write_text, stix_ingest.catalog_to_json(catalog))
    return catalog


def stage_corpus(config: PipelineConfig, options: StageOptions, state: RunState) -> list:
    from . import corpus_builder
    manifest_path = state.input("manifest", config.manifest_path, "report manifest")
    catalog = state.upstream("ingest")
    records = corpus_builder.load_manifest(manifest_path, catalog, _artifact(config, "catalog", ".json"))
    included = corpus_builder.included_records(records)
    if not included:
        raise ManifestError(f"{manifest_path}: no included record, so the corpus would be empty")

    tau = config.tau
    if options.elbow_labels is not None:
        labels_path = state.input("elbow_labels", options.elbow_labels, "elbow labels")
        fractions = corpus_builder.read_elbow_labels(labels_path)
        try:
            tau = corpus_builder.estimate_tau(fractions)
        except ParameterError as exc:  # fewer than two buckets, or no drop between them
            raise ManifestError(f"{labels_path}: {exc}") from None
        logger.info("estimated tau=%d month(s) from %d labeled buckets", tau, len(fractions))

    if options.sample_pairs is not None:
        # A pair lands in a sampled month bucket <= n only within n months.
        pairs = corpus_builder.find_candidate_pairs(
            included, max_gap_days=options.n_buckets * corpus_builder.DAYS_PER_MONTH
        )
        samples = corpus_builder.sample_buckets(
            pairs, n=options.n_buckets, s=options.sample_size, seed=config.seed
        )
        short = ", ".join(f"{i} ({len(keys)} pairs)" for i, keys in samples.items()
                          if len(keys) < options.sample_size)
        if short:
            logger.warning("month buckets holding fewer than --sample-size %d pairs, emitted whole: %s",
                           options.sample_size, short)
        rows = [[bucket, key, ""] for bucket, keys in samples.items() for key in keys]
        logger.info("sampled %s pairs per bucket for manual duplicate labeling",
                    "/".join(str(len(keys)) for keys in samples.values()))
        text = render_csv(corpus_builder.SAMPLE_COLUMNS, rows)
        state.write(options.sample_pairs, atomic_write_text, text)

    sets = corpus_builder.merge_duplicates(included, corpus_builder.date_neighbour_links(included, tau), tau)
    logger.info(
        "corpus: %d included citations -> %d technique-sets (%d merged), "
        "%d mentions, %d distinct techniques",
        len(included),
        len(sets),
        sum(len(ts.member_citations) > 1 for ts in sets),
        sum(len(ts.techniques) for ts in sets),
        len(frozenset().union(*(ts.techniques for ts in sets))),
    )
    state.hand_off("corpus", atomic_write_text, corpus_builder.corpus_to_json(sets))
    return sets


def stage_prevalence(config: PipelineConfig, options: StageOptions, state: RunState) -> list[str]:
    from . import artifacts, prevalence
    corpus = state.upstream("corpus")
    tally = prevalence.year_tally(corpus)
    window = tuple(tally)[-config.trend_years:]
    if len(window) < 2:  # trend_years >= 2, so every technique-set falls in this one year
        source, error = ((config.manifest_path, ManifestError) if "corpus" in state.produced
                         else (_artifact(config, "corpus", ".json"), ArtifactError))
        raise error(f"{source}: every technique-set falls in {window[0]}, so the trend window "
                    f"(trend_years = {config.trend_years}) holds one year; a trend test needs two")
    if len(window) < prevalence.MIN_TREND_POINTS:
        logger.warning("the trend window (trend_years = %d) holds %d years (%s), fewer than the %d a "
                       "trend call needs, so every technique classifies %s", config.trend_years, len(window),
                       ", ".join(map(str, window)), prevalence.MIN_TREND_POINTS, prevalence.NO_TREND)
    catalog = state.upstream("ingest")
    known = catalog.technique_ids()
    frequencies = prevalence.technique_frequency(tally, universe=known if options.universe == "catalog" else None)
    unknown = next((tid for tid in frequencies if tid not in known), None)
    if unknown is not None:  # the corpus stage checks every technique against the catalog
        raise ArtifactError(f"{_artifact(config, 'corpus', '.json')}: technique {unknown} is not in "
                            f"{_artifact(config, 'catalog', '.json')}; re-run `ttpminer corpus`")
    bins = prevalence.percentile_bins(frequencies)
    series = prevalence.yearly_series(tally, bins.keys(), window)
    trends = {
        tid: prevalence.mann_kendall(series[tid], alpha=config.alpha_trend) for tid in series
    }
    matrix = prevalence.build_matrix(bins, trends, frequencies, len(corpus))
    prevalent = prevalence.prevalent_techniques(matrix)
    logger.info("prevalent techniques: %d of %d analyzed", len(prevalent), len(bins))
    state.write(_artifact(config, "prevalence_matrix"), artifacts.write_matrix, matrix)
    state.hand_off("prevalence", artifacts.write_prevalent, prevalent, matrix, catalog)
    return prevalent


def stage_mine(config: PipelineConfig, options: StageOptions, state: RunState) -> list:
    from . import artifacts, rule_miner
    corpus = state.upstream("corpus")
    itemsets = [ts.techniques for ts in corpus]
    everywhere = frozenset.intersection(*itemsets)
    if everywhere:
        logger.info("present in every technique-set, so their pairs have no phi and are dropped: %s",
                    ", ".join(sorted(everywhere)))
    candidates = rule_miner.mine_pairs(itemsets, config.min_support)
    annotations = state.annotations
    labels = _module("graph_analysis").relation_label_map(annotations) if annotations else {}
    pairs = rule_miner.filter_pairs(
        candidates, phi_min=config.phi_min, alpha=config.alpha_rules, yates=options.yates, labels=labels
    )
    logger.info("mined %d candidate pairs, %d recurring pairs kept", len(candidates), len(pairs))
    state.hand_off("mine", artifacts.write_pairs, pairs)
    return pairs


def stage_graph(config: PipelineConfig, options: StageOptions, state: RunState) -> None:
    from . import artifacts, graph_analysis
    pairs = state.upstream("mine")
    annotations = state.annotations
    pair_keys = {pair.key for pair in pairs}
    for i, annotation in enumerate(annotations):  # load_annotations keeps one annotation per row
        if annotation.pair_key not in pair_keys:
            raise AnnotationError(
                f"{config.annotation_path} row {i}: annotation references unknown pair ({annotation.tech_a}, "
                f"{annotation.tech_b}), not among the {len(pairs)} recurring pairs in "
                f"{_artifact(config, 'recurring_pairs')} (this run's min_support = {config.min_support}, "
                f"phi_min = {config.phi_min}, alpha_rules = {config.alpha_rules}"
                f"{'' if state.config_path is None else f', from {state.config_path} and the command line'})"
            )

    relations = [options.relation] if options.relation is not None else sorted({a.relation for a in annotations})
    # relation None is the all-pairs graph
    graphs = {r: graph_analysis.build_graph(pairs, annotations, relation=r) for r in [None, *relations]}
    rows: list[list] = []
    listings: list[tuple[str, dict]] = []  # (label, scores) per graph, for --top-k
    conventional = options.conventional_normalization
    for relation, edges in graphs.items():
        if relation is None:
            etas = graph_analysis.partner_count(edges)
            deltas = graph_analysis.degree_centrality(edges, conventional=conventional)
            rows += [[n, "all_pairs", deltas[n], "", "", eta] for n, eta in etas.items()]
            listings.append(("all_pairs (eta)", etas))
        elif graph_analysis.RELATION_TYPES[relation]:
            scores = graph_analysis.directed_centrality(edges, conventional=conventional)
            rows += [[n, relation, "", *score, ""] for n, score in scores.items()]
            listings.append((f"{relation} (delta_out)", {n: s[1] for n, s in scores.items()}))
        else:
            scores = graph_analysis.degree_centrality(edges, conventional=conventional)
            rows += [[n, relation, score, "", "", ""] for n, score in scores.items()]
            listings.append((f"{relation} (delta)", scores))

    if options.top_k is not None:
        for label, scores in listings:
            ranked = graph_analysis.top_k(scores, options.top_k)
            print(f"top {len(ranked)} {label}:")
            for node in ranked:
                print(f"  {node}\t{scores[node]}")
    rows.sort(key=lambda row: (row[1], row[0]))
    state.write(_artifact(config, "graph_centrality"), artifacts.write_centrality, rows)
    if options.dot_path is not None:
        dot = graph_analysis.to_dot(graphs[options.relation], options.relation)
        state.write(options.dot_path, atomic_write_text, dot)


def stage_eval(config: PipelineConfig, options: StageOptions, state: RunState) -> None:
    from . import eval_harness
    unseen_path = state.input("unseen_manifest", config.unseen_manifest_path, "unseen manifest")
    corpus = state.upstream("corpus")
    prevalent = state.upstream("prevalence")
    pairs = state.upstream("mine")

    cutoff = eval_harness.cutoff_date(corpus)
    unseen = eval_harness.load_unseen_manifest(unseen_path, cutoff=cutoff)
    doc = eval_harness.evaluate(prevalent, pairs, unseen, cutoff=cutoff, parent_match=options.parent_match)
    logger.info(
        "EV-A %d/%d prevalent found; EV-B %d valid / %d matched pairs",
        doc["ev_a"]["prevalent_found_count"],
        len(prevalent),
        doc["ev_b"]["valid_pair_count"],
        doc["ev_b"]["matched_pair_count"],
    )
    state.write(_artifact(config, "evaluation", ".json"), atomic_write_text, canonical_json(doc))
    text = eval_harness.summary_to_text(doc, len(prevalent), len(pairs))
    state.write(_artifact(config, "evaluation", ".txt"), atomic_write_text, text)


_STAGES = {
    "ingest": stage_ingest,
    "corpus": stage_corpus,
    "prevalence": stage_prevalence,
    "mine": stage_mine,
    "graph": stage_graph,
    "eval": stage_eval,
}


def _write_run_manifest(command: str, config: PipelineConfig, options: StageOptions, state: RunState) -> None:
    # No timestamps and no output locations: the manifest itself is part of
    # the byte-determinism contract. Of the options, only JSON scalars (no paths).
    manifest = {
        "tool": "ttpminer",
        "tool_version": __version__,
        "command": command,
        "config": {
            name: getattr(config, name) for name, kind in _value_types().items() if kind is not Path
        },
        "options": {name: getattr(options, name) for name, hint in get_type_hints(StageOptions).items()
                    if set(get_args(hint) or (hint,)) <= TYPE_NOUNS.keys()},
        "inputs": {
            role: {"path": path.as_posix(), "sha256": sha256_file(path)}
            for role, path in sorted(state.inputs.items())
        },
        "artifacts": sorted(p.name for p in state.written),
    }
    atomic_write_text(config.output_dir / "run_manifest.json", canonical_json(manifest))


def run(
    command: str, config: PipelineConfig, options: StageOptions | None = None, config_path: Path | None = None
) -> list[Path]:
    """Run one subcommand (or ``all``); returns the artifact paths written.

    ``config_path`` is the config file ``config`` was read from, if any.
    """
    if command not in COMMANDS:
        raise ParameterError(f"unknown command {command!r}")
    config.validate()
    options = options if options is not None else StageOptions()
    options.validate()
    config.output_dir.mkdir(parents=True, exist_ok=True)
    stages = list(_STAGES) if command == "all" else [command]
    if command == "all" and config.unseen_manifest_path is None:
        stages.remove("eval")
    state = RunState(config, config_path)
    for stage in stages:
        state.produced[stage] = _STAGES[stage](config, options, state)
    _write_run_manifest(command, config, options, state)
    return state.written


# One row per flag: option strings, argparse keywords, commands that accept
# it. Each dest names a PipelineConfig or StageOptions field (apart from
# --config and --verbose). A flag left out sets nothing, so the records
# hold the only defaults.
_OPTIONS = (
    (("--bundle",), dict(dest="bundle_path", type=Path, help="ATT&CK STIX bundle JSON path"),
     ("ingest", "all")),
    (("--manifest",), dict(dest="manifest_path", type=Path, help="report manifest JSON path"),
     ("corpus", "all")),
    (("--unseen",), dict(dest="unseen_manifest_path", type=Path, help="unseen manifest JSON path"),
     ("eval", "all")),
    (("--annotations",), dict(dest="annotation_path", type=Path, help="relation annotation CSV"),
     ("mine", "graph", "all")),
    (("--tau",), dict(type=NUMBERS[int], help="duplicate merge threshold in 30-day months"), ("corpus", "all")),
    (("--elbow-labels",), dict(type=Path, help="bucket,pair_key,is_duplicate CSV; estimates tau"),
     ("corpus", "all")),
    (("--sample-pairs",), dict(type=Path, help="write a pair sample here for duplicate labeling"),
     ("corpus",)),
    (("--n-buckets",), dict(type=NUMBERS[int], help="elbow buckets to sample (default: 5)"), ("corpus",)),
    (("--sample-size",), dict(type=NUMBERS[int], help="pairs per bucket (default: 20)"), ("corpus",)),
    (("--alpha",), dict(dest="alpha_trend", type=NUMBERS[float], help="trend significance level"),
     ("prevalence",)),
    (("--alpha-trend",), dict(type=NUMBERS[float], help="trend significance level"), ("all",)),
    (("--trend-years",), dict(type=NUMBERS[int], help="trailing trend window in years"), ("prevalence", "all")),
    (("--universe",), dict(help="techniques to bin: catalog (every cataloged one, with zeros) or "
                           "corpus (the mentioned ones only; default: catalog)"), ("prevalence", "all")),
    (("--min-support",), dict(type=NUMBERS[float], help="minimum pair support"), ("mine", "all")),
    (("--phi-min",), dict(type=NUMBERS[float], help="minimum phi correlation"), ("mine", "all")),
    (("--alpha",), dict(dest="alpha_rules", type=NUMBERS[float], help="chi-square significance level"),
     ("mine",)),
    (("--alpha-rules",), dict(type=NUMBERS[float], help="chi-square significance level"), ("all",)),
    (("--yates",), dict(action="store_true", help="apply the Yates continuity correction"),
     ("mine", "all")),
    (("--relation",), dict(help="restrict to one relation type"), ("graph",)),
    (("--top-k",), dict(type=NUMBERS[int], help="print the top-k techniques per graph to stdout"), ("graph",)),
    (("--conventional-normalization",), dict(action="store_true",
                                             help="normalize centrality by node count - 1"),
     ("graph", "all")),
    (("--dot",), dict(dest="dot_path", type=Path, help="also write a DOT export here"), ("graph",)),
    (("--parent-match",), dict(action="store_true", help="match sub-techniques to their base id"),
     ("eval", "all")),
    (("--config",), dict(type=Path, help="pipeline config file (key = value lines)"), COMMANDS),
    (("--output-dir",), dict(type=Path, help="artifact directory (default: out)"), COMMANDS),
    (("--format",), dict(dest="output_format", help="tabular artifact format: csv or json (default: csv)"),
     COMMANDS),
    (("--seed",), dict(type=NUMBERS[int], help="seed for all randomized steps"), COMMANDS),
    (("-v", "--verbose"), dict(action="store_true", help="debug logging"), COMMANDS),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpminer",
        description="Mine prevalent techniques and recurring technique pairs from "
        "an ATT&CK catalog plus CTI report metadata.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for name, text in _COMMAND_HELP.items()
    }
    for flags, keywords, accepted_by in _OPTIONS:
        for name in accepted_by:
            commands[name].add_argument(*flags, **keywords)
    return parser


def _settings(values: dict) -> tuple[PipelineConfig, StageOptions]:
    """Config file, then the flags given; the rest keeps the record defaults."""
    config = validate_config(values.pop("config")) if "config" in values else PipelineConfig()
    config = config._replace(**{k: v for k, v in values.items() if k in PipelineConfig._fields})
    options = StageOptions(**{k: v for k, v in values.items() if k not in PipelineConfig._fields})
    return config, options


def main(argv: list[str] | None = None) -> int:
    values = vars(_build_parser().parse_args(argv))
    command = values.pop("command")
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if values.pop("verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    collecting = gc.isenabled()
    gc.disable()  # a run builds no reference cycles: reference counting frees it all
    try:
        config_path = values.get("config")
        config, options = _settings(values)
        run(command, config, options, config_path)
    except TTPMinerError as exc:
        logger.error("%s", exc)
        return 1
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
