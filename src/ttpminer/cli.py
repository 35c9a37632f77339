"""Command-line front end wiring the pipeline stages together.

Subcommands mirror the stages (ingest, corpus, prevalence, mine, graph,
eval) plus ``all``. Each stage writes its artifacts atomically and a run
manifest records the configuration, input digests, and tool version.
Within ``all`` a stage takes its upstream values from the stages before it
in memory; run on its own, it reads them back from the artifact files in
the output directory. Both give the same values, so fixed inputs,
configuration and seed give byte-identical artifacts either way.

Exit codes: 0 success, 1 validation/configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import difflib
import logging
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from . import __version__
from . import artifacts, corpus_builder, eval_harness, graph_analysis, prevalence, rule_miner
from .errors import ArtifactError, ConfigError, ParameterError, TTPMinerError
from .io_utils import atomic_write_text, canonical_json, sha256_file, write_csv
from .stix_ingest import catalog_from_json, catalog_to_json, parse_bundle

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


@dataclass
class PipelineConfig:
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
        if self.trend_years < 1:
            raise ConfigError(f"trend_years must be >= 1, got {self.trend_years}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format must be csv or json, got {self.output_format!r}")


def _value_types() -> dict[str, type]:
    """Each PipelineConfig field's value type: int, float, str or Path."""
    return {
        name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
        for name, hint in get_type_hints(PipelineConfig).items()
    }


_TYPE_NOUNS = {int: "an integer", float: "a number"}


def validate_config(path: Path | str) -> PipelineConfig:
    """Parse a ``key = value`` config file; unknown keys and bad types are errors.

    Relative paths are resolved against the config file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    value_types = _value_types()
    config = PipelineConfig()
    for lineno, raw_line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in value_types:
            hint = difflib.get_close_matches(key, value_types, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}{suggestion}")
        kind = value_types[key]
        if kind is Path:
            setattr(config, key, path.parent / value)  # an absolute value replaces the parent
            continue
        try:
            setattr(config, key, kind(value))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} must be {_TYPE_NOUNS[kind]}, got {value!r}") from None
    config.validate()
    return config


@dataclass
class StageOptions:
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
    inputs: dict[str, Path] = field(default_factory=dict)
    artifacts_written: list[Path] = field(default_factory=list)
    produced: dict[str, object] = field(default_factory=dict)  # keys of _UPSTREAM, annotations


def _require_file(path: Path | None, role: str) -> Path:
    if path is None:
        raise ConfigError(f"no {role} configured; pass the flag or set it in the config file")
    if not path.exists():
        raise ConfigError(f"missing {role} file: {path}")
    return path


def _artifact(config: PipelineConfig, stem: str, suffix: str | None = None) -> Path:
    suffix = suffix if suffix is not None else f".{config.output_format}"
    return config.output_dir / f"{stem}{suffix}"


# What a stage hands to later ones: artifact stem, suffix (None for the
# tabular format) and loader. _hand_off writes and _upstream reads the file
# named here. The loaders look their reader up when called.
_UPSTREAM = {
    "catalog": ("catalog", ".json", lambda p: catalog_from_json(p.read_text("utf-8"))),
    "corpus": ("corpus", ".json", lambda p: corpus_builder.corpus_from_json(p.read_text("utf-8"))),
    "prevalent": ("prevalent_techniques", None, lambda p: artifacts.read_prevalent(p)),
    "pairs": ("recurring_pairs", None, lambda p: artifacts.read_pairs(p)),
}


def _upstream(config: PipelineConfig, options: StageOptions, name: str, required: bool = True):
    """The value an earlier stage of this run produced, else its artifact read back.

    Every artifact round-trips exactly, so both give the same value. A value
    that is not ``required`` and has no artifact is None. An artifact that
    cannot be decoded raises ArtifactError naming the file (and a missing field).
    """
    if name in options.produced:
        return options.produced[name]
    stem, suffix, load = _UPSTREAM[name]
    path = _artifact(config, stem, suffix)
    if not required and not path.exists():
        return None
    path = _require_file(path, f"{stem.replace('_', ' ')} artifact")
    try:
        return load(path)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:  # JSONDecodeError too
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else f"malformed ({exc})"
        raise ArtifactError(f"{path}: {problem}; re-run the stage that writes it") from exc


def _annotations(config: PipelineConfig, options: StageOptions) -> list:
    """The configured relation annotations, parsed once per run; [] without any."""
    if config.annotation_path is None:
        return []
    if "annotations" not in options.produced:
        path = _require_file(config.annotation_path, "relation annotations")
        options.inputs["annotations"] = path
        options.produced["annotations"] = graph_analysis.load_annotations(path)
    return options.produced["annotations"]


def _write(path: Path, writer, options: StageOptions) -> None:
    writer(path)
    options.artifacts_written.append(path)
    logger.info("wrote %s", path)


def _hand_off(config: PipelineConfig, options: StageOptions, name: str, value, writer) -> None:
    """Keep ``value`` for the later stages of this run; write it where ``_upstream`` reads it."""
    stem, suffix, _ = _UPSTREAM[name]
    options.produced[name] = value
    _write(_artifact(config, stem, suffix), writer, options)


def stage_ingest(config: PipelineConfig, options: StageOptions) -> None:
    bundle_path = _require_file(config.bundle_path, "STIX bundle")
    options.inputs["bundle"] = bundle_path
    catalog = parse_bundle(bundle_path.read_bytes())
    logger.info(
        "parsed %d tactics, %d techniques (%d sub-techniques), %d citations",
        len(catalog.tactics),
        len(catalog.techniques),
        sum(t.is_subtechnique for t in catalog.techniques),
        len(catalog.citations),
    )
    _hand_off(config, options, "catalog", catalog, lambda p: atomic_write_text(p, catalog_to_json(catalog)))


def stage_corpus(config: PipelineConfig, options: StageOptions) -> None:
    manifest_path = _require_file(config.manifest_path, "report manifest")
    options.inputs["manifest"] = manifest_path
    catalog = _upstream(config, options, "catalog")
    records = corpus_builder.load_manifest(manifest_path, catalog)
    included = corpus_builder.included_records(records)

    tau = config.tau
    if options.elbow_labels is not None:
        labels_path = _require_file(options.elbow_labels, "elbow labels")
        options.inputs["elbow_labels"] = labels_path
        fractions = corpus_builder.read_elbow_labels(labels_path)
        tau = corpus_builder.estimate_tau(fractions)
        logger.info("estimated tau=%d month(s) from %d labeled buckets", tau, len(fractions))

    # A pair merges only within tau months, and lands in a sampled month
    # bucket <= n only within n months, so no wider gap is searched.
    months = tau if options.sample_pairs is None else max(tau, options.n_buckets)
    pairs = corpus_builder.find_candidate_pairs(
        included, max_gap_days=months * corpus_builder.DAYS_PER_MONTH
    )

    if options.sample_pairs is not None:
        samples = corpus_builder.sample_buckets(
            pairs, n=options.n_buckets, s=options.sample_size, seed=config.seed
        )
        rows = [
            [sample.month_bucket, key, ""]
            for sample in samples
            for key in sample.sampled_pairs
        ]
        write_csv(options.sample_pairs, ("bucket", "pair_key", "is_duplicate"), rows)
        options.artifacts_written.append(options.sample_pairs)
        logger.info(
            "wrote %s: %s sampled pairs per bucket for manual duplicate labeling",
            options.sample_pairs,
            "/".join(str(len(s.sampled_pairs)) for s in samples),
        )

    sets = corpus_builder.merge_duplicates(included, pairs, tau)
    stats = corpus_builder.corpus_stats(sets)
    merged = sum(1 for ts in sets if len(ts.member_citations) > 1)
    logger.info(
        "corpus: %d included citations -> %d technique-sets (%d merged), "
        "%d mentions, %d distinct techniques",
        len(included),
        stats.report_count,
        merged,
        stats.total_mentions,
        stats.distinct_techniques,
    )
    _hand_off(
        config, options, "corpus", sets, lambda p: atomic_write_text(p, corpus_builder.corpus_to_json(sets))
    )


def stage_prevalence(config: PipelineConfig, options: StageOptions) -> None:
    corpus = _upstream(config, options, "corpus")
    # Without the catalog universe, the catalog only supplies names and
    # tactics for the prevalent listing, when there is one.
    catalog = _upstream(config, options, "catalog", required=options.universe == "catalog")
    universe = catalog.technique_ids() if options.universe == "catalog" else None
    frequencies = prevalence.technique_frequency(corpus, universe=universe)
    bins = prevalence.percentile_bins(frequencies)
    series = prevalence.yearly_series(corpus, bins.keys(), trend_years=config.trend_years)
    trends = {
        tid: prevalence.mann_kendall(series[tid], alpha=config.alpha_trend) for tid in series
    }
    matrix = prevalence.build_matrix(bins, trends, corpus)
    prevalent = prevalence.prevalent_techniques(matrix)
    logger.info("prevalent techniques: %d of %d analyzed", len(prevalent), len(bins))
    _write(_artifact(config, "prevalence_matrix"), lambda p: artifacts.write_matrix(p, matrix), options)
    _hand_off(
        config, options, "prevalent", prevalent,
        lambda p: artifacts.write_prevalent(p, prevalent, matrix, catalog),
    )


def stage_mine(config: PipelineConfig, options: StageOptions) -> None:
    corpus = _upstream(config, options, "corpus")
    itemsets = [ts.techniques for ts in corpus]
    candidates = rule_miner.mine_pairs(itemsets, config.min_support)
    pairs = rule_miner.filter_pairs(
        candidates, phi_min=config.phi_min, alpha=config.alpha_rules, yates=options.yates
    )
    if config.annotation_path is not None:
        pairs = rule_miner.attach_relation_labels(
            pairs, graph_analysis.relation_label_map(_annotations(config, options))
        )
    logger.info("mined %d candidate pairs, %d recurring pairs kept", len(candidates), len(pairs))
    _hand_off(config, options, "pairs", pairs, lambda p: artifacts.write_pairs(p, pairs))


def stage_graph(config: PipelineConfig, options: StageOptions) -> None:
    pairs = _upstream(config, options, "pairs")
    annotations = _annotations(config, options)

    if options.relation is not None:
        relations = [options.relation]
    else:
        relations = sorted({a.relation for a in annotations})

    rows: list[list] = []
    all_pairs_graph = graph_analysis.build_graph(pairs, annotations, relation=None)
    etas = graph_analysis.partner_count(all_pairs_graph)
    deltas = graph_analysis.degree_centrality(
        all_pairs_graph, conventional=options.conventional_normalization
    )
    for node in sorted(all_pairs_graph.nodes):
        rows.append([node, "all_pairs", deltas[node], "", "", etas[node]])
    if options.top_k is not None:
        _print_top_k("all_pairs (eta)", etas, options.top_k)

    for relation in relations:
        graph = graph_analysis.build_graph(pairs, annotations, relation=relation)
        if graph.directed:
            scores = graph_analysis.directed_centrality(
                graph, conventional=options.conventional_normalization
            )
            for node in sorted(graph.nodes):
                d_in, d_out = scores[node]
                rows.append([node, relation, "", d_in, d_out, ""])
            if options.top_k is not None:
                _print_top_k(
                    f"{relation} (delta_out)", {n: s[1] for n, s in scores.items()}, options.top_k
                )
        else:
            scores = graph_analysis.degree_centrality(
                graph, conventional=options.conventional_normalization
            )
            for node in sorted(graph.nodes):
                rows.append([node, relation, scores[node], "", "", ""])
            if options.top_k is not None:
                _print_top_k(f"{relation} (delta)", scores, options.top_k)

    rows.sort(key=lambda row: (row[1], row[0]))
    _write(_artifact(config, "graph_centrality"), lambda p: artifacts.write_centrality(p, rows), options)
    if options.dot_path is not None:
        target = graph_analysis.build_graph(pairs, annotations, relation=options.relation)
        _write(options.dot_path, lambda p: atomic_write_text(p, graph_analysis.to_dot(target)), options)


def _print_top_k(label: str, scores: dict, k: int) -> None:
    ranked = graph_analysis.top_k(scores, k)
    print(f"top {min(k, len(ranked))} {label}:")
    for node in ranked:
        print(f"  {node}\t{scores[node]}")


def stage_eval(config: PipelineConfig, options: StageOptions) -> None:
    unseen_path = _require_file(config.unseen_manifest_path, "unseen manifest")
    options.inputs["unseen_manifest"] = unseen_path
    corpus = _upstream(config, options, "corpus")
    prevalent = _upstream(config, options, "prevalent")
    pairs = _upstream(config, options, "pairs")

    cutoff = eval_harness.cutoff_date(corpus)
    unseen = eval_harness.load_unseen_manifest(unseen_path, cutoff=cutoff)
    summary = eval_harness.evaluate(
        prevalent, pairs, unseen, cutoff=cutoff, parent_match=options.parent_match
    )
    logger.info(
        "EV-A %d/%d prevalent found; EV-B %d valid / %d matched pairs",
        summary.ev_a.found_count,
        len(prevalent),
        summary.ev_b.valid_count,
        summary.ev_b.matched_count,
    )
    doc = eval_harness.summary_to_dict(summary)
    _write(
        _artifact(config, "evaluation", ".json"),
        lambda p: atomic_write_text(p, canonical_json(doc)),
        options,
    )
    text = eval_harness.summary_to_text(summary, len(prevalent), len(pairs))
    _write(
        _artifact(config, "evaluation", ".txt"), lambda p: atomic_write_text(p, text), options
    )


_STAGES = {
    "ingest": stage_ingest,
    "corpus": stage_corpus,
    "prevalence": stage_prevalence,
    "mine": stage_mine,
    "graph": stage_graph,
    "eval": stage_eval,
}


def _write_run_manifest(command: str, config: PipelineConfig, options: StageOptions) -> None:
    # No timestamps and no output locations: the manifest itself is part of
    # the byte-determinism contract.
    manifest = {
        "tool": "ttpminer",
        "tool_version": __version__,
        "command": command,
        "config": {
            name: getattr(config, name) for name, kind in _value_types().items() if kind is not Path
        },
        "inputs": {
            role: {"path": path.as_posix(), "sha256": sha256_file(path)}
            for role, path in sorted(options.inputs.items())
        },
        "artifacts": sorted(p.name for p in options.artifacts_written),
    }
    atomic_write_text(config.output_dir / "run_manifest.json", canonical_json(manifest))


def run(command: str, config: PipelineConfig, options: StageOptions | None = None) -> list[Path]:
    """Run one subcommand (or ``all``); returns the artifact paths written."""
    if command not in COMMANDS:
        raise ParameterError(f"unknown command {command!r}")
    config.validate()
    options = options if options is not None else StageOptions()
    config.output_dir.mkdir(parents=True, exist_ok=True)
    stages = list(_STAGES) if command == "all" else [command]
    if command == "all" and config.unseen_manifest_path is None:
        stages.remove("eval")
    for stage in stages:
        _STAGES[stage](config, options)
    _write_run_manifest(command, config, options)
    return options.artifacts_written


# One row per flag: option strings, argparse keywords, commands that accept
# it. Each dest names a PipelineConfig or StageOptions field (apart from
# --config and --verbose). A flag left out sets nothing, so the dataclasses
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
    (("--tau",), dict(type=int, help="duplicate merge threshold in 30-day months"), ("corpus", "all")),
    (("--elbow-labels",), dict(type=Path, help="bucket,pair_key,is_duplicate CSV; estimates tau"),
     ("corpus", "all")),
    (("--sample-pairs",), dict(type=Path, help="write a pair sample here for duplicate labeling"),
     ("corpus",)),
    (("--n-buckets",), dict(type=int, help="elbow buckets to sample (default: 5)"), ("corpus",)),
    (("--sample-size",), dict(type=int, help="pairs per bucket (default: 20)"), ("corpus",)),
    (("--alpha",), dict(dest="alpha_trend", type=float, help="trend significance level"),
     ("prevalence",)),
    (("--alpha-trend",), dict(type=float, help="trend significance level"), ("all",)),
    (("--trend-years",), dict(type=int, help="trailing trend window in years"), ("prevalence", "all")),
    (("--universe",), dict(choices=("catalog", "corpus"), help="bin all cataloged techniques (with "
                           "zeros) or mentioned ones only (default: catalog)"), ("prevalence", "all")),
    (("--min-support",), dict(type=float, help="minimum pair support"), ("mine", "all")),
    (("--phi-min",), dict(type=float, help="minimum phi correlation"), ("mine", "all")),
    (("--alpha",), dict(dest="alpha_rules", type=float, help="chi-square significance level"),
     ("mine",)),
    (("--alpha-rules",), dict(type=float, help="chi-square significance level"), ("all",)),
    (("--yates",), dict(action="store_true", help="apply the Yates continuity correction"),
     ("mine", "all")),
    (("--relation",), dict(choices=sorted(graph_analysis.RELATION_TYPES),
                           help="restrict to one relation type"), ("graph",)),
    (("--top-k",), dict(type=int, help="print the top-k techniques per graph to stdout"), ("graph",)),
    (("--conventional-normalization",), dict(action="store_true",
                                             help="normalize centrality by node count - 1"),
     ("graph", "all")),
    (("--dot",), dict(dest="dot_path", type=Path, help="also write a DOT export here"), ("graph",)),
    (("--parent-match",), dict(action="store_true", help="match sub-techniques to their base id"),
     ("eval", "all")),
    (("--config",), dict(type=Path, help="pipeline config file (key = value lines)"), COMMANDS),
    (("--output-dir",), dict(type=Path, help="artifact directory (default: out)"), COMMANDS),
    (("--format",), dict(dest="output_format", choices=("csv", "json"),
                         help="tabular artifact format (default: csv)"), COMMANDS),
    (("--seed",), dict(type=int, help="seed for all randomized steps"), COMMANDS),
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
    """Config file, then the flags given; the rest keeps the dataclass defaults."""
    config = validate_config(values.pop("config")) if "config" in values else PipelineConfig()
    config_fields = {f.name for f in fields(PipelineConfig)}
    config = replace(config, **{k: v for k, v in values.items() if k in config_fields})
    options = StageOptions(**{k: v for k, v in values.items() if k not in config_fields})
    return config, options


def main(argv: list[str] | None = None) -> int:
    values = vars(_build_parser().parse_args(argv))
    command = values.pop("command")
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if values.pop("verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config, options = _settings(values)
        run(command, config, options)
    except TTPMinerError as exc:
        logger.error("%s", exc)
        return 1
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
