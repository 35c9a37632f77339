"""Batch toolkit for mining adversarial-technique usage from CTI report corpora.

Stages: parse an ATT&CK STIX bundle into a catalog, build a deduplicated
corpus of technique-sets from report metadata, compute the frequency-trend
prevalence matrix, mine statistically significant recurring technique pairs,
analyze relation-typed technique graphs, and evaluate findings on unseen
reports.
"""

__version__ = "0.1.0"

from .corpus_builder import (  # noqa: F401
    DuplicateCandidatePair,
    ReportRecord,
    TechniqueSet,
    corpus_stats,
    estimate_tau,
    find_candidate_pairs,
    load_manifest,
    merge_duplicates,
    sample_buckets,
)
from .eval_harness import EvaluationSummary, cutoff_date, ev_a, ev_b, evaluate  # noqa: F401
from .graph_analysis import (  # noqa: F401
    RELATION_TYPES,
    TechniqueGraph,
    build_graph,
    degree_centrality,
    directed_centrality,
    partner_count,
    top_k,
)
from .prevalence import (  # noqa: F401
    PrevalenceMatrix,
    TrendResult,
    build_matrix,
    mann_kendall,
    percentile_bins,
    prevalent_techniques,
    technique_frequency,
)
from .rule_miner import (  # noqa: F401
    ContingencyTable,
    RecurringPair,
    chi_square,
    filter_pairs,
    mine_pairs,
    phi,
)
from .stix_ingest import AttackCatalog, TechniqueRecord, parse_bundle  # noqa: F401
