"""Batch toolkit for mining adversarial-technique usage from CTI report corpora.

Stages: parse an ATT&CK STIX bundle into a catalog, build a deduplicated
corpus of technique-sets from report metadata, compute the frequency-trend
prevalence matrix, mine statistically significant recurring technique pairs,
analyze relation-typed technique graphs, and evaluate findings on unseen
reports.
"""

__version__ = "0.1.0"
