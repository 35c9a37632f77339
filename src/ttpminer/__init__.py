"""Batch toolkit for mining adversarial-technique usage from CTI report corpora.

Stages: parse an ATT&CK STIX bundle into a catalog, build a deduplicated
corpus of technique-sets from report metadata, compute the frequency-trend
prevalence matrix, mine statistically significant recurring technique pairs,
analyze relation-typed technique graphs, and evaluate findings on unseen
reports.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    """``ttpminer.<submodule>`` imports that submodule on first access (PEP 562). A private
    name never does: importing ``__main__`` would run the command line."""
    import importlib.util

    if not name.isidentifier() or name.startswith("_") or importlib.util.find_spec(f"{__name__}.{name}") is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
