"""Run one ttpminer command with timing wrappers around its layer functions.

    python3 -X importtime bench/trace_child.py SPANS.json COMMAND [ARGS...]

Imports ``ttpminer.cli`` between two marker lines on stderr, so that the
``-X importtime`` lines of that import can be told from the interpreter's
own start-up. Then it replaces the functions listed in ``WRAPPED`` wherever
a ttpminer module holds them, runs ``ttpminer.cli.main`` and writes the
spans (name, start, end, parent index) and counts kept in memory to
SPANS.json. Hot per-item helpers such as ``normalize_citation_url`` or
``phi`` are left unwrapped: a wrapper on every call would distort the times
it is meant to show.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

IMPORT_START = b"bench-trace: import start\n"
IMPORT_END = b"bench-trace: import end\n"
EXTRA = "bench.extra"  # the tracer's own bookkeeping, left out of self times

WRAPPED = {
    "cli": ("stage_ingest", "stage_corpus", "stage_prevalence", "stage_mine", "stage_graph", "stage_eval"),
    "stix_ingest": ("parse_bundle", "catalog_to_json", "catalog_from_json"),
    "corpus_builder": ("load_manifest", "find_candidate_pairs", "merge_duplicates", "corpus_to_json",
                       "corpus_from_json"),
    "prevalence": ("yearly_series", "mann_kendall", "build_matrix"),
    "rule_miner": ("mine_pairs", "filter_pairs"),
    "graph_analysis": ("build_graph", "degree_centrality", "directed_centrality", "partner_count"),
    "eval_harness": ("load_unseen_manifest", "evaluate"),
    "artifacts": ("write_matrix", "write_prevalent", "write_pairs", "write_centrality", "read_pairs",
                  "read_prevalent"),
    "io_utils": ("atomic_write_text", "sha256_file"),
}


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.trends: dict[str, list] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                start = time.perf_counter()
                count(self, result, *args, **kwargs)
                self.spans.append([EXTRA, start, time.perf_counter(), parent])
            return result

        return traced

    def install(self, package) -> None:
        originals = {}
        for module_name, names in WRAPPED.items():
            module = getattr(package, module_name)
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self.wrap(f"{module_name}.{name}", fn)
        # Replace every reference a ttpminer module holds: names imported
        # with ``from .x import f`` and dispatch tables such as cli._STAGES.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(package.__name__):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            value[key] = originals[id(item)]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "trends": self.trends}, handle)


def _merge_edges(tracer, result, records, pairs, tau):
    included = {r.citation_key for r in records if r.include}
    max_gap = tau * 30
    tracer.add("merge_edges", sum(
        1 for p in pairs if p.date_gap_days <= max_gap and p.a in included and p.b in included
    ))
    tracer.add("technique_sets", len(result))


def _trend(tracer, result, series, alpha=0.05):
    tracer.trends[result.technique_id] = [result.s_statistic, result.p_value]


COUNTERS = {
    "stix_ingest.parse_bundle": lambda t, r, *a, **k: t.add("citations", len(r.citations)),
    "corpus_builder.find_candidate_pairs": lambda t, r, *a, **k: t.add("candidate_pairs", len(r)),
    "corpus_builder.merge_duplicates": _merge_edges,
    "prevalence.mann_kendall": _trend,
    "rule_miner.mine_pairs": lambda t, r, *a, **k: t.add("candidates", len(r)),
    "rule_miner.filter_pairs": lambda t, r, *a, **k: t.add("recurring_pairs", len(r)),
    "io_utils.atomic_write_text": lambda t, r, path, text: t.add("bytes_written", len(text.encode("utf-8"))),
}


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    os.write(2, IMPORT_START)
    import ttpminer.cli
    os.write(2, IMPORT_END)

    tracer = Tracer()
    tracer.install(sys.modules["ttpminer"])
    try:
        return ttpminer.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
