from __future__ import annotations

import json

import pytest

from ttpminer.cli import PipelineConfig, main, validate_config
from ttpminer.errors import ConfigError

from .conftest import FIXTURES

E2E = FIXTURES / "e2e"


def run_cli(*argv: str) -> int:
    return main([str(a) for a in argv])


def read_matrix_total(out) -> int:
    import csv

    with open(out / "prevalence_matrix.csv", newline="") as handle:
        return sum(int(row["count"]) for row in csv.DictReader(handle))


class TestConfig:
    def test_empty_config_carries_published_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        config = validate_config(path)
        assert config.min_support == 0.005
        assert config.phi_min == 0.20
        assert config.alpha_rules == 0.05
        assert config.alpha_trend == 0.05
        assert config.tau == 2
        assert config.trend_years == 5
        assert config.output_format == "csv"

    def test_zero_min_support_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("min_support = 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="min_support"):
            validate_config(path)

    def test_unknown_key_rejected_with_suggestion(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("minsupp = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="min_support"):
            validate_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tau = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="tau must be an integer"):
            validate_config(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = tmp_path / "paths.cfg"
        path.write_text("bundle_path = data/bundle.json\n", encoding="utf-8")
        config = validate_config(path)
        assert config.bundle_path == tmp_path / "data" / "bundle.json"

    def test_out_of_range_tau_rejected(self):
        config = PipelineConfig(tau=0)
        with pytest.raises(ConfigError, match="tau"):
            config.validate()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# a comment\n\nseed = 9\n", encoding="utf-8")
        assert validate_config(path).seed == 9


class TestPipeline:
    def test_all_writes_documented_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out)
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "catalog.json",
            "corpus.json",
            "evaluation.json",
            "evaluation.txt",
            "graph_centrality.csv",
            "prevalence_matrix.csv",
            "prevalent_techniques.csv",
            "recurring_pairs.csv",
            "run_manifest.json",
        ]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "all"
        assert manifest["config"]["min_support"] == 0.005
        assert set(manifest["inputs"]) >= {"bundle", "manifest", "unseen_manifest"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64

    def test_all_without_unseen_writes_six_artifacts_plus_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "all",
            "--bundle", E2E / "bundle.json",
            "--manifest", E2E / "manifest.json",
            "--annotations", E2E / "annotations.csv",
            "--output-dir", out,
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "catalog.json",
            "corpus.json",
            "graph_centrality.csv",
            "prevalence_matrix.csv",
            "prevalent_techniques.csv",
            "recurring_pairs.csv",
            "run_manifest.json",
        ]

    def test_mine_without_corpus_artifact_exits_1_naming_file(self, tmp_path, caplog):
        out = tmp_path / "out"
        code = run_cli("mine", "--config", E2E / "config.cfg", "--output-dir", out)
        assert code == 1
        assert "corpus.json" in caplog.text

    def test_stagewise_run_matches_all(self, tmp_path):
        out_all = tmp_path / "all"
        out_stages = tmp_path / "stages"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out_all) == 0
        config = ("--config", E2E / "config.cfg", "--output-dir", out_stages)
        for stage in ("ingest", "corpus", "prevalence", "mine", "graph", "eval"):
            assert run_cli(stage, *config) == 0, stage
        for name in ("catalog.json", "corpus.json", "prevalence_matrix.csv",
                     "prevalent_techniques.csv", "recurring_pairs.csv",
                     "graph_centrality.csv", "evaluation.json", "evaluation.txt"):
            assert (out_all / name).read_bytes() == (out_stages / name).read_bytes(), name

    def test_json_format_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "all", "--config", E2E / "config.cfg", "--output-dir", out, "--format", "json"
        )
        assert code == 0
        pairs = json.loads((out / "recurring_pairs.json").read_text())
        assert isinstance(pairs, list) and pairs
        assert {"tech_a", "tech_b", "phi", "strength"} <= set(pairs[0])

    def test_unknown_technique_in_manifest_exits_1(self, tmp_path, caplog):
        out = tmp_path / "out"
        bad_manifest = tmp_path / "manifest.json"
        bad_manifest.write_text(
            json.dumps(
                [
                    {
                        "citation_key": "r1",
                        "url": "https://x.example/r1",
                        "published": "2020-01-01",
                        "technique_ids": ["T1001", "T9999"],
                        "attribution": [],
                        "include": True,
                        "exclusion_reason": None,
                    }
                ]
            ),
            encoding="utf-8",
        )
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        code = run_cli("corpus", "--manifest", bad_manifest, "--output-dir", out)
        assert code == 1
        assert "T9999" in caplog.text

    def test_elbow_labels_estimate_tau(self, tmp_path, caplog):
        out = tmp_path / "out"
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        with caplog.at_level("INFO"):
            code = run_cli(
                "corpus",
                "--manifest", E2E / "manifest.json",
                "--elbow-labels", E2E / "elbow_labels.csv",
                "--sample-size", "3",
                "--output-dir", out,
            )
        assert code == 0
        assert "estimated tau=2" in caplog.text

    def test_artifact_headers_match_documented_schema(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        headers = {
            "prevalence_matrix.csv": "trend,bin,count,median_pct,mention_share,technique_ids",
            "prevalent_techniques.csv": "id,name,tactic,pct_reports,cell",
            "recurring_pairs.csv": "tech_a,tech_b,direction,support,confidence_ab,"
            "confidence_ba,phi,chi2,p_value,lift,strength,relation_labels",
            "graph_centrality.csv": "node,relation,delta,delta_in,delta_out,eta",
        }
        for name, header in headers.items():
            first_line = (out / name).read_text().splitlines()[0]
            assert first_line == header, name

    def test_universe_corpus_restricts_binning(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        full = read_matrix_total(out)
        code = run_cli(
            "prevalence", "--config", E2E / "config.cfg", "--output-dir", out,
            "--universe", "corpus",
        )
        assert code == 0
        restricted = read_matrix_total(out)
        assert restricted < full  # zero-mention catalog techniques excluded
        prevalent = (out / "prevalent_techniques.csv").read_text()
        assert "Interface Automation" in prevalent  # names still resolved

    def test_sample_pairs_writes_labeling_template(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        template = tmp_path / "to_label.csv"
        code = run_cli(
            "corpus",
            "--manifest", E2E / "manifest.json",
            "--sample-pairs", template,
            "--n-buckets", "2",
            "--sample-size", "1",
            "--output-dir", out,
        )
        assert code == 0
        lines = template.read_text().splitlines()
        assert lines[0] == "bucket,pair_key,is_duplicate"
        assert all(line.endswith(",") for line in lines[1:])  # is_duplicate left blank

    def test_io_error_exits_2(self, tmp_path, caplog):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied", encoding="utf-8")
        code = run_cli(
            "ingest", "--bundle", E2E / "bundle.json", "--output-dir", blocker
        )
        assert code == 2
        assert "I/O error" in caplog.text

    def test_graph_top_k_prints_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        code = run_cli(
            "graph", "--config", E2E / "config.cfg", "--output-dir", out, "--top-k", "3"
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "top 3 all_pairs (eta):" in captured.out

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_graph_top_k_below_one_exits_1(self, tmp_path, caplog, k):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        code = run_cli("graph", "--config", E2E / "config.cfg", "--output-dir", out, "--top-k", k)
        assert code == 1
        assert "k must be >= 1" in caplog.text

    def test_graph_dot_export(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        dot = tmp_path / "follow.dot"
        code = run_cli(
            "graph", "--config", E2E / "config.cfg", "--output-dir", out,
            "--relation", "follow", "--dot", dot,
        )
        assert code == 0
        assert dot.read_text().startswith('digraph "follow"')

    def test_eval_parent_match_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        baseline = json.loads((out / "evaluation.json").read_text())
        code = run_cli(
            "eval", "--config", E2E / "config.cfg", "--output-dir", out, "--parent-match"
        )
        assert code == 0
        relaxed = json.loads((out / "evaluation.json").read_text())
        # u02 mentions T1013.001 only; the prevalent T1013 needs the relaxation
        assert baseline["ev_a"]["prevalent_found_count"] == 5
        assert relaxed["ev_a"]["prevalent_found_count"] == 6


class TestInMemoryHandoff:
    UPSTREAM_READERS = (
        ("ttpminer.corpus_builder", "corpus_from_json"),
        ("ttpminer.stix_ingest", "catalog_from_json"),
        ("ttpminer.cli", "catalog_from_json"),
        ("ttpminer.artifacts", "read_pairs"),
        ("ttpminer.artifacts", "read_prevalent"),
    )

    def count_reads(self, monkeypatch) -> dict:
        import importlib

        calls: dict[str, int] = {}
        for module_name, name in self.UPSTREAM_READERS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_all_decodes_no_upstream_artifact(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from ttpminer.cli import run

        calls = self.count_reads(monkeypatch)
        config = replace(validate_config(E2E / "config.cfg"), output_dir=tmp_path / "out")
        written = run("all", config)
        assert (tmp_path / "out" / "evaluation.json") in written
        assert calls == {}
        # A stage run on its own reads its upstream artifacts back.
        run("eval", config)
        assert calls == {"corpus_from_json": 1, "read_prevalent": 1, "read_pairs": 1}

    def test_all_parses_the_annotations_once(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from ttpminer import graph_analysis
        from ttpminer.cli import run

        calls = []
        original = graph_analysis.load_annotations

        def counted(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(graph_analysis, "load_annotations", counted)
        config = replace(validate_config(E2E / "config.cfg"), output_dir=tmp_path / "out")
        run("all", config)
        assert calls == [E2E / "annotations.csv"]
        # A stage run on its own reads the file and records it as an input.
        run("graph", config)
        assert len(calls) == 2
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["inputs"]["annotations"]["path"] == (E2E / "annotations.csv").as_posix()

    def test_empty_pair_list_is_a_result(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "all",
            "--bundle", E2E / "bundle.json",
            "--manifest", E2E / "manifest.json",
            "--unseen", E2E / "unseen.json",
            "--min-support", "1.0",
            "--output-dir", out,
        )
        assert code == 0
        assert (out / "recurring_pairs.csv").read_text().count("\n") == 1  # header only
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert evaluation["ev_b"]["valid_pair_count"] == 0
        assert evaluation["ev_b"]["matched_pair_count"] == 0


class TestManifestBoundary:
    @pytest.mark.parametrize(
        "command, flag, records, needle",
        [
            ("corpus", "--manifest", [{"include": "false"}], "record 0: field 'include'"),
            ("corpus", "--manifest", [{"technique_ids": "T1005"}], "record 0: field 'technique_ids'"),
            ("corpus", "--manifest", ["r1"], "record 0: must be a JSON object"),
            ("eval", "--unseen", [{"technique_ids": "T1005"}], "record 0: field 'technique_ids'"),
        ],
    )
    def test_bad_record_exits_1_naming_file_record_and_field(
        self, tmp_path, caplog, command, flag, records, needle
    ):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        base = {"citation_key": "r1", "id": "u1", "url": "https://x.example/r1",
                "published": "2030-01-01", "technique_ids": ["T1001", "T1005"],
                "attribution": [], "include": True, "exclusion_reason": None}
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps([r if isinstance(r, str) else {**base, **r} for r in records]),
            encoding="utf-8",
        )
        caplog.clear()
        assert run_cli(command, flag, bad, "--output-dir", out) == 1
        assert f"{bad} {needle}" in caplog.text
        assert "Traceback" not in caplog.text


class TestWindowedDuplicateSearch:
    """corpus searches only the gaps that can merge or be sampled; its sample
    template and corpus equal those of the unbounded search."""

    @staticmethod
    def spread_manifest(path):
        from datetime import date, timedelta

        records = [
            {
                "citation_key": f"https://x.example/r{i:02d}",
                "url": f"https://x.example/r{i:02d}",
                "published": (date(2020, 1, 1) + timedelta(days=i * 37 % 331)).isoformat(),
                "technique_ids": ["T1001", "T1005"],
                "attribution": [f"G{i % 3}"] + (["S1"] if i % 5 == 0 else []),
                "include": True,
                "exclusion_reason": None,
            }
            for i in range(24)
        ]
        path.write_text(json.dumps(records), encoding="utf-8")
        return path

    @staticmethod
    def corpus_outputs(out, manifest, flags):
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        template = out / "template.csv"
        code = run_cli(
            "corpus", "--manifest", manifest, "--sample-pairs", template, "--sample-size", "2",
            *flags, "--output-dir", out,
        )
        assert code == 0
        return template.read_bytes(), (out / "corpus.json").read_bytes()

    @pytest.mark.parametrize("manifest", ["e2e", "spread"])
    @pytest.mark.parametrize(
        "flags, window",
        [
            (("--n-buckets", "2"), 60),
            (("--n-buckets", "5"), 150),
            (("--elbow-labels", E2E / "elbow_labels.csv"), 150),  # tau 2, five buckets
            (("--elbow-labels", E2E / "elbow_labels.csv", "--n-buckets", "1"), 60),
        ],
    )
    def test_outputs_equal_the_unbounded_search(self, tmp_path, monkeypatch, manifest, flags, window):
        from ttpminer import corpus_builder

        if manifest == "e2e":
            manifest = E2E / "manifest.json"
        else:
            manifest = self.spread_manifest(tmp_path / "spread.json")
        windowed = self.corpus_outputs(tmp_path / "windowed", manifest, flags)

        original = corpus_builder.find_candidate_pairs
        bounds = []

        def unbounded(records, max_gap_days=None):
            bounds.append(max_gap_days)
            return original(records)

        monkeypatch.setattr(corpus_builder, "find_candidate_pairs", unbounded)
        assert self.corpus_outputs(tmp_path / "unbounded", manifest, flags) == windowed
        assert bounds == [window]

    def test_bad_bucket_count_still_exits_1(self, tmp_path, caplog):
        out = tmp_path / "out"
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        code = run_cli(
            "corpus", "--manifest", E2E / "manifest.json", "--sample-pairs", tmp_path / "t.csv",
            "--n-buckets", "0", "--output-dir", out,
        )
        assert code == 1
        assert "n and s must be >= 1 (got n=0" in caplog.text


class TestUpstreamArtifactBoundary:
    @pytest.mark.parametrize(
        "command, artifact, content, needle",
        [
            ("corpus", "catalog.json", "{}", "missing field 'spec_version'"),
            ("mine", "corpus.json", '[{"attack_id": "x"}]', "missing field 'member_citations'"),
            ("prevalence", "corpus.json", "[{", "malformed"),
            ("graph", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,not-a-number,0.5,0.5,0.3,9,0.01,1.2,moderate,\n",
             "malformed (could not convert string to float: 'not-a-number')"),
            ("mine", "corpus.json",
             '[{"attack_id": "x", "member_citations": ["a"], "techniques": "T1059", '
             '"representative_date": "2020-01-01", "latest_date": "2020-01-01"}]',
             "malformed (techniques must be an array of strings)"),
            ("corpus", "catalog.json",
             '{"spec_version": "2.1", "tactics": [], "techniques": [{"id": "T1059", "name": "x", '
             '"tactic_ids": "TA0001", "is_subtechnique": false, "parent_id": null, '
             '"revoked_or_deprecated": false}], "citations": [], "attribution": {}, '
             '"technique_citations": {}}',
             "malformed (tactic_ids must be an array of strings)"),
        ],
    )
    def test_corrupt_artifact_exits_1_naming_file(
        self, tmp_path, caplog, command, artifact, content, needle
    ):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        path = out / artifact
        path.write_text(content, encoding="utf-8")
        caplog.clear()
        assert run_cli(command, "--config", E2E / "config.cfg", "--output-dir", out) == 1
        assert f"{path}: {needle}" in caplog.text
        assert "Traceback" not in caplog.text


def test_importing_the_cli_loads_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, ttpminer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


class TestCommandLineSurface:
    COMMON = ["--config", "--format", "--output-dir", "--seed", "--verbose", "-v"]
    FLAGS = {
        "ingest": ["--bundle"],
        "corpus": ["--elbow-labels", "--manifest", "--n-buckets", "--sample-pairs",
                   "--sample-size", "--tau"],
        "prevalence": ["--alpha", "--trend-years", "--universe"],
        "mine": ["--alpha", "--annotations", "--min-support", "--phi-min", "--yates"],
        "graph": ["--annotations", "--conventional-normalization", "--dot", "--relation",
                  "--top-k"],
        "eval": ["--parent-match", "--unseen"],
        "all": ["--alpha-rules", "--alpha-trend", "--annotations", "--bundle",
                "--conventional-normalization", "--elbow-labels", "--manifest",
                "--min-support", "--parent-match", "--phi-min", "--tau", "--trend-years",
                "--universe", "--unseen", "--yates"],
    }

    @staticmethod
    def settings(*argv: str):
        from ttpminer.cli import _build_parser, _settings

        values = vars(_build_parser().parse_args(list(argv)))
        command = values.pop("command")
        values.pop("verbose", None)
        return command, *_settings(values)

    def test_option_strings_per_command(self):
        import argparse

        from ttpminer.cli import _build_parser

        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(self.FLAGS)
        for name, parser in sub.choices.items():
            found = sorted(
                s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")
            )
            assert found == sorted(self.FLAGS[name] + self.COMMON), name

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_left_out_flags_keep_the_dataclass_defaults(self, command):
        from ttpminer.cli import StageOptions

        assert self.settings(command) == (command, PipelineConfig(), StageOptions())

    def test_alpha_names_the_level_of_its_command(self):
        _, config, _ = self.settings("prevalence", "--alpha", "0.01")
        assert (config.alpha_trend, config.alpha_rules) == (0.01, 0.05)
        _, config, _ = self.settings("mine", "--alpha", "0.02")
        assert (config.alpha_trend, config.alpha_rules) == (0.05, 0.02)
        _, config, _ = self.settings("all", "--alpha-trend", "0.03", "--alpha-rules", "0.04")
        assert (config.alpha_trend, config.alpha_rules) == (0.03, 0.04)

    def test_flags_override_the_config_file(self):
        _, config, options = self.settings(
            "all", "--config", str(E2E / "config.cfg"), "--tau", "3", "--yates", "--seed", "11"
        )
        assert (config.tau, config.seed, config.min_support) == (3, 11, 0.005)
        assert config.bundle_path == E2E / "bundle.json"
        assert options.yates is True

    @pytest.mark.parametrize("flag", ["--jobs", "--sample-pairs", "--relation", "--top-k", "--dot"])
    def test_all_rejects_flags_it_never_took(self, flag):
        with pytest.raises(SystemExit):
            self.settings("all", flag, "1")
