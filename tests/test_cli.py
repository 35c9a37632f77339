from __future__ import annotations

import csv
import gc
import json
import re
from pathlib import Path

import pytest

from ttpminer.cli import PipelineConfig, main, validate_config
from ttpminer.errors import ConfigError

from .conftest import FIXTURES, edit_pair_rows

E2E = FIXTURES / "e2e"
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested past the JSON decoder's depth limit


def run_cli(*argv: str) -> int:
    return main([str(a) for a in argv])


def read_matrix_total(out) -> int:
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

    @pytest.mark.parametrize(
        "lines, error",
        [
            ("min_support = 0\n", "min_support must be in (0, 1], got 0.0"),
            ("min_support = 0.1\nmin_support = 0\n", "min_support must be in (0, 1], got 0.0"),
            ("min_support = 0\nmin_support = 0.1\n", None),
            ("phi_min = 1.5\n", "phi_min must be in [0, 1], got 1.5"),
            ("trend_years = 0\n", "trend_years must be >= 2, got 0"),
            ("trend_years = 1\n", "trend_years must be >= 2, got 1"),
        ],
    )
    def test_range_error_names_the_config_file(self, tmp_path, caplog, lines, error):
        """The last value of a key is the one checked, and an error names the file."""
        path = tmp_path / "range.cfg"
        path.write_text(lines, encoding="utf-8")
        if error is None:
            assert validate_config(path).min_support == 0.1
            return
        with pytest.raises(ConfigError) as raised:
            validate_config(path)
        assert str(raised.value) == f"{path}: {error}"
        assert run_cli("ingest", "--config", path, "--output-dir", tmp_path / "out") == 1
        assert f"{path}: {error}" in caplog.text

    def test_unknown_key_rejected_with_suggestion(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("minsupp = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="min_support"):
            validate_config(path)

    @pytest.mark.parametrize("value", ["soon", "2  # a trailing comment is part of the value"])
    def test_type_mismatch_rejected(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"tau = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            validate_config(path)
        assert str(raised.value) == f"{path}:1: tau must be an integer, got {value!r}"

    @pytest.mark.parametrize("key, value, noun", [
        ("tau", "1_2", "an integer"),  # int() would read 12
        ("tau", "\u0663", "an integer"),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        ("min_support", "5_0e-4", "a number"),
        ("phi_min", "\uff10.\uff13", "a number"),  # fullwidth digits, which float() reads as 0.3
    ])
    def test_a_number_is_read_only_from_an_ascii_literal_without_underscores(self, tmp_path, caplog, key, value,
                                                                              noun):
        path = tmp_path / "number.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert run_cli("ingest", "--config", path, "--output-dir", tmp_path / "out") == 1
        assert f"{path}:1: {key} must be {noun}, got {value!r}" in caplog.text

    def test_a_signed_or_exponent_number_reads(self, tmp_path):
        path = tmp_path / "number.cfg"
        path.write_text("tau = +2\nmin_support = 5e-3\nseed = -0\n", encoding="utf-8")
        config = validate_config(path)
        assert (config.tau, config.min_support, config.seed) == (2, 0.005, 0)

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

    def test_readme_example_parses(self, tmp_path):
        """The README's ``ini`` block, next to empty stand-ins for the files it names."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        path = tmp_path / "pipeline.cfg"
        path.write_text(block, encoding="utf-8")
        names = ("enterprise-attack.json", "reports.json", "unseen.json", "annotations.csv")
        for name in names:
            (tmp_path / name).write_text("", encoding="utf-8")
        assert validate_config(path) == PipelineConfig(*(tmp_path / name for name in names))


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

    def test_run_manifest_records_the_stage_options(self, tmp_path):
        flags = ("--yates", "--universe", "corpus", "--conventional-normalization", "--parent-match")
        for name, extra in (("default", ()), ("flags", flags)):
            assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", tmp_path / name, *extra) == 0
        default, flagged = (json.loads((tmp_path / name / "run_manifest.json").read_text())
                            for name in ("default", "flags"))
        assert default["options"] == {
            "n_buckets": 5, "sample_size": 20, "universe": "catalog", "yates": False, "relation": None,
            "top_k": None, "conventional_normalization": False, "parent_match": False,
        }
        assert flagged["options"] == {**default["options"], "universe": "corpus", "yates": True,
                                      "conventional_normalization": True, "parent_match": True}
        assert flagged != default

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

    def test_graph_without_pairs_artifact_exits_1_naming_file(self, tmp_path, caplog):
        out = tmp_path / "out"
        code = run_cli("graph", "--config", E2E / "config.cfg", "--output-dir", out)
        assert code == 1
        assert f"missing recurring pairs artifact file: {out / 'recurring_pairs.csv'}" in caplog.text

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

    def test_short_sample_buckets_are_listed_in_one_warning(self, tmp_path, caplog):
        out = tmp_path / "out"
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        caplog.clear()
        code = run_cli(
            "corpus", "--manifest", E2E / "manifest.json", "--sample-pairs", tmp_path / "t.csv",
            "--sample-size", "50", "--output-dir", out,
        )
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "month buckets holding fewer than --sample-size 50 pairs, emitted whole: "
            "1 (2 pairs), 2 (2 pairs), 3 (0 pairs), 4 (0 pairs), 5 (0 pairs)"
        ]

    def test_sample_bucket_holding_sample_size_pairs_is_not_listed(self, tmp_path, caplog):
        """Buckets 1 and 2 hold exactly --sample-size 2 pairs, so only the empty ones are short."""
        out = tmp_path / "out"
        assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out) == 0
        caplog.clear()
        code = run_cli(
            "corpus", "--manifest", E2E / "manifest.json", "--sample-pairs", tmp_path / "t.csv",
            "--sample-size", "2", "--output-dir", out,
        )
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "month buckets holding fewer than --sample-size 2 pairs, emitted whole: "
            "3 (0 pairs), 4 (0 pairs), 5 (0 pairs)"
        ]

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
        assert capsys.readouterr().out == (
            "top 3 all_pairs (eta):\n  T1014\t3\n  T1017\t3\n  T1001.001\t2\n"
            "top 3 follow (delta_out):\n  T1001.001\t0.25\n  T1014\t0.25\n  T1005\t0.0\n"
            "top 2 happens_together (delta):\n  T1002\t0.5\n  T1008\t0.5\n"
            "top 2 implementation_overlap (delta):\n  T1004\t0.5\n  T1005\t0.5\n"
            "top 2 require (delta_out):\n  T1001.001\t0.5\n  T1004\t0.0\n"
            "top 2 same_asset (delta):\n  T1002\t0.5\n  T1008\t0.5\n"
            "top 2 same_platform (delta):\n  T1003\t0.5\n  T1006\t0.5\n"
        )

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_graph_top_k_below_one_exits_1(self, tmp_path, caplog, k):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        code = run_cli("graph", "--config", E2E / "config.cfg", "--output-dir", out, "--top-k", k)
        assert code == 1
        assert f"--top-k must be >= 1, got {k}" in caplog.text

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
        from ttpminer.cli import run

        calls = self.count_reads(monkeypatch)
        config = validate_config(E2E / "config.cfg")._replace(output_dir=tmp_path / "out")
        written = run("all", config)
        assert (tmp_path / "out" / "evaluation.json") in written
        assert calls == {}
        # A stage run on its own reads its upstream artifacts back.
        run("eval", config)
        assert calls == {"corpus_from_json": 1, "read_prevalent": 1, "read_pairs": 1}

    @pytest.mark.parametrize("corpus_intact", [True, False])
    def test_a_reused_options_object_carries_no_run_state(self, tmp_path, corpus_intact):
        """A second ``run`` with the same StageOptions reads what its stage reads, from disk."""
        from ttpminer.cli import StageOptions, run
        from ttpminer.errors import ArtifactError

        options = StageOptions()
        config = validate_config(E2E / "config.cfg")._replace(output_dir=tmp_path)
        run("all", config, options)
        if not corpus_intact:
            (tmp_path / "corpus.json").write_text("[]", encoding="utf-8")
            with pytest.raises(ArtifactError, match="corpus.json"):
                run("mine", config, options)
            return
        assert run("mine", config, options) == [tmp_path / "recurring_pairs.csv"]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["artifacts"] == ["recurring_pairs.csv"]
        assert list(manifest["inputs"]) == ["annotations"]

    def test_all_parses_the_annotations_once(self, tmp_path, monkeypatch):
        from ttpminer import graph_analysis
        from ttpminer.cli import run

        calls = []
        original = graph_analysis.load_annotations

        def counted(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(graph_analysis, "load_annotations", counted)
        config = validate_config(E2E / "config.cfg")._replace(output_dir=tmp_path / "out")
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
    BASES = {
        "--manifest": {"citation_key": "r1", "url": "https://x.example/r1", "published": "2030-01-01",
                       "technique_ids": ["T1001", "T1005"], "attribution": [], "include": True,
                       "exclusion_reason": None},
        "--unseen": {"id": "u1", "published": "2030-01-01", "technique_ids": ["T1001", "T1005"]},
    }

    @pytest.mark.parametrize(
        "command, flag, records, needle",
        [
            ("corpus", "--manifest", [{"include": "false"}], "record 0: include must be a boolean, got 'false'"),
            ("corpus", "--manifest", [{"technique_ids": "T1005"}],
             "record 0: technique_ids must be an array of strings"),
            ("corpus", "--manifest", ["r1"], "record 0: must be a JSON object"),
            ("eval", "--unseen", [{"technique_ids": "T1005"}], "record 0: technique_ids must be an array of strings"),
        ],
    )
    def test_bad_record_exits_1_naming_file_record_and_field(
        self, tmp_path, caplog, command, flag, records, needle
    ):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        base = self.BASES[flag]
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps([r if isinstance(r, str) else {**base, **r} for r in records]),
            encoding="utf-8",
        )
        caplog.clear()
        assert run_cli(command, flag, bad, "--output-dir", out) == 1
        assert f"{bad} {needle}" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "flag, fixture, old, new",
        [("--manifest", "manifest.json", "attribution", "atribution"), ("--unseen", "unseen.json", "id", "source")],
    )
    def test_unknown_field_exits_1_naming_file_record_and_field(self, tmp_path, caplog, flag, fixture, old, new):
        """A misspelt field no longer reads as absent: ``all`` stops before writing a corpus."""
        records = json.loads((E2E / fixture).read_text(encoding="utf-8"))
        records[0] = {**records[0], new: records[0][old]}
        if flag == "--manifest":
            del records[0][old]
        bad = tmp_path / fixture
        bad.write_text(json.dumps(records), encoding="utf-8")
        out = tmp_path / "out"
        caplog.clear()
        assert run_cli("all", "--config", E2E / "config.cfg", flag, bad, "--output-dir", out) == 1
        assert f"{bad} record 0: unknown field '{new}'" in caplog.text
        assert "Traceback" not in caplog.text


class TestWindowedDuplicateSearch:
    """corpus searches only the gaps that can be sampled, the first n-buckets
    months; its sample template and corpus equal those of the unbounded search."""

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
            (("--elbow-labels", E2E / "elbow_labels.csv", "--n-buckets", "1"), 30),  # tau 2 merges wider
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
        assert "--n-buckets must be >= 1, got 0" in caplog.text


@pytest.mark.parametrize("tau, members", [(2, [["a"], ["b"]]), (3, [["a", "b"]])])
def test_an_excluded_report_does_not_bridge(tmp_path, tau, members):
    """An excluded, dated report of the same group between two included ones 89 days apart
    joins nothing: they merge only when tau months reach across the gap."""
    records = [
        {"citation_key": "a", "published": "2020-01-01", "technique_ids": ["T1001", "T1005"],
         "attribution": ["G1"], "include": True},
        {"citation_key": "x", "published": "2020-02-15", "technique_ids": ["T1001", "T1005"],
         "attribution": ["G1"], "include": False, "exclusion_reason": "inaccessible"},
        {"citation_key": "b", "published": "2020-03-30", "technique_ids": ["T1001", "T1005"],
         "attribution": ["G1"], "include": True},
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(records), encoding="utf-8")
    assert run_cli("ingest", "--bundle", E2E / "bundle.json", "--output-dir", tmp_path) == 0
    assert run_cli("corpus", "--manifest", manifest, "--tau", tau, "--output-dir", tmp_path) == 0
    corpus = json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))
    assert sorted(ts["member_citations"] for ts in corpus) == members


def test_an_unknown_command_is_a_config_error(tmp_path):
    from ttpminer.cli import run

    with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
        run("bogus", PipelineConfig(output_dir=tmp_path / "out"))
    assert not (tmp_path / "out").exists()


class TestEmptyInputs:
    """An input that leaves a stage nothing to work on exits 1 naming its file."""

    def test_manifest_without_included_records_names_the_manifest(self, tmp_path, caplog):
        records = [{"citation_key": "r1", "include": False, "exclusion_reason": "no-date"}]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records), encoding="utf-8")
        assert run_cli("all", "--config", E2E / "config.cfg", "--manifest", manifest, "--output-dir", tmp_path) == 1
        assert f"{manifest}: no included record, so the corpus would be empty" in caplog.text
        assert not (tmp_path / "corpus.json").exists()

    @pytest.mark.parametrize("command", ["prevalence", "mine", "eval"])
    def test_empty_corpus_artifact_names_the_file_and_the_stage(self, tmp_path, caplog, command):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path)
        assert run_cli("all", *common) == 0
        (tmp_path / "corpus.json").write_text("[]\n", encoding="utf-8")
        caplog.clear()
        assert run_cli(command, *common) == 1
        assert f"{tmp_path / 'corpus.json'}: malformed (no technique-sets); re-run `ttpminer corpus`" in caplog.text

    def test_empty_unseen_manifest_names_the_file(self, tmp_path, caplog):
        unseen = tmp_path / "unseen.json"
        unseen.write_text("[]", encoding="utf-8")
        assert run_cli("all", "--config", E2E / "config.cfg", "--unseen", unseen, "--output-dir", tmp_path) == 1
        assert f"{unseen}: no unseen reports to evaluate against" in caplog.text


class TestFlagValues:
    """A flag value out of range exits 1 naming the flag, before any stage runs."""

    @pytest.mark.parametrize("command, flag", [("corpus", "--n-buckets"), ("corpus", "--sample-size"),
                                               ("graph", "--top-k")])
    def test_value_below_one_names_the_flag(self, tmp_path, caplog, command, flag):
        """Without --sample-pairs too: --n-buckets and --sample-size shape no sample then, but are still checked."""
        assert run_cli(command, "--config", E2E / "config.cfg", flag, "0", "--output-dir", tmp_path) == 1
        assert f"{flag} must be >= 1, got 0" in caplog.text
        assert "artifact" not in caplog.text  # no stage read its upstream artifact
        assert list(tmp_path.iterdir()) == []


class TestBoundary:
    """Each setting is checked where it enters: ``run`` rejects a value out of range
    before any stage runs, and the stage kernels trust what it lets through."""

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("min_support", 0.0, "min_support must be in (0, 1], got 0.0"),
            ("min_support", 1.5, "min_support must be in (0, 1], got 1.5"),
            ("phi_min", -0.1, "phi_min must be in [0, 1], got -0.1"),
            ("phi_min", 1.5, "phi_min must be in [0, 1], got 1.5"),
            ("alpha_rules", 0.0, "alpha_rules must be in (0, 1), got 0.0"),
            ("alpha_rules", 1.0, "alpha_rules must be in (0, 1), got 1.0"),
            ("alpha_trend", 0.0, "alpha_trend must be in (0, 1), got 0.0"),
            ("alpha_trend", 1.0, "alpha_trend must be in (0, 1), got 1.0"),
            ("tau", 0, "tau must be >= 1, got 0"),
            ("trend_years", 1, "trend_years must be >= 2, got 1"),
            ("output_format", "xml", "output_format must be csv or json, got 'xml'"),
            ("n_buckets", 0, "--n-buckets must be >= 1, got 0"),
            ("sample_size", 0, "--sample-size must be >= 1, got 0"),
            ("top_k", 0, "--top-k must be >= 1, got 0"),
            ("universe", "bogus", "--universe must be one of ('catalog', 'corpus'), got 'bogus'"),
            ("relation", "causes", "--relation must be one of ('same_asset', 'follow', 'implementation_overlap', "
                                   "'happens_together', 'require', 'alternative', 'same_platform'), got 'causes'"),
        ],
    )
    def test_value_out_of_range_names_its_key_and_writes_nothing(self, tmp_path, field, value, needle):
        from ttpminer.cli import StageOptions, run

        config = validate_config(E2E / "config.cfg")._replace(output_dir=tmp_path)
        options = StageOptions()
        if field in PipelineConfig._fields:
            config = config._replace(**{field: value})
        else:
            options = options._replace(**{field: value})
        with pytest.raises(ConfigError) as raised:
            run("all", config, options)
        assert str(raised.value) == needle
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--tau", "1"), ("--trend-years", "2")])
    def test_least_value_in_range_runs(self, tmp_path, flag, value):
        assert run_cli("all", "--config", E2E / "config.cfg", flag, value, "--output-dir", tmp_path) == 0

    def test_one_year_corpus_names_the_years_trend_years_and_its_source(self, tmp_path, caplog):
        """Every included date in 2020: ``all`` names the manifest, ``prevalence`` alone corpus.json."""
        records = json.loads((E2E / "manifest.json").read_text(encoding="utf-8"))
        for record in records:
            if record.get("published"):
                record["published"] = "2020" + record["published"][4:]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records), encoding="utf-8")
        out = tmp_path / "out"
        common = ("--config", E2E / "config.cfg", "--output-dir", out)
        problem = "every technique-set falls in 2020, so the trend window (trend_years = 5) holds one year"
        assert run_cli("all", *common, "--manifest", manifest) == 1
        assert f"{manifest}: {problem}" in caplog.text
        assert not (out / "prevalence_matrix.csv").exists()
        caplog.clear()
        assert run_cli("prevalence", *common) == 1
        assert f"{out / 'corpus.json'}: {problem}" in caplog.text

    def test_two_year_corpus_passes_the_prevalence_stage(self, tmp_path):
        """Every included date in 2016 or 2020: the trend window holds two years, which is enough."""
        records = json.loads((E2E / "manifest.json").read_text(encoding="utf-8"))
        for record in records:
            if record.get("published"):
                record["published"] = ("2016" if record["published"] < "2021" else "2020") + record["published"][4:]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records), encoding="utf-8")
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path / "out")
        assert run_cli("all", *common, "--manifest", manifest) == 0
        assert run_cli("prevalence", *common) == 0


    def test_short_trend_window_is_reported_once(self, tmp_path, caplog):
        """A three-year window is too short for any trend call: one warning, all no_trend."""
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out, "--trend-years", "3") == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "the trend window (trend_years = 3) holds 3 years (2020, 2021, 2022), fewer than the 4 a "
            "trend call needs, so every technique classifies no_trend"
        ]
        with open(out / "prevalence_matrix.csv", newline="") as handle:
            assert {row["trend"] for row in csv.DictReader(handle) if int(row["count"])} == {"no_trend"}

    def test_four_year_trend_window_is_not_reported(self, tmp_path, caplog):
        """A four-year window holds as many points as a trend call needs: no warning."""
        with caplog.at_level("WARNING"):
            code = run_cli("all", "--config", E2E / "config.cfg", "--output-dir", tmp_path / "out",
                           "--trend-years", "4")
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []


class TestAnnotationRows:
    """An annotation error names the annotation file, and its row where the row alone is at fault."""

    def annotations(self, tmp_path, row: str):
        path = tmp_path / "annotations.csv"
        path.write_text((E2E / "annotations.csv").read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("row, column", [(",T1005,follow,ab", "tech_a"), ("T1005,,follow,ab", "tech_b")])
    def test_blank_technique_names_file_and_row(self, tmp_path, caplog, row, column):
        path = self.annotations(tmp_path, row)
        code = run_cli("all", "--config", E2E / "config.cfg", "--annotations", path, "--output-dir", tmp_path / "out")
        assert code == 1
        assert f"{path} row 7: {column} must name a technique" in caplog.text

    @pytest.mark.parametrize("row, needle", [
        ("T1001,T1099,same_asset,none", "annotation references unknown pair (T1001, T1099)"),
        ("T1001.001,T1005,require,none", "directed relation 'require' requires an orientation for (T1001.001, T1005)"),
    ])
    def test_graph_error_names_the_file(self, tmp_path, caplog, row, needle):
        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        path = self.annotations(tmp_path, row)
        caplog.clear()
        assert run_cli("graph", "--config", E2E / "config.cfg", "--annotations", path, "--output-dir", out) == 1
        assert f"{path} row 7: {needle}" in caplog.text

    def test_unknown_pair_is_rejected_before_any_graph_is_built(self, tmp_path, caplog, monkeypatch):
        from ttpminer import graph_analysis

        out = tmp_path / "out"
        assert run_cli("all", "--config", E2E / "config.cfg", "--output-dir", out) == 0
        path = self.annotations(tmp_path, "T1001,T1099,same_asset,none")
        built = []
        monkeypatch.setattr(graph_analysis, "build_graph", lambda *args, **kwargs: built.append(args))
        caplog.clear()
        assert run_cli("graph", "--config", E2E / "config.cfg", "--annotations", path, "--output-dir", out) == 1
        assert built == []
        message = (f"{path} row 7: annotation references unknown pair (T1001, T1099), not among the 15 recurring "
                   f"pairs in {out / 'recurring_pairs.csv'} (this run's min_support = 0.005, phi_min = 0.2, "
                   f"alpha_rules = 0.05, from {E2E / 'config.cfg'} and the command line)")
        assert caplog.records[-1].getMessage() == message

    def test_annotation_on_a_dropped_pair_names_the_mining_thresholds_and_their_config(self, tmp_path, caplog):
        """phi_min = 1 keeps one of the e2e candidates, so an annotated pair is missing."""
        import shutil

        inputs, out = tmp_path / "e2e", tmp_path / "out"
        shutil.copytree(E2E, inputs)
        config = inputs / "config.cfg"
        config.write_text(config.read_text(encoding="utf-8").replace("phi_min = 0.2", "phi_min = 1"), encoding="utf-8")
        assert run_cli("all", "--config", config, "--output-dir", out) == 1
        assert caplog.records[-1].getMessage() == (
            f"{inputs / 'annotations.csv'} row 2: annotation references unknown pair (T1001.001, T1005), "
            f"not among the 1 recurring pairs in {out / 'recurring_pairs.csv'} "
            f"(this run's min_support = 0.005, phi_min = 1.0, alpha_rules = 0.05, from {config} and the command line)"
        )

    def test_a_library_run_names_no_config_file(self, tmp_path):
        from ttpminer.cli import run
        from ttpminer.errors import AnnotationError

        config = validate_config(E2E / "config.cfg")._replace(phi_min=1.0, output_dir=tmp_path)
        with pytest.raises(AnnotationError, match=re.escape("alpha_rules = 0.05)")):
            run("all", config)


class TestRowsAndRoles:
    """A bad row names its file and row; an input path that is no file names its role."""

    @pytest.mark.parametrize("row, problem", [
        ("x,a||b,1", "bad bucket 'x'"),
        ("\u0662,a||b,1", "bad bucket '\u0662'"),  # ARABIC-INDIC DIGIT TWO, which int() reads as 2
        ("1,a||b,maybe", "bad is_duplicate 'maybe'"),
    ])
    def test_elbow_label_error_names_file_and_row(self, tmp_path, caplog, row, problem):
        path = tmp_path / "elbow_labels.csv"
        rows = (E2E / "elbow_labels.csv").read_text(encoding="utf-8")
        path.write_text(rows + row + "\n", encoding="utf-8")
        argv = ("all", "--config", E2E / "config.cfg", "--elbow-labels", path, "--output-dir", tmp_path / "out")
        assert run_cli(*argv) == 1
        assert caplog.records[-1].getMessage() == f"{path} row {rows.count(chr(10)) - 1}: {problem}"

    def test_a_bucket_past_sys_maxsize_exits_1_naming_the_labels_file(self, tmp_path, caplog):
        path = tmp_path / "elbow_labels.csv"
        path.write_text("bucket,pair_key,is_duplicate\n1,a||b,1\n100000000000000000000,c||d,0\n", encoding="utf-8")
        argv = ("--config", E2E / "config.cfg", "--output-dir", tmp_path / "out")
        assert run_cli("ingest", *argv) == 0
        assert run_cli("corpus", *argv, "--elbow-labels", path) == 1
        assert caplog.records[-1].getMessage() == \
            f"{path}: buckets must be contiguous from 1 (got [1, 100000000000000000000])"
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("command", ["graph", "eval"])
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("edit", ["reverse", "repeat"])
    def test_reversed_or_repeated_pair_row_names_the_pairs_file_and_row(
        self, tmp_path, caplog, command, output_format, edit
    ):
        argv = ("--config", E2E / "config.cfg", "--output-dir", tmp_path, "--format", output_format)
        assert run_cli("all", *argv) == 0
        path = tmp_path / f"recurring_pairs.{output_format}"
        a, b = edit_pair_rows(path, edit)
        caplog.clear()
        assert run_cli(command, *argv) == 1
        problem = f"row 0: tech_a {b!r} must sort before tech_b {a!r}" if edit == "reverse" else \
            f"row 2: repeats the pair ({a}, {b})"
        assert caplog.records[-1].getMessage() == f"{path} {problem}; re-run `ttpminer mine`"

    @pytest.mark.parametrize("flag, role", [
        ("--config", "config"),
        ("--bundle", "STIX bundle"),
        ("--manifest", "report manifest"),
        ("--unseen", "unseen manifest"),
        ("--annotations", "relation annotations"),
        ("--elbow-labels", "elbow labels"),
    ])
    def test_a_directory_given_as_an_input_file_names_the_role_and_path(self, tmp_path, caplog, flag, role):
        argv = ("all", "--config", E2E / "config.cfg", "--output-dir", tmp_path / "out", flag, tmp_path)
        assert run_cli(*argv) == 1
        assert caplog.records[-1].getMessage() == f"{role} path is not a file: {tmp_path}"

    def test_a_directory_in_place_of_an_upstream_artifact_names_it(self, tmp_path, caplog):
        (tmp_path / "corpus.json").mkdir()
        assert run_cli("mine", "--config", E2E / "config.cfg", "--output-dir", tmp_path) == 1
        assert caplog.records[-1].getMessage() == f"corpus artifact path is not a file: {tmp_path / 'corpus.json'}"


WRITER = {"catalog": "ingest", "corpus": "corpus", "prevalent_techniques": "prevalence", "recurring_pairs": "mine"}


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
             "malformed (support must be a number, got 'not-a-number')"),
            ("graph", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,0.4,0.5\n",
             "malformed (confidence_ba must be a number, got '')"),
            ("graph", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,0.4,0.5,0.5,0.3,9,0.01,1.2,moderate,,extra\n",
             "row 0: 1 cell(s) more than the header"),
            ("graph", "recurring_pairs.csv", "tech_a,tech_b\nT1001,T1005\n", "expected columns"),
            ("graph", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,nan,0.5,0.5,0.3,9,0.01,1.2,moderate,\n",
             "malformed (support must be a number, got 'nan')"),
            ("eval", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,0.4,0.5,0.5,inf,9,0.01,1.2,moderate,\n",
             "malformed (phi must be a number, got 'inf')"),
            ("eval", "prevalent_techniques.csv", "id,name,tactic,pct_reports,cell\nT1001,x,TA0001,-Infinity,x\n",
             "malformed (pct_reports must be a number, got '-Infinity')"),
            ("graph", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,\u0660.\u0660\u0665,0.5,0.5,0.3,9,0.01,1.2,moderate,\n",
             "malformed (support must be a number, got '\u0660.\u0660\u0665')"),
            ("graph", "recurring_pairs.csv",
             "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
             "strength,relation_labels\nT1001,T1005,ab,0.05,1_0.5,0.5,0.3,9,0.01,1.2,moderate,\n",
             "malformed (confidence_ab must be a number, got '1_0.5')"),
            ("eval", "prevalent_techniques.csv", "id,name,tactic,pct_reports,cell\nT1001,x,TA0001,\uff11\uff12,x\n",
             "malformed (pct_reports must be a number, got '\uff11\uff12')"),
            pytest.param(
                "eval", "recurring_pairs.csv",
                "tech_a,tech_b,direction,support,confidence_ab,confidence_ba,phi,chi2,p_value,lift,"
                f"strength,relation_labels\nT1001,T1005,ab,0.4,0.5,0.5,0.3,9,0.01,1.2,{'x' * 131_073},\n",
                "row 0: field larger than field limit (131072)", id="recurring_pairs.csv-oversized-cell",
            ),
            *(
                pytest.param(command, artifact, DEEP_JSON, "malformed", id=f"{artifact}-deep")
                for command, artifact in [("corpus", "catalog.json"), ("mine", "corpus.json"),
                                          ("eval", "prevalent_techniques.json"),
                                          ("eval", "recurring_pairs.json")]
            ),
            *(
                pytest.param("eval", table, top, "malformed (must be an array of objects)", id=f"{table}-{top}")
                for table in ("recurring_pairs.json", "prevalent_techniques.json") for top in ("7", "null")
            ),
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
            ("mine", "corpus.json",
             '[{"attack_id": 7, "member_citations": ["a"], "techniques": ["T1059"], '
             '"representative_date": "2020-01-01", "latest_date": "2020-01-01"}]',
             "malformed (attack_id must be a string, got 7)"),
            ("prevalence", "corpus.json",
             '[{"attack_id": "x", "member_citations": ["a"], "techniques": [], '
             '"representative_date": "2020-01-01", "latest_date": "2020-01-01"}]',
             "malformed (technique-set 'x' has fewer than two techniques)"),
            ("prevalence", "catalog.json",
             '{"spec_version": "2.1", "tactics": [], "techniques": [{"id": "T1059", "name": 5, '
             '"tactic_ids": ["TA0001"], "is_subtechnique": false, "parent_id": null, '
             '"revoked_or_deprecated": false}], "citations": [], "attribution": {}, '
             '"technique_citations": {}}',
             "malformed (name must be a string, got 5)"),
            ("prevalence", "catalog.json",
             '{"spec_version": "2.1", "tactics": [], "techniques": [{"id": "T1059", "name": "x", '
             '"tactic_ids": ["TA0001"], "is_subtechnique": "false", "parent_id": null, '
             '"revoked_or_deprecated": false}], "citations": [], "attribution": {}, '
             '"technique_citations": {}}',
             "malformed (is_subtechnique must be a boolean, got 'false')"),
        ],
    )
    def test_corrupt_artifact_exits_1_naming_file(
        self, tmp_path, caplog, command, artifact, content, needle
    ):
        out = tmp_path / "out"
        tabular_json = artifact in ("recurring_pairs.json", "prevalent_techniques.json")
        common = ("--config", E2E / "config.cfg", "--output-dir", out,
                  "--format", "json" if tabular_json else "csv")
        assert run_cli("all", *common) == 0
        path = out / artifact
        path.write_text(content, encoding="utf-8")
        caplog.clear()
        assert run_cli(command, *common) == 1
        assert re.search(rf"{re.escape(str(path))}[: ].*{re.escape(needle)}", caplog.text)
        assert caplog.text.count(str(path)) == 1
        assert f"; re-run `ttpminer {WRITER[path.stem]}`" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("command", ["prevalence", "mine"])
    def test_corpus_with_a_two_technique_set_is_read(self, tmp_path, command):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path)
        assert run_cli("all", *common) == 0
        path = tmp_path / "corpus.json"
        corpus = json.loads(path.read_text(encoding="utf-8"))
        corpus.append({"attack_id": "zz", "member_citations": ["zz"], "techniques": ["T1001", "T1005"],
                       "representative_date": "2022-06-01", "latest_date": "2022-06-01"})
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert run_cli(command, *common) == 0

    @pytest.mark.parametrize(
        "command, artifact, field, value, needle",
        [
            ("graph", "recurring_pairs.json", "phi", True, "malformed (phi must be a number, got True)"),
            ("graph", "recurring_pairs.json", "support", "0.4",
             "malformed (support must be a number, got '0.4')"),
            ("graph", "recurring_pairs.json", "tech_a", 1001,
             "malformed (tech_a must be a string, got 1001)"),
            ("mine", "corpus.json", "extra_field", 5, "malformed (unknown field 'extra_field')"),
            ("eval", "prevalent_techniques.json", "id", 5, "malformed (id must be a string, got 5)"),
            ("eval", "prevalent_techniques.json", "pct_reports", "12.5",
             "malformed (pct_reports must be a number, got '12.5')"),
            ("eval", "prevalent_techniques.json", "bogus", 1, "malformed (unknown field 'bogus')"),
            # json.dumps writes these floats as the bare NaN, Infinity and -Infinity that json.loads reads
            ("graph", "recurring_pairs.json", "support", float("nan"),
             "malformed (support must be a number, got NaN)"),
            ("eval", "recurring_pairs.json", "phi", float("inf"), "malformed (phi must be a number, got Infinity)"),
            ("eval", "prevalent_techniques.json", "pct_reports", float("-inf"),
             "malformed (pct_reports must be a number, got -Infinity)"),
            ("graph", "recurring_pairs.json", "tech_a", float("nan"),
             "malformed (tech_a must be a string, got NaN)"),
        ],
    )
    def test_mistyped_json_field_exits_1_naming_file(
        self, tmp_path, caplog, command, artifact, field, value, needle
    ):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path, "--format", "json")
        assert run_cli("all", *common) == 0
        path = tmp_path / artifact
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[0][field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        caplog.clear()
        extra = ("--parent-match",) if command == "eval" else ()
        assert run_cli(command, *common, *extra) == 1
        assert f"{path}: {needle}" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "command, artifact, field",
        [("graph", "recurring_pairs.json", "relation_labels"), ("corpus", "catalog.json", "tactics")],
    )
    def test_absent_artifact_field_is_missing(self, tmp_path, caplog, command, artifact, field):
        """Only input records have optional fields; every artifact field is required."""
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path, "--format", "json")
        assert run_cli("all", *common) == 0
        path = tmp_path / artifact
        doc = json.loads(path.read_text(encoding="utf-8"))
        del (doc[0] if isinstance(doc, list) else doc)[field]
        path.write_text(json.dumps(doc), encoding="utf-8")
        caplog.clear()
        assert run_cli(command, *common) == 1
        assert f"{path}: missing field '{field}'" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "rewrite, needle",
        [
            (lambda row: {"id": row["id"], "bogus": 1}, "missing field 'name'"),
            (lambda row: {k: v for k, v in row.items() if k != "cell"}, "missing field 'cell'"),
        ],
        ids=["id-and-unknown-field", "no-cell"],
    )
    def test_every_prevalent_row_is_read_whole(self, tmp_path, caplog, rewrite, needle):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path, "--format", "json")
        assert run_cli("all", *common) == 0
        path = tmp_path / "prevalent_techniques.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        assert rows
        path.write_text(json.dumps([rewrite(row) for row in rows]), encoding="utf-8")
        caplog.clear()
        assert run_cli("eval", *common) == 1
        assert f"{path}: {needle}" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("command", ["prevalence", "mine", "eval"])
    @pytest.mark.parametrize("corruption", ["repeated-attack-id", "citation-in-two-sets", "attack-id-not-least",
                                            "representative-after-latest"])
    def test_corpus_the_corpus_stage_never_writes_names_the_id_or_citation(
        self, tmp_path, caplog, command, corruption
    ):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path)
        assert run_cli("all", *common) == 0
        path = tmp_path / "corpus.json"
        sets = json.loads(path.read_text(encoding="utf-8"))
        if corruption == "repeated-attack-id":
            sets[1]["attack_id"] = sets[0]["attack_id"]
            problem = f"attack_id {sets[0]['attack_id']!r} names two technique-sets"
        elif corruption == "citation-in-two-sets":
            citation = sets[4]["member_citations"][0]
            sets[3]["member_citations"].append(citation)
            problem = (f"citation {citation!r} is listed under technique-sets "
                       f"{sets[3]['attack_id']!r} and {sets[4]['attack_id']!r}")
        elif corruption == "attack-id-not-least":
            sets[2]["attack_id"] = "zzz-not-a-member"
            problem = "attack_id 'zzz-not-a-member' is not the least of its member citations"
        else:
            sets[0]["representative_date"], sets[0]["latest_date"] = "2024-12-31", "2001-01-01"
            problem = (f"technique-set {sets[0]['attack_id']!r} has representative_date 2024-12-31 "
                       "after its latest_date 2001-01-01")
        path.write_text(json.dumps(sets), encoding="utf-8")
        caplog.clear()
        assert run_cli(command, *common) == 1
        assert caplog.records[-1].getMessage() == f"{path}: malformed ({problem}); re-run `ttpminer corpus`"


class TestStaleUpstream:
    """An upstream artifact that no longer matches the one it was made from names both files."""

    @pytest.mark.parametrize("universe", ["catalog", "corpus"])
    def test_a_catalog_missing_a_corpus_technique_exits_1(self, tmp_path, caplog, universe):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path)
        assert run_cli("all", *common) == 0
        path = tmp_path / "catalog.json"
        catalog = json.loads(path.read_text(encoding="utf-8"))
        catalog["techniques"] = [t for t in catalog["techniques"] if t["id"] != "T1009"]
        path.write_text(json.dumps(catalog), encoding="utf-8")
        caplog.clear()
        assert run_cli("prevalence", *common, "--universe", universe) == 1
        assert caplog.records[-1].getMessage() == (
            f"{tmp_path / 'corpus.json'}: technique T1009 is not in {path}; re-run `ttpminer corpus`"
        )

    def test_a_catalog_missing_a_manifest_technique_is_named_by_the_corpus_stage(self, tmp_path, caplog):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path)
        assert run_cli("all", *common) == 0
        path = tmp_path / "catalog.json"
        catalog = json.loads(path.read_text(encoding="utf-8"))
        catalog["techniques"] = [t for t in catalog["techniques"] if t["id"] != "T1009"]
        path.write_text(json.dumps(catalog), encoding="utf-8")
        caplog.clear()
        assert run_cli("corpus", *common) == 1
        assert caplog.records[-1].getMessage().endswith(f": unknown technique id(s) ['T1009'], not in {path}")

    def test_the_corpus_universe_needs_the_catalog_too(self, tmp_path, caplog):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path)
        assert run_cli("all", *common) == 0
        (tmp_path / "catalog.json").unlink()
        caplog.clear()
        assert run_cli("prevalence", *common, "--universe", "corpus") == 1
        assert caplog.records[-1].getMessage() == f"missing catalog artifact file: {tmp_path / 'catalog.json'}"

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_a_repeated_prevalent_id_exits_1_naming_the_row(self, tmp_path, caplog, output_format):
        common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path, "--format", output_format)
        assert run_cli("all", *common) == 0
        path = tmp_path / f"prevalent_techniques.{output_format}"
        if output_format == "json":
            rows = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps([*rows, rows[2]]), encoding="utf-8")
            repeated, index = rows[2]["id"], len(rows)
        else:
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join([*lines, lines[3]]), encoding="utf-8")
            repeated, index = lines[3].split(",")[0], len(lines) - 1
        caplog.clear()
        assert run_cli("eval", *common) == 1
        assert caplog.records[-1].getMessage() == (
            f"{path} row {index}: repeats the id {repeated}; re-run `ttpminer prevalence`"
        )


def test_a_technique_in_every_set_is_named_in_one_line(tmp_path, caplog):
    """Its pairs have no phi: mine names the technique once, not each dropped pair."""
    records = json.loads((E2E / "manifest.json").read_text(encoding="utf-8"))
    for record in records:
        if record["include"]:
            record["technique_ids"].append("T1012")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(records), encoding="utf-8")
    common = ("--config", E2E / "config.cfg", "--output-dir", tmp_path / "out")
    expected = ["present in every technique-set, so their pairs have no phi and are dropped: T1012"]
    for argv in (("all", *common, "--manifest", manifest), ("mine", *common)):
        caplog.clear()
        with caplog.at_level("INFO"):
            assert run_cli(*argv) == 0
        assert [r.getMessage() for r in caplog.records if "T1012" in r.getMessage()] == expected, argv[0]
        assert "dropping pair" not in caplog.text
    with open(tmp_path / "out" / "recurring_pairs.csv", newline="") as handle:
        assert all("T1012" not in (row["tech_a"], row["tech_b"]) for row in csv.DictReader(handle))


class TestCollectorState:
    """``main`` runs with the cyclic collector off and gives it back as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case, code", [("ok", 0), ("bad_config", 1), ("io_error", 2)])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, enabled, case, code):
        import ttpminer.cli

        seen = []
        inner = ttpminer.cli.run
        monkeypatch.setattr(ttpminer.cli, "run", lambda *args: seen.append(gc.isenabled()) or inner(*args))
        out = tmp_path / "out"
        if case == "bad_config":
            (tmp_path / "bad.cfg").write_text("minsupp = 0.1\n", encoding="utf-8")
            argv = ("ingest", "--config", tmp_path / "bad.cfg", "--output-dir", out)
        else:
            if case == "io_error":
                out.write_text("occupied", encoding="utf-8")
            argv = ("ingest", "--bundle", E2E / "bundle.json", "--output-dir", out)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_cli(*argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == ([] if case == "bad_config" else [False])


def with_extra_cell(name: str) -> bytes:
    """The e2e input CSV ``name`` with one cell added to its first data row."""
    header, first, rest = (E2E / name).read_bytes().split(b"\n", 2)
    return b"\n".join([header, first + b",oops", rest])


def with_oversized_cell(name: str) -> bytes:
    """The e2e input CSV ``name`` with its first data row's first cell over the csv field limit."""
    header, first, rest = (E2E / name).read_bytes().split(b"\n", 2)
    return b"\n".join([header, b"x" * 131_073 + first[first.index(b","):], rest])


def with_published(name: str, value: str) -> bytes:
    """The e2e manifest ``name`` with ``value`` as the first record's publication date."""
    records = json.loads((E2E / name).read_bytes())
    records[0]["published"] = value
    return json.dumps(records).encode()


def with_spec_version(value) -> bytes:
    """The e2e bundle with ``value`` as its ``spec_version``."""
    bundle = json.loads((E2E / "bundle.json").read_bytes())
    bundle["spec_version"] = value
    return json.dumps(bundle).encode()


@pytest.mark.parametrize(
    "name, content",
    [
        ("bundle.json", b"\xff{}"),
        ("bundle.json", b"{]"),
        ("manifest.json", b"\xff[]"),
        ("unseen.json", b"\xff[]"),
        ("config.cfg", b"\xfftau = 2\n"),
        ("annotations.csv", b"\xfftech_a,tech_b,relation,direction\n"),
        ("elbow_labels.csv", b"\xffbucket,pair_key,is_duplicate\n"),
        ("annotations.csv", b"tech_a,tech_b,relation,direction\nT1001,T1005\n"),
        ("elbow_labels.csv", b"bucket,pair_key,is_duplicate\n1,a\n"),
        *(pytest.param(name, with_extra_cell(name), id=f"{name}-extra-cell")
          for name in ("annotations.csv", "elbow_labels.csv")),
        *(pytest.param(name, with_oversized_cell(name), id=f"{name}-oversized-cell")
          for name in ("annotations.csv", "elbow_labels.csv")),
        pytest.param("elbow_labels.csv", b"bucket,pair_key,is_duplicate\n1,a,0\n1,b,0\n2,c,1\n2,d,1\n",
                     id="elbow-labels-no-drop"),
        pytest.param("elbow_labels.csv", b"bucket,pair_key,is_duplicate\n1,a,1\n1,b,0\n",
                     id="elbow-labels-one-bucket"),
        pytest.param("manifest.json", with_published("manifest.json", "20200304"), id="manifest-basic-date"),
        pytest.param("unseen.json", with_published("unseen.json", "2023-W10-3"), id="unseen-week-date"),
        *(pytest.param(name, DEEP_JSON.encode(), id=f"{name}-deep")
          for name in ("bundle.json", "manifest.json", "unseen.json")),
        *(pytest.param("bundle.json", with_spec_version(value), id=f"bundle-spec-version-{value}")
          for value in (2.1, True)),
    ],
)
def test_malformed_input_file_exits_1_naming_file(tmp_path, caplog, name, content):
    import shutil

    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    path = inputs / name
    if name == "config.cfg":
        content += path.read_bytes()
    path.write_bytes(content)
    argv = ["all", "--config", path.parent / "config.cfg", "--output-dir", tmp_path / "out"]
    assert run_cli(*argv, "--elbow-labels", inputs / "elbow_labels.csv") == 1
    assert caplog.text.count(str(path)) == 1
    assert "Traceback" not in caplog.text


def run_probe(probe: str, *argv) -> str:
    """The stdout of ``python -c probe argv...`` with this checkout's ``src`` on the path."""
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_importing_the_cli_loads_no_scipy():
    probe = "import sys, ttpminer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_probe(probe).strip() == "[]"


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, ttpminer; print(sorted(m for m in sys.modules if m.startswith('ttpminer.')))"
    assert run_probe(probe).strip() == "[]"


STDLIB = ("difflib", "statistics", "dataclasses", "inspect")  # modules no command loads


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    probe = (
        f"import json, sys\nSTDLIB = {STDLIB!r}\n"
        "from ttpminer.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "names = [m for m in sys.modules if m.startswith('ttpminer.') or m in STDLIB]\n"
        "print(json.dumps(names))\n"
        "sys.exit(code)\n"
    )
    loaded = {}
    for command in ("all", "ingest", "corpus", "prevalence", "mine", "graph", "eval"):
        stdout = run_probe(probe, command, "--config", E2E / "config.cfg", "--output-dir", tmp_path / "out")
        loaded[command] = {name.removeprefix("ttpminer.") for name in json.loads(stdout)}
    # mine reads the configured annotations with graph_analysis, to label its pairs
    base = {"cli", "errors", "io_utils"}
    assert loaded["ingest"] == base | {"stix_ingest"}
    assert loaded["corpus"] == base | {"stix_ingest", "corpus_builder"}
    assert loaded["prevalence"] == base | {"stix_ingest", "corpus_builder", "prevalence", "artifacts"}
    assert loaded["mine"] == base | {"corpus_builder", "rule_miner", "artifacts", "graph_analysis"}
    assert loaded["graph"] == base | {"rule_miner", "artifacts", "graph_analysis"}
    assert loaded["eval"] == base | {"corpus_builder", "rule_miner", "artifacts", "eval_harness"}
    assert {"stix_ingest", "corpus_builder", "prevalence", "rule_miner", "graph_analysis", "eval_harness",
            "artifacts"} <= loaded["all"]
    for command, names in loaded.items():
        assert not names & set(STDLIB), command
    # Records are NamedTuples, so neither a command nor the bare import loads dataclasses.
    bare = run_probe(f"import sys, ttpminer.cli\nprint([m for m in {STDLIB!r} if m in sys.modules])")
    assert bare.strip() == "[]"


def test_submodules_load_on_first_access():
    probe = (
        "import sys, ttpminer\n"
        "assert 'ttpminer.rule_miner' not in sys.modules\n"
        "print(ttpminer.rule_miner.__name__, hasattr(ttpminer, 'no_such_module'), hasattr(ttpminer, '__main__'))\n"
    )
    assert run_probe(probe).split() == ["ttpminer.rule_miner", "False", "False"]


@pytest.mark.parametrize("otype, where, field", [("attack-pattern", " external_references[0]", "source_name"),
                                                 ("x-mitre-tactic", " external_references[0]", "external_id"),
                                                 ("relationship", "", "target_ref")])
def test_unhashable_bundle_value_exits_1_naming_object_and_field(tmp_path, caplog, otype, where, field):
    bundle = json.loads((E2E / "bundle.json").read_bytes())
    obj = next(obj for obj in bundle["objects"] if obj["type"] == otype)
    holder = obj["external_references"][0] if where else obj
    holder[field] = value = [holder[field]]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    assert run_cli("ingest", "--bundle", path, "--output-dir", tmp_path / "out") == 1
    assert f"{path}: {obj['id']}{where}: {field} must be a string, got {value!r}" in caplog.text
    assert "Traceback" not in caplog.text


def _e2e_bundle_with(tmp_path, field, value):
    """The e2e bundle, written to ``tmp_path``, with ``field`` of its first technique set to ``value``."""
    bundle = json.loads((E2E / "bundle.json").read_bytes())
    technique = next(obj for obj in bundle["objects"] if obj["type"] == "attack-pattern")
    technique[field] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    return path, technique["id"]


def test_unparsable_citation_url_exits_1_naming_the_bundle(tmp_path, caplog):
    url = "http://[broken/report"
    bundle = json.loads((E2E / "bundle.json").read_bytes())
    group = next(obj for obj in bundle["objects"] if obj["type"] == "intrusion-set")
    group["external_references"].append({"source_name": "V", "url": url})
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    where = f"{group['id']} external_references[{len(group['external_references']) - 1}]"
    assert run_cli("ingest", "--bundle", path, "--output-dir", tmp_path / "out") == 1
    assert f"{path}: {where}: url {url!r} is not a URL (Invalid IPv6 URL)" in caplog.text
    assert "Traceback" not in caplog.text


def test_a_run_keeps_the_byte_offset_of_a_malformed_bundle(tmp_path):
    from ttpminer.cli import run
    from ttpminer.errors import BundleParseError

    path = tmp_path / "bundle.json"
    path.write_text('{"objects": [{"name": "Ünïcödé ☃☃"}, ]}', encoding="utf-8")
    with pytest.raises(BundleParseError) as raised:
        run("ingest", PipelineConfig(bundle_path=path, output_dir=tmp_path / "out"))
    assert raised.value.offset == 45
    assert str(raised.value).startswith(f"{path}: malformed JSON at byte offset 45: ")


def test_mistyped_bundle_shape_exits_1_naming_object_and_field(tmp_path, caplog):
    path, stix_id = _e2e_bundle_with(tmp_path, "kill_chain_phases", "x")
    assert run_cli("ingest", "--bundle", path, "--output-dir", tmp_path / "out") == 1
    assert f"{path}: {stix_id}: kill_chain_phases must be an array of objects" in caplog.text
    assert "Traceback" not in caplog.text


def test_all_and_stagewise_runs_agree_on_a_mistyped_name(tmp_path, caplog):
    path, stix_id = _e2e_bundle_with(tmp_path, "name", 5)
    config = ("--config", E2E / "config.cfg")
    assert run_cli("all", *config, "--bundle", path, "--output-dir", tmp_path / "all") == 1
    assert run_cli("ingest", *config, "--bundle", path, "--output-dir", tmp_path / "stages") == 1
    assert run_cli("corpus", *config, "--output-dir", tmp_path / "stages") == 1
    assert caplog.text.count(f"{path}: {stix_id}: name must be a string, got 5") == 2
    assert "Traceback" not in caplog.text


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

    def test_a_signed_or_exponent_flag_reads(self):
        _, config, _ = self.settings("all", "--tau", "+2", "--min-support", "5e-3")
        assert (config.tau, config.min_support) == (2, 0.005)

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

    # Every flag that takes a number: its command and the type argparse names.
    NUMERIC = {("corpus", "--tau"): "int", ("corpus", "--n-buckets"): "int", ("corpus", "--sample-size"): "int",
               ("prevalence", "--alpha"): "float", ("prevalence", "--trend-years"): "int",
               ("mine", "--alpha"): "float", ("mine", "--min-support"): "float", ("mine", "--phi-min"): "float",
               ("all", "--alpha-trend"): "float", ("all", "--alpha-rules"): "float", ("graph", "--top-k"): "int",
               ("ingest", "--seed"): "int"}

    @pytest.mark.parametrize("argv", [("corpus", "--tau", "x"), ("corpus", "--no-such-flag"), (),
                                      ("corpus", "--tau", "1_2"), ("ingest", "--seed", "\u0663"),
                                      ("mine", "--phi-min", "\uff10.\uff13"), ("mine", "--min-support", "5_0e-4"),
                                      *((command, flag, value) for command, flag in NUMERIC
                                        for value in ("1_0", "\u0663"))])  # int() reads 10 and 3
    def test_a_command_line_argparse_rejects_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            run_cli(*argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ttpminer")
        if tuple(argv[:2]) in self.NUMERIC:
            assert f"argument {argv[1]}: invalid {self.NUMERIC[argv[:2]]} value: {argv[2]!r}" in err

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_shows_each_record_default(self, command, capsys):
        """Each flag whose field default is neither None nor a bool; 0 == False, yet --seed shows its 0."""
        with pytest.raises(SystemExit) as raised:
            run_cli(command, "--help")
        assert raised.value.code == 0
        entries = [" ".join(entry.split()) for entry in re.split(r"\n  (?=-)", capsys.readouterr().out)]
        shown = {entry.split()[0]: default[0] for entry in entries
                 if (default := re.findall(r"\(default: ([^)]*)\)$", entry))}
        defaults = {"--tau": 2, "--n-buckets": 5, "--sample-size": 20, "--alpha-trend": 0.05,
                    "--trend-years": 5, "--universe": "catalog", "--min-support": 0.005, "--phi-min": 0.2,
                    "--alpha-rules": 0.05, "--output-dir": "out", "--format": "csv", "--seed": 0,
                    "--alpha": 0.05}
        expected = {flag: str(defaults[flag]) for flag in self.FLAGS[command] + self.COMMON if flag in defaults}
        assert shown == expected
        assert "--seed SEED seed for all randomized steps (default: 0)" in entries

    @pytest.mark.parametrize(
        "command, flag, value, needle",
        [
            ("ingest", "--format", "xml", "output_format must be csv or json, got 'xml'"),
            ("prevalence", "--universe", "bogus", "--universe must be one of ('catalog', 'corpus'), got 'bogus'"),
            ("graph", "--relation", "causes", "--relation must be one of ('same_asset', "),
        ],
    )
    def test_a_value_outside_the_allowed_ones_exits_1(self, tmp_path, caplog, command, flag, value, needle):
        assert run_cli(command, flag, value, "--output-dir", tmp_path) == 1
        assert needle in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_help_names_the_allowed_values(self):
        import argparse

        from ttpminer.cli import _build_parser

        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        helps = {s: a.help for a in sub.choices["all"]._actions for s in a.option_strings}
        assert "csv or json" in helps["--format"]
        assert "catalog" in helps["--universe"] and "corpus" in helps["--universe"]
