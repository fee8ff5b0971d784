"""Tests for BENCH_*.json run reports: schema, emission, CLI printing."""

import json

import pytest

from repro.bench import run_experiment, write_experiment_report
from repro.exceptions import InputFormatError
from repro.obs.report import (
    SCHEMA,
    build_report,
    format_report,
    load_report,
    report_filename,
    validate_report,
    write_report,
)
from repro.workloads import dataset_I1


def small_experiment(**kwargs):
    data = dataset_I1(300, seed=5)
    return run_experiment(
        "unit-run",
        data,
        index_types=("R-Tree", "SR-Tree"),
        qars=(0.1, 1.0, 10.0),
        queries_per_qar=3,
        **kwargs,
    )


class TestSchema:
    def test_build_report_validates(self):
        doc = build_report(
            "x", config={"n": 1}, wall_seconds=0.5, metrics={"a": 1}
        )
        assert doc["schema"] == SCHEMA
        validate_report(doc)  # idempotent

    def test_missing_keys_all_reported(self):
        with pytest.raises(ValueError) as err:
            validate_report({"schema": SCHEMA})
        message = str(err.value)
        for key in ("name", "config", "wall_seconds", "metrics", "histograms"):
            assert key in message

    def test_wrong_schema_rejected(self):
        doc = build_report("x", config={}, wall_seconds=0.0, metrics={})
        doc["schema"] = "something/v9"
        with pytest.raises(ValueError, match="schema"):
            validate_report(doc)

    def test_negative_wall_rejected(self):
        doc = build_report("x", config={}, wall_seconds=0.0, metrics={})
        doc["wall_seconds"] = -1
        with pytest.raises(ValueError, match="wall_seconds"):
            validate_report(doc)

    def test_histogram_shape_checked(self):
        doc = build_report("x", config={}, wall_seconds=0.0, metrics={})
        doc["histograms"] = {"h": {"count": 3, "sum": 1, "le": [1, None], "counts": [1]}}
        with pytest.raises(ValueError, match="bounds"):
            validate_report(doc)
        doc["histograms"] = {"h": {"count": 3, "sum": 1, "le": [1, None], "counts": [1, 1]}}
        with pytest.raises(ValueError, match="sum to"):
            validate_report(doc)

    def test_filename_sanitized(self):
        assert report_filename("Graph 1 (I1)") == "BENCH_Graph_1_I1.json"
        assert report_filename("graph1") == "BENCH_graph1.json"


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        doc = build_report(
            "roundtrip", config={"n": 10}, wall_seconds=1.0, metrics={"k": 2.5}
        )
        path = write_report(doc, tmp_path)
        assert path.name == "BENCH_roundtrip.json"
        assert load_report(path) == doc

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_report(path)


class TestExperimentReport:
    """Acceptance: `python -m repro experiment` (and any run_experiment
    call with a report dir) writes a valid, schema-checked BENCH report."""

    def test_run_experiment_emits_valid_report(self, tmp_path):
        result = small_experiment(report_dir=str(tmp_path))
        path = tmp_path / "BENCH_unit-run.json"
        assert path.exists()
        doc = load_report(path)  # schema-validated
        assert doc["name"] == "unit-run"
        assert doc["config"]["dataset_size"] == 300
        assert doc["config"]["index_types"] == ["R-Tree", "SR-Tree"]
        assert doc["metrics"]["series"]["R-Tree"] == result.series["R-Tree"]
        assert doc["metrics"]["build_stats"]["SR-Tree"]["inserts"] == 300
        hist = doc["histograms"]["nodes_per_search/SR-Tree"]
        assert hist["count"] == 9  # 3 QAR points x 3 queries
        assert doc["wall_seconds"] > 0

    def test_env_variable_directs_reports(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPORT_DIR", str(tmp_path / "envdir"))
        small_experiment()
        assert (tmp_path / "envdir" / "BENCH_unit-run.json").exists()

    def test_empty_report_dir_suppresses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPORT_DIR", str(tmp_path))
        small_experiment(report_dir="")
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_histograms_match_series_weight(self, tmp_path):
        result = small_experiment(report_dir=str(tmp_path))
        for kind in ("R-Tree", "SR-Tree"):
            summary = result.search_histograms[kind]
            # total observations = mean-per-QAR reconstruction
            assert summary["count"] == 3 * 3
            per_qar_sums = [round(v * 3) for v in result.series[kind]]
            assert summary["sum"] == pytest.approx(sum(per_qar_sums))

    def test_write_experiment_report_returns_path(self, tmp_path):
        result = small_experiment(report_dir="")
        path = write_experiment_report(result, tmp_path)
        assert path.exists() and path.name.startswith("BENCH_")

    def test_format_report_renders(self, tmp_path):
        small_experiment(report_dir=str(tmp_path))
        doc = load_report(tmp_path / "BENCH_unit-run.json")
        text = format_report(doc)
        assert "unit-run" in text
        assert "nodes_per_search/R-Tree" in text
        assert "wall time" in text


class TestSchemaV2:
    """Only v2 is read; v1 is rejected like any unknown schema."""

    def test_v1_document_is_rejected_like_any_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({
            "schema": "repro.bench-report/v1", "name": "old", "config": {},
            "wall_seconds": 0.1, "metrics": {}, "histograms": {},
        }))
        with pytest.raises(InputFormatError, match="repro.bench-report/v1"):
            load_report(path)

    def test_latencies_round_trip(self, tmp_path):
        # A section the validator does not check (here one that v2 files
        # written before it was dropped carry) loads unchanged and prints.
        doc = build_report("lat", config={}, wall_seconds=0.1, metrics={})
        doc["latencies"] = {"R-Tree/stab/tenant-a": {"unit": "ns", "count": 3}}
        path = write_report(doc, tmp_path)
        assert load_report(path) == doc
        assert format_report(doc).startswith("lat  (repro.bench-report/v2)")

