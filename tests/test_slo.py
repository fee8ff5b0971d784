"""Tests for SLO specs, evaluation, and the tail-latency bench."""

import json

import pytest

from repro.bench.harness import format_bench, run_bench
from repro.exceptions import InputFormatError
from repro.obs.latency import LatencyRecorder
from repro.obs.report import SCHEMA, build_report, load_report, validate_report
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    SloRule,
    evaluate_slo,
    format_slo_results,
    load_slo_spec,
    parse_slo_spec,
    slo_passed,
)


def report_with(series):
    """A minimal valid report whose latencies map series -> values."""
    latencies = {}
    for name, values in series.items():
        rec = LatencyRecorder()
        for v in values:
            rec.record(v)
        latencies[name] = rec.summary()
    return build_report(
        "t", config={}, wall_seconds=0.1, metrics={}, latencies=latencies
    )


class TestParseSpec:
    def test_default_spec_parses(self):
        rules = parse_slo_spec(DEFAULT_SLO_SPEC)
        assert len(rules) == 4
        assert all(isinstance(r, SloRule) and r.threshold_ns > 0 for r in rules)

    def test_threshold_units(self):
        doc = {"slo": [
            {"name": "a", "series": "*", "quantile": "p50", "threshold_us": 2},
            {"name": "b", "series": "*", "quantile": "p50", "threshold_s": 1.5},
        ]}
        a, b = parse_slo_spec(doc)
        assert a.threshold_ns == 2_000
        assert b.threshold_ns == 1_500_000_000

    def test_all_problems_reported_at_once(self):
        doc = {"slo": [
            {"series": "*", "quantile": "p42", "threshold_ns": 1, "threshold_ms": 1},
            {"name": "ok", "series": "", "quantile": "p99", "bogus": 1},
        ]}
        with pytest.raises(InputFormatError) as err:
            parse_slo_spec(doc)
        message = str(err.value)
        assert "slo[0]" in message and "slo[1]" in message
        assert "'name'" in message
        assert "quantile" in message
        assert "exactly one" in message
        assert "bogus" in message

    def test_rejects_non_list_and_empty(self):
        with pytest.raises(InputFormatError):
            parse_slo_spec({"slo": "nope"})
        with pytest.raises(InputFormatError, match="empty"):
            parse_slo_spec({"slo": []})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"slo": [{"name": "x", "series": "*", "quantile": "p99",
                      "threshold_ms": 5}]}
        ))
        (rule,) = load_slo_spec(path)
        assert rule.threshold_ns == 5_000_000
        with pytest.raises(InputFormatError):
            load_slo_spec(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputFormatError, match="JSON"):
            load_slo_spec(bad)


class TestEvaluate:
    RULES = (
        SloRule("fast stabs", "*/stab/*", "p99", 1_000_000),
        SloRule("all reads", "*/small_range/*", "p50", 50_000_000),
    )

    def test_pass_and_fail(self):
        doc = report_with({
            "R-Tree/stab/tenant-a": [10_000] * 100,
            "R-Tree/stab/tenant-b": [10_000] * 98 + [10_000_000_000] * 2,
            "R-Tree/small_range/tenant-a": [1_000_000] * 10,
        })
        results = evaluate_slo(doc, self.RULES)
        by_series = {r.series: r for r in results}
        assert by_series["R-Tree/stab/tenant-a"].passed
        assert not by_series["R-Tree/stab/tenant-b"].passed  # p99 = the outlier
        assert by_series["R-Tree/small_range/tenant-a"].passed
        assert not slo_passed(results)

    def test_no_match_fails(self):
        doc = report_with({"R-Tree/insert/tenant-a": [100]})
        results = evaluate_slo(doc, self.RULES)
        assert all(not r.passed and r.series is None for r in results)
        assert "no latency series matches" in results[0].reason

    def test_glob_scoping(self):
        doc = report_with({
            "R-Tree/stab/tenant-a": [10_000],
            "SR-Tree/stab/tenant-a": [10_000],
        })
        rule = SloRule("sr only", "SR-Tree/*", "p99", 1_000_000)
        results = evaluate_slo(doc, (rule,))
        assert [r.series for r in results] == ["SR-Tree/stab/tenant-a"]

    def test_default_rules_used_when_none_given(self):
        doc = report_with({"R-Tree/stab/tenant-a": [10_000]})
        results = evaluate_slo(doc)
        # 4 default rules; 3 have no matching series
        assert len(results) == 4
        assert sum(1 for r in results if r.series is None) == 3

    def test_invalid_report_rejected(self):
        with pytest.raises(InputFormatError):
            evaluate_slo({"schema": "nope"}, self.RULES)

    def test_format_results(self):
        doc = report_with({
            "R-Tree/stab/tenant-a": [10_000],
            "R-Tree/stab/tenant-b": [10_000_000_000],
        })
        text = format_slo_results(evaluate_slo(doc, self.RULES[:1]))
        assert "PASS" in text and "FAIL" in text
        assert "1/2 objectives met, 1 FAILED" in text
        assert format_slo_results([]) == "no SLO rules evaluated"

    def test_rule_describe(self):
        rule = SloRule("x", "*/stab/*", "p99", 5_000_000)
        assert rule.describe() == "x: */stab/* p99 <= 5ms"


@pytest.mark.slow
class TestSloBench:
    def test_tiny_bench_emits_valid_v2_report(self, tmp_path):
        doc = run_bench(
            "slo",
            records=800,
            ops=120,
            rate=6_000.0,
            threads=2,
            breakdown_ops=40,
            overhead_queries=64,
            index_types=("R-Tree", "Packed SR-Tree"),
            report_dir=str(tmp_path),
        )
        assert doc["schema"] == SCHEMA
        validate_report(doc)
        loaded = load_report(tmp_path / "BENCH_slo.json")
        assert loaded == doc

        per_index = doc["metrics"]["per_index"]
        assert set(per_index) == {"R-Tree", "Packed SR-Tree"}
        for kind, m in per_index.items():
            assert m["ops_done"] == 120
            assert m["errors"] == 0
            series = [s for s in doc["latencies"] if s.startswith(f"{kind}/")]
            assert series
            assert sum(doc["latencies"][s]["count"] for s in series) == 120
            assert m["breakdown"]["spans"] == 40
        assert doc["metrics"]["min_accounted_fraction"] > 0.0

        text = format_bench(doc)
        assert "R-Tree" in text and "recorder overhead" in text
