"""The ``batch`` bench scenario: tier-1 smoke at small scale, benchmark
scale behind the ``slow`` marker (excluded from tier-1 via addopts)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import BATCH_INDEX_TYPES, format_bench, run_bench
from repro.obs.report import SCHEMA, validate_report


def _check_doc(doc, expected_records):
    validate_report(doc)
    assert doc["schema"] == SCHEMA
    assert doc["config"]["records"] == expected_records
    metrics = doc["metrics"]
    assert metrics["result_divergences"] == 0
    assert set(metrics["search"]) == set(BATCH_INDEX_TYPES)
    for kind in BATCH_INDEX_TYPES:
        search = metrics["search"][kind]
        assert search["batched_faults"] <= search["sequential_faults"]


class TestBatchBenchSmoke:
    def test_small_run_report_and_table(self, tmp_path):
        doc = run_bench(
            "batch",
            records=1200,
            batch_size=32,
            buffer_bytes=16 * 1024,
            report_dir=str(tmp_path),
        )
        _check_doc(doc, 1200)
        # Even at toy scale the shared traversal must amortize page faults.
        assert doc["metrics"]["min_fault_reduction"] > 1.0
        written = json.loads(Path(tmp_path, "BENCH_batch.json").read_text())
        assert written["metrics"]["result_divergences"] == 0
        table = format_bench(doc)
        for kind in BATCH_INDEX_TYPES:
            assert kind in table


@pytest.mark.slow
class TestBatchBenchAtScale:
    def test_acceptance_20k(self, tmp_path):
        """The issue's acceptance bar: >= 2x fewer buffer faults for a
        64-query batch vs. 64 sequential searches on the 20k workload."""
        doc = run_bench("batch", records=20_000, batch_size=64, report_dir=str(tmp_path))
        _check_doc(doc, 20_000)
        assert doc["metrics"]["min_fault_reduction"] >= 2.0

    def test_200k_scale(self):
        """Benchmark-scale run (200k records, R-Tree + SR-Tree only to keep
        the slow lane's wall-clock in minutes, not tens of minutes)."""
        doc = run_bench(
            "batch",
            records=200_000,
            batch_size=64,
            index_types=("R-Tree", "SR-Tree"),
        )
        validate_report(doc)
        metrics = doc["metrics"]
        assert metrics["result_divergences"] == 0
        assert metrics["min_fault_reduction"] >= 2.0
