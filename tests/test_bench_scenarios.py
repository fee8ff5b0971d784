"""The bench harness over every scenario: one toy-scale run each, the
report tail they share, the generated ``repro bench <scenario>`` flags,
and the exit status a failed correctness bar produces."""

from __future__ import annotations

import pytest

from repro.bench.harness import CORRECTNESS, TIMING, failed_bars, format_bench, run_bench
from repro.bench.scenarios import SCENARIOS
from repro.cli import main
from repro.concurrency.engine import ConcurrentIndex
from repro.exceptions import ConfigError
from repro.obs.report import SCHEMA, load_report, validate_report

TWO_KINDS = ("R-Tree", "Packed SR-Tree")

#: Toy-scale overrides: seconds, not minutes, for the whole matrix.
TOY = {
    "batch": dict(records=800, batch_size=16, buffer_bytes=16 * 1024, index_types=TWO_KINDS),
    "concurrent": dict(records=1200, queries=24, index_types=TWO_KINDS, thread_counts=(1, 2)),
    "mvcc": dict(
        records=1200, queries=24, index_types=("SR-Tree",), threads=2, rounds=1, sample_every=2
    ),
    "slo": dict(
        records=600, ops=80, rate=6_000.0, threads=2, breakdown_ops=20,
        overhead_queries=32, index_types=("R-Tree",),
    ),
    "wal": dict(
        commits=12, records=16, writer_counts=(1, 2), fsync_delay=0.001,
        sweep_points=1, checkpoint_every=8, replay_lengths=(8,),
    ),
    "shard": dict(
        records=1000, queries=40, shard_counts=(1, 2), threads=4,
        buffer_bytes=32 * 1024, read_delay=0.001,
    ),
}


def _as_config(params: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}


def test_every_scenario_has_a_toy_run():
    assert set(TOY) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_report(name, tmp_path):
    spec = SCENARIOS[name]
    doc = run_bench(name, report_dir=str(tmp_path), **TOY[name])

    assert doc["schema"] == SCHEMA and doc["name"] == name
    validate_report(doc)
    assert load_report(tmp_path / f"BENCH_{name}.json") == doc
    assert doc["config"] == _as_config({**spec.defaults, **TOY[name]})

    bars = doc["extra"]["bars"]
    assert [(b["metric"], b["kind"]) for b in bars] == [(b.metric, b.kind) for b in spec.bars]
    assert {b["kind"] for b in bars} <= {CORRECTNESS, TIMING}
    assert any(b["kind"] == CORRECTNESS for b in bars)
    assert failed_bars(doc) == []

    text = format_bench(doc)
    for table in spec.tables:
        rows = doc["metrics"]
        for key in table.rows.split("."):
            rows = rows[key]
        assert rows
        for label in rows:
            assert str(label) in text
    assert text.count("\nok ") + text.count("\nFAIL ") == len(bars)


def test_unknown_scenario_or_parameter():
    with pytest.raises(ConfigError, match="unknown bench scenario"):
        run_bench("nope")
    with pytest.raises(ConfigError, match="unknown parameter"):
        run_bench("batch", recordz=10)


class TestBenchCommand:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_help_lists_one_flag_per_parameter(self, name, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", name, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for param in SCENARIOS[name].defaults:
            assert "--" + param.replace("_", "-") in out

    def test_flags_reach_config(self, tmp_path, capsys):
        status = main([
            "bench", "concurrent", "--records", "900", "--queries", "12",
            "--index-types", "R-Tree", "Packed SR-Tree", "--thread-counts", "1", "2",
            "--read-delay", "0.0001", "--report-dir", str(tmp_path),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "concurrent bench" in out and "BENCH_concurrent.json" in out
        config = load_report(tmp_path / "BENCH_concurrent.json")["config"]
        assert config["records"] == 900 and config["queries"] == 12
        assert config["index_types"] == ["R-Tree", "Packed SR-Tree"]
        assert config["thread_counts"] == [1, 2]
        assert config["read_delay"] == 0.0001
        assert config["seed"] == SCENARIOS["concurrent"].defaults["seed"]

    def test_unknown_scenario_clean_exit(self):
        with pytest.raises(SystemExit, match="unknown bench scenario"):
            main(["bench", "nope"])

    def test_failed_correctness_bar_exits_nonzero(self, monkeypatch, capsys):
        """An engine that loses one hit must fail the run, by name."""
        honest = ConcurrentIndex.search_ids

        def lossy(self, rect):
            ids = honest(self, rect)
            if ids:
                ids.pop()
            return ids

        monkeypatch.setattr(ConcurrentIndex, "search_ids", lossy)
        status = main([
            "bench", "concurrent", "--records", "900", "--queries", "12",
            "--index-types", "R-Tree", "--thread-counts", "1", "--no-report",
        ])
        out = capsys.readouterr().out
        assert status == 1
        assert "FAIL" in out and "result_divergences" in out

    def test_failed_timing_bar_still_exits_zero(self, capsys):
        # One reader thread cannot be 2x faster than itself.
        status = main([
            "bench", "concurrent", "--records", "900", "--queries", "12",
            "--index-types", "R-Tree", "--thread-counts", "1", "--no-report",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "FAIL" in out and "min speedup" in out
