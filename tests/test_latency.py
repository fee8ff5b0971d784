"""Tests for the log-bucketed latency recorder and span decomposition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigError
from repro.obs import RingBufferSink, Tracer
from repro.obs.latency import (
    DEFAULT_SUB_BUCKET_BITS,
    LatencyRecorder,
    LatencySeries,
    format_ns,
    span_breakdown,
)


def oracle_quantile(values, q):
    """Nearest-rank sample quantile over the raw values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestBucketMath:
    def test_small_values_exact(self):
        rec = LatencyRecorder(sub_bucket_bits=5)
        for v in range(32):  # below 2**5 every value gets its own bucket
            assert rec._index(v) == v
            assert rec._bucket_high(rec._index(v)) == v

    def test_bucket_high_is_inclusive_upper_bound(self):
        rec = LatencyRecorder()
        for v in [0, 1, 31, 32, 33, 100, 1023, 1024, 10**6, 10**9, 2**50]:
            index = rec._index(v)
            high = rec._bucket_high(index)
            assert high >= v
            assert rec._index(high) == index
            assert rec._index(high + 1) == index + 1

    def test_relative_error_bound(self):
        rec = LatencyRecorder(sub_bucket_bits=5)
        assert rec.relative_error == pytest.approx(0.0625)
        for v in [100, 999, 12_345, 10**7, 3 * 10**9]:
            high = rec._bucket_high(rec._index(v))
            assert (high - v) / v <= rec.relative_error

    def test_precision_knob_validated(self):
        with pytest.raises(ConfigError):
            LatencyRecorder(sub_bucket_bits=0)
        with pytest.raises(ConfigError):
            LatencyRecorder(sub_bucket_bits=13)


class TestRecorder:
    def test_empty(self):
        rec = LatencyRecorder()
        assert rec.count == 0
        assert rec.quantile(0.99) == 0
        assert rec.min is None and rec.max is None
        assert rec.mean == 0.0

    def test_negative_clamped_to_zero(self):
        rec = LatencyRecorder()
        rec.record(-50)
        assert rec.min == 0 and rec.max == 0 and rec.count == 1

    def test_record_seconds(self):
        rec = LatencyRecorder()
        rec.record_seconds(0.000_002)
        assert 2000 <= rec.quantile(1.0) <= 2000 * 1.07

    def test_quantile_range_checked(self):
        rec = LatencyRecorder()
        with pytest.raises(ConfigError):
            rec.quantile(1.5)

    def test_quantile_never_exceeds_observed_max(self):
        rec = LatencyRecorder()
        rec.record(1_000_001)  # interior of a wide bucket
        assert rec.quantile(1.0) == 1_000_001

    def test_merge_requires_same_precision(self):
        a = LatencyRecorder(sub_bucket_bits=5)
        b = LatencyRecorder(sub_bucket_bits=6)
        with pytest.raises(ConfigError, match="precision"):
            a.merge(b)

    def test_summary_bins_account_for_every_observation(self):
        rec = LatencyRecorder()
        values = [3, 3, 70, 900, 12_345, 10**8]
        for v in values:
            rec.record(v)
        summary = rec.summary()
        assert summary["unit"] == "ns"
        assert summary["count"] == len(values)
        assert summary["sum"] == sum(values)
        assert sum(count for _, count in summary["bins"]) == len(values)
        assert summary["min"] == 3 and summary["max"] == 10**8
        assert set(summary["quantiles"]) == {"p50", "p90", "p99", "p999"}


class TestQuantileAccuracy:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**10), min_size=1),
        chunks=st.integers(min_value=1, max_value=5),
        q=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    )
    def test_merged_quantiles_track_oracle(self, values, chunks, q):
        """Property: per-thread recorders merged in any order estimate every
        quantile within one bucket's relative error of the sorted-sample
        oracle."""
        parts = [LatencyRecorder() for _ in range(chunks)]
        for i, v in enumerate(values):
            parts[i % chunks].record(v)

        merged = LatencyRecorder()
        for part in parts:
            merged.merge(part)
        reversed_merge = LatencyRecorder()
        for part in reversed(parts):
            reversed_merge.merge(part)
        # Merge is order-independent (commutative + associative).
        assert merged.summary() == reversed_merge.summary()

        truth = oracle_quantile(values, q)
        estimate = merged.quantile(q)
        assert truth <= estimate <= truth * (1 + merged.relative_error) + 1
        assert merged.count == len(values)
        assert merged.total == sum(values)


class TestSeries:
    def test_labels_and_snapshot(self):
        series = LatencySeries()
        series.recorder("stab", "tenant-a").record(100)
        series.recorder("stab", "tenant-b").record(200)
        series.recorder("insert", "tenant-a").record(300)
        assert series.labels() == [
            ("insert", "tenant-a"), ("stab", "tenant-a"), ("stab", "tenant-b"),
        ]
        assert len(series) == 3
        assert series.total_count() == 3
        snap = series.snapshot(prefix="R-Tree/")
        assert set(snap) == {
            "R-Tree/insert/tenant-a", "R-Tree/stab/tenant-a", "R-Tree/stab/tenant-b",
        }

    def test_recorder_is_get_or_create(self):
        series = LatencySeries()
        assert series.recorder("stab", "t") is series.recorder("stab", "t")

    def test_merge_combines_per_label(self):
        a = LatencySeries()
        b = LatencySeries()
        a.recorder("stab", "t").record(10)
        b.recorder("stab", "t").record(20)
        b.recorder("insert", "t").record(30)
        a.merge(b)
        assert a.recorder("stab", "t").count == 2
        assert a.recorder("insert", "t").count == 1


class TestFormatNs:
    def test_units(self):
        assert format_ns(412) == "412ns"
        assert format_ns(3_100) == "3.1us"
        assert format_ns(12_400_000) == "12.4ms"
        assert format_ns(2_100_000_000) == "2.1s"

    def test_no_scientific_notation_at_boundaries(self):
        assert "e+" not in format_ns(999_820_550)
        assert format_ns(999_820_550).endswith("s")


class TestSpanBreakdown:
    def _traced_stream(self):
        sink = RingBufferSink()
        tracer = Tracer(sink, strict=True)
        with tracer.span("serve", tenant="t", query_class="stab") as span:
            tracer.event(
                "latch_acquire", latch="index", mode="read", wait_seconds=0.001
            )
            tracer.event(
                "page_fetch", page_id=1, hit=False, page_bytes=4096, read_ns=2_000_000
            )
            span.set(cpu_ns=500_000)
        return sink.events

    def test_joins_latch_disk_cpu_inside_span(self):
        result = span_breakdown(self._traced_stream())
        totals = result["totals"]
        assert totals["spans"] == 1
        assert totals["latch_ns"] == 1_000_000
        assert totals["disk_ns"] == 2_000_000
        assert totals["cpu_ns"] == 500_000
        assert totals["duration_ns"] > 0
        (row,) = result["spans"]
        assert row["tenant"] == "t" and row["query_class"] == "stab"

    def test_events_outside_spans_ignored(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.event("page_fetch", page_id=1, hit=False, page_bytes=64, read_ns=999)
        result = span_breakdown(sink.events)
        assert result["totals"]["spans"] == 0
        assert result["totals"]["disk_ns"] == 0
        assert result["totals"]["accounted_fraction"] == 0.0

    def test_other_span_ops_not_counted(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("search"):
            tracer.event("page_fetch", page_id=1, hit=False, page_bytes=64, read_ns=999)
        assert span_breakdown(sink.events)["totals"]["spans"] == 0
