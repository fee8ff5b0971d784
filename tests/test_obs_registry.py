"""Tests for the metrics registry (counters, gauges, histograms, sources)."""

import json

import pytest

from repro import SRTree, segment
from repro.obs import Histogram, MetricsRegistry, index_registry
from repro.storage import StorageManager


class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("ops")
        c.inc()
        c.inc(4)
        assert reg.snapshot()["counters"]["ops"] == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_gauge_set_and_pull(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3.0)
        backing = {"v": 7.0}
        reg.gauge("pulled", fn=lambda: backing["v"])
        snap = reg.snapshot()["gauges"]
        assert snap == {"depth": 3.0, "pulled": 7.0}
        backing["v"] = 9.0
        assert reg.snapshot()["gauges"]["pulled"] == 9.0


class TestHistogram:
    def test_fixed_buckets_with_overflow(self):
        h = Histogram("nodes", (1, 4, 16))
        for v in (0.5, 1, 3, 17, 1000):
            h.observe(v)
        s = h.summary()
        assert s["counts"] == [2, 1, 0, 2]
        assert s["le"] == [1.0, 4.0, 16.0, None]
        assert s["count"] == 5
        assert s["min"] == 0.5 and s["max"] == 1000
        assert s["mean"] == pytest.approx(s["sum"] / 5)

    def test_summary_is_json_safe(self):
        h = Histogram("x", (1, 2))
        h.observe(1.5)
        json.dumps(h.summary())  # must not raise

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", ())
        with pytest.raises(ValueError):
            Histogram("x", (4, 2, 1))
        with pytest.raises(ValueError):
            Histogram("x", (1, 1, 2))


class TestRegistrySnapshot:
    def test_sources_appear_under_their_name(self):
        reg = MetricsRegistry()
        reg.source("access", lambda: {"searches": 2})
        snap = reg.snapshot()
        assert snap["access"] == {"searches": 2}

    def test_to_json_parses(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h", (1, 2)).observe(1)
        doc = json.loads(reg.to_json())
        assert doc["counters"]["a"] == 1
        assert doc["histograms"]["h"]["count"] == 1


class TestIndexRegistry:
    """The unification surface: one snapshot covering AccessStats,
    BufferStats, DiskStats, and structural IndexMetrics."""

    @pytest.fixture()
    def tree(self):
        tree = SRTree()
        for i in range(300):
            tree.insert(segment(i % 31, i % 31 + 2.0, float(i)))
        return tree

    def test_access_and_shape(self, tree):
        reg = index_registry(tree)
        tree.search(segment(5.0, 6.0, 10.0))
        snap = reg.snapshot()
        assert snap["access"]["searches"] == 1
        assert snap["access"]["inserts"] == 300
        assert "accesses_by_level" in snap["access"]
        assert snap["gauges"]["index.size"] == 300.0
        assert snap["gauges"]["index.height"] == float(tree.height)

    def test_storage_sources(self, tree):
        manager = StorageManager(tree, buffer_bytes=64 * 1024)
        reg = index_registry(tree, storage=manager)
        tree.search(segment(5.0, 6.0, 10.0))
        snap = reg.snapshot()
        assert snap["buffer"]["accesses"] == snap["access"]["search_node_accesses"]
        assert set(snap["disk"]) == {
            "reads", "writes", "bytes_read", "bytes_written",
            "transient_errors", "retries", "failed_ops", "fsyncs",
        }

    def test_latch_source(self, tree):
        from repro import ConcurrentIndex

        index = ConcurrentIndex(tree)
        reg = index_registry(tree, concurrency=index)
        index.search(segment(5.0, 6.0, 10.0))
        index.insert(segment(40.0, 41.0, 1.0))
        snap = reg.snapshot()
        assert snap["latch"]["writes"] == 1
        assert snap["latch"]["write_acquires"] == 1
        assert snap["latch"]["read_acquires"] == 1
        json.dumps(snap)
        index.detach()

    def test_structure_source_and_json(self, tree):
        reg = index_registry(tree, structure=True)
        snap = reg.snapshot()
        structure = snap["structure"]
        assert structure["height"] == tree.height
        assert structure["node_count"] == tree.node_count()
        assert len(structure["levels"]) == tree.height
        json.dumps(snap)  # whole unified snapshot must be JSON-serializable
