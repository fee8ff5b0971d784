"""Tests for the count histogram and the per-layer stats snapshots."""

import json

import pytest

from repro import SRTree, measure_index, segment
from repro.obs import Histogram
from repro.storage import StorageManager


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


class TestIndexRegistry:
    """What an index reports about itself, layer by layer: AccessStats,
    BufferStats, DiskStats, the engine's latch counters and the
    structural IndexMetrics, each from its own producer."""

    @pytest.fixture()
    def tree(self):
        tree = SRTree()
        for i in range(300):
            tree.insert(segment(i % 31, i % 31 + 2.0, float(i)))
        return tree

    def test_access_and_shape(self, tree):
        tree.search(segment(5.0, 6.0, 10.0))
        access = tree.stats.snapshot()
        assert access["searches"] == 1
        assert access["inserts"] == 300
        assert "accesses_by_level" in access
        json.dumps(access)

    def test_storage_sources(self, tree):
        manager = StorageManager(tree, buffer_bytes=64 * 1024)
        tree.search(segment(5.0, 6.0, 10.0))
        buffer = manager.pool.stats.snapshot()
        assert buffer["accesses"] == tree.stats.snapshot()["search_node_accesses"]
        assert set(manager.disk.stats.snapshot()) == {
            "reads", "writes", "bytes_read", "bytes_written",
            "transient_errors", "retries", "failed_ops", "fsyncs",
        }

    def test_latch_source(self, tree):
        from repro import ConcurrentIndex

        index = ConcurrentIndex(tree)
        index.search(segment(5.0, 6.0, 10.0))
        index.insert(segment(40.0, 41.0, 1.0))
        latch = index.contention_snapshot()
        assert latch["writes"] == 1
        assert latch["write_acquires"] == 1
        assert latch["read_acquires"] == 1
        json.dumps(latch)

    def test_structure_source_and_json(self, tree):
        structure = measure_index(tree).to_dict()
        assert structure["height"] == tree.height
        assert structure["node_count"] == tree.node_count()
        assert len(structure["levels"]) == tree.height
        json.dumps(structure)  # must be JSON-serializable
