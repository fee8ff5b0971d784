"""Round-trip tests for node serialization and the storage manager."""

import random

import pytest

from repro import IndexConfig, Rect, RTree, SRTree, check_index, segment
from repro.exceptions import StorageError
from repro.storage import StorageManager, deserialize_node, entry_physical_bytes, serialize_node

from .conftest import random_segments


class TestEntryLayout:
    def test_physical_size_fits_config(self):
        # Default config: 40-byte entries hold 2-D coordinates + reference.
        assert entry_physical_bytes(2) == 40
        assert entry_physical_bytes(1) == 24
        cfg = IndexConfig()
        assert entry_physical_bytes(cfg.dims) <= cfg.entry_bytes

    def test_full_leaf_fits_page(self):
        cfg = IndexConfig()
        tree = RTree(cfg)
        # Fill one leaf exactly to capacity.
        for i in range(cfg.capacity(0)):
            tree.insert(Rect((i, i), (i + 1, i + 1)))
        node = tree.root
        while not node.is_leaf:
            node = node.branches[0].child
        data = serialize_node(node, cfg.node_bytes(0), {})
        assert len(data) == cfg.node_bytes(0)


class TestNodeRoundTrip:
    def test_leaf_round_trip(self):
        cfg = IndexConfig()
        tree = SRTree(cfg)
        tree.insert(segment(1, 5, 3), "a")
        tree.insert(segment(2, 8, 4), "b")
        node = tree.root
        image = deserialize_node(serialize_node(node, cfg.node_bytes(0), {}))
        assert image.level == 0
        assert len(image.data_entries) == 2
        assert image.data_entries[0].lows == (1.0, 3.0)
        assert image.data_entries[0].highs == (5.0, 3.0)

    def test_remnant_flag_round_trip(self):
        from repro.core.entry import DataEntry
        from repro.core.node import Node

        node = Node(level=0)
        node.data_entries.append(DataEntry(segment(0, 1, 2), 7, None, True))
        node.data_entries.append(DataEntry(segment(3, 4, 5), 8, None, False))
        image = deserialize_node(serialize_node(node, 1024, {}))
        assert image.data_entries[0].is_remnant is True
        assert image.data_entries[0].record_id == 7
        assert image.data_entries[1].is_remnant is False

    def test_nonleaf_with_spanning_round_trip(self, small_config):
        tree = SRTree(small_config)
        for rect in random_segments(400, seed=40, long_fraction=0.4):
            tree.insert(rect)
        target = None
        for node in tree.iter_nodes():
            if not node.is_leaf and node.spanning_count > 0:
                target = node
                break
        if target is None:
            pytest.skip("no spanning records at this seed")
        page_of = {b.child.node_id: i + 1 for i, b in enumerate(target.branches)}
        size = small_config.node_bytes(target.level)
        image = deserialize_node(serialize_node(target, size, page_of))
        assert len(image.branches) == len(target.branches)
        for branch, b_image in zip(target.branches, image.branches):
            assert b_image.child == page_of[branch.child.node_id]
            assert len(b_image.spanning) == len(branch.spanning)
            assert b_image.lows == branch.rect.lows

    def test_overflow_rejected(self):
        cfg = IndexConfig()
        tree = RTree(cfg)
        for i in range(cfg.capacity(0)):
            tree.insert(Rect((i, i), (i + 1, i + 1)))
        node = tree.root
        while not node.is_leaf:
            node = node.branches[0].child
        with pytest.raises(StorageError):
            serialize_node(node, 64, {})

    def test_corrupt_header_rejected(self):
        with pytest.raises(StorageError):
            deserialize_node(b"\x01")


class TestStorageManager:
    def _tree(self, config, n=400, seed=41):
        tree = SRTree(config)
        data = {}
        for rect in random_segments(n, seed=seed, long_fraction=0.2):
            data[tree.insert(rect)] = rect
        return tree, data

    def test_accesses_flow_through_pool(self, small_config):
        tree, _ = self._tree(small_config)
        mgr = StorageManager(tree, buffer_bytes=8 * small_config.leaf_node_bytes)
        tree.search(Rect((0, 0), (100_000, 100_000)))
        summary = mgr.io_summary()
        assert summary["buffer_misses"] > 0
        assert summary["allocated_pages"] == tree.node_count()

    def test_small_pool_evicts_more(self, small_config):
        tree, _ = self._tree(small_config)
        rng = random.Random(42)
        queries = []
        for _ in range(40):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            queries.append(Rect((cx, cy), (cx + 5000, cy + 5000)))

        def run(buffer_bytes):
            clone, _ = self._tree(small_config)
            # The pool must at least fit the largest (root) page.
            floor = clone.config.node_bytes(clone.height - 1)
            mgr = StorageManager(clone, buffer_bytes=max(buffer_bytes, 2 * floor))
            for q in queries:
                clone.search(q)
            return mgr.io_summary()

        small = run(4 * small_config.leaf_node_bytes)
        large = run(512 * small_config.leaf_node_bytes)
        assert small["buffer_misses"] > large["buffer_misses"]
        assert small["hit_ratio"] < large["hit_ratio"]

    def test_checkpoint_and_load(self, small_config):
        tree, data = self._tree(small_config)
        mgr = StorageManager(tree, buffer_bytes=64 * 1024)
        root_page = mgr.checkpoint()
        assert root_page > 0
        clone = mgr.load_tree()
        assert len(clone) == len(tree)
        assert type(clone) is SRTree
        check_index(clone)
        rng = random.Random(43)
        for _ in range(30):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 3000, cy + 3000))
            assert clone.search_ids(q) == tree.search_ids(q)

    def test_payloads_survive_checkpoint(self, small_config):
        tree = SRTree(small_config)
        rid = tree.insert(segment(10, 20, 30), payload={"emp": "alice"})
        mgr = StorageManager(tree)
        mgr.checkpoint()
        clone = mgr.load_tree()
        assert dict(clone.search(segment(15, 15, 30))) == {rid: {"emp": "alice"}}

    def test_load_without_checkpoint_rejected(self, small_config):
        tree, _ = self._tree(small_config)
        mgr = StorageManager(tree)
        with pytest.raises(StorageError):
            mgr.load_tree()

    def test_loaded_tree_accepts_new_inserts(self, small_config):
        tree, data = self._tree(small_config, n=200)
        mgr = StorageManager(tree)
        mgr.checkpoint()
        clone = mgr.load_tree()
        new_id = clone.insert(segment(5, 6, 7), "new")
        assert new_id not in data
        assert new_id in clone.search_ids(segment(5, 6, 7))
        check_index(clone)

    def test_detach_stops_instrumentation(self, small_config):
        tree, _ = self._tree(small_config, n=100)
        mgr = StorageManager(tree)
        tree.search(Rect((0, 0), (1000, 1000)))
        before = mgr.pool.stats.accesses
        mgr.detach()
        tree.search(Rect((0, 0), (1000, 1000)))
        assert mgr.pool.stats.accesses == before

    def test_pages_sized_by_level(self, small_config):
        tree, _ = self._tree(small_config)
        assert tree.height >= 2
        mgr = StorageManager(tree)
        root_page = mgr._page_of[tree.root.node_id]
        assert mgr.disk.page_size(root_page) == small_config.node_bytes(tree.root.level)
