"""Round-trip tests for node serialization and the storage manager."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IndexConfig, Rect, RTree, SRTree, check_index, segment
from repro.core.entry import BranchEntry, DataEntry
from repro.core.node import Node
from repro.exceptions import PageCorruptionError, StorageError
from repro.storage import (
    StorageManager,
    deserialize_node,
    entry_physical_bytes,
    serialize_node,
    serializer,
)

from . import _reference_serializer as reference
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

    def test_attaching_storage_refuses_an_entry_that_does_not_fit(self):
        from repro.exceptions import ConfigError

        # dims=3 keeps the default 40-byte entry, but a 3-D slot is 56 bytes.
        tree = SRTree(IndexConfig(dims=3))
        with pytest.raises(ConfigError, match="56 bytes"):
            StorageManager(tree)
        # In memory the config stays legal, and a fitting one attaches.
        tree.insert(Rect((0, 0, 0), (1, 1, 1)))
        fitting = SRTree(IndexConfig(dims=3, entry_bytes=56))
        manager = StorageManager(fitting)
        for i in range(60):
            fitting.insert(Rect((i, i, i), (i + 1, i + 1, i + 1)))
        assert manager.checkpoint() > 0
        assert len(manager.load_tree()) == 60

    def test_pages_sized_by_level(self, small_config):
        tree, _ = self._tree(small_config)
        assert tree.height >= 2
        mgr = StorageManager(tree)
        root_page = mgr._page_of[tree.root.node_id]
        assert mgr.disk.page_size(root_page) == small_config.node_bytes(tree.root.level)


# ---------------------------------------------------------------------------
# The slot kernel against the per-record encoder it replaced
# (tests/_reference_serializer.py): same bytes, same images, same errors.
# ---------------------------------------------------------------------------
_BODY = 16  # page header (12) + node header (4)


def _box(draw, dims):
    bound = st.floats(allow_nan=False, width=64)
    lows, highs = [], []
    for _ in range(dims):
        a, b = draw(bound), draw(bound)
        lows.append(min(a, b))
        highs.append(max(a, b))
    return Rect(lows, highs)


def _record(draw, dims):
    rid = draw(st.integers(min_value=0, max_value=(1 << 63) - 1))
    return DataEntry(_box(draw, dims), rid, None, is_remnant=draw(st.booleans()))


def _node(draw, dims):
    """A leaf or an inner node with arbitrary contents, plus the page map
    for its children."""
    level = draw(st.integers(min_value=0, max_value=4))
    node = Node(level=level)
    page_of = {}
    if level == 0:
        node.data_entries = [_record(draw, dims) for _ in range(draw(st.integers(0, 12)))]
        if not node.data_entries:
            node.assigned_region = _box(draw, dims)
        return node, page_of
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        branch = BranchEntry(_box(draw, dims), Node(level=level - 1))
        branch.spanning = [_record(draw, dims) for _ in range(draw(st.integers(0, 3)))]
        page_of[branch.child.node_id] = draw(st.integers(min_value=0, max_value=(1 << 48) - 1))
        node.branches.append(branch)
    return node, page_of


def _both(fn_new, fn_ref, *args):
    """Run the kernel and the reference on the same input; return both
    results, or both errors as ``(type, message)``."""
    out = []
    for fn in (fn_new, fn_ref):
        try:
            out.append(fn(*args))
        except StorageError as exc:
            out.append((type(exc), str(exc)))
    return out


class TestAgainstReferenceEncoder:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pages_and_images_match(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=4))
        node, page_of = _node(data.draw, dims)
        generation = data.draw(st.integers(min_value=0, max_value=(1 << 40)))
        needed = _BODY + entry_physical_bytes(dims) * node.slots_used
        page_size = needed + data.draw(st.integers(min_value=0, max_value=64))
        new, ref = _both(serialize_node, reference.serialize_node, node, page_size, page_of,
                         generation)
        assert isinstance(new, bytes) and len(new) == page_size
        assert new == ref
        image = deserialize_node(new, 5)
        assert image == reference.deserialize_node(ref, 5)
        assert image.generation == generation & 0xFFFFFFFF
        assert (image.level, image.dims) == (node.level & 0xFF, dims)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_page_too_small_is_refused_alike(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=4))
        node, page_of = _node(data.draw, dims)
        needed = _BODY + entry_physical_bytes(dims) * node.slots_used
        page_size = data.draw(st.integers(min_value=0, max_value=needed - 1))
        new, ref = _both(serialize_node, reference.serialize_node, node, page_size, page_of)
        assert new == ref
        assert new[0] is StorageError

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_corrupted_byte_is_caught_before_any_decode(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=4))
        node, page_of = _node(data.draw, dims)
        size = _BODY + entry_physical_bytes(dims) * node.slots_used + 8
        page = bytearray(serialize_node(node, size, page_of, 3))
        at = data.draw(st.integers(min_value=0, max_value=size - 1))
        page[at] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))

        def no_decode(*args):
            raise AssertionError("a corrupted page reached the slot decoder")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serializer, "unrolled", no_decode)
            new, ref = _both(deserialize_node, reference.deserialize_node, bytes(page), 9)
        assert new == ref
        assert new[0] is PageCorruptionError

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_record_id_guard(self, dims):
        for level in (0, 1):
            node, page_of = self._one_record(dims, level, record_id=1 << 63)
            new, ref = _both(serialize_node, reference.serialize_node, node, 4096, page_of)
            assert new == ref == (StorageError, f"record id {1 << 63} too large to encode")

    def test_spanning_count_guard(self):
        node, page_of = self._one_record(2, 1, record_id=1)
        record = node.branches[0].spanning[0]
        node.branches[0].spanning = [record] * (2**15)
        new, ref = _both(serialize_node, reference.serialize_node, node, 1 << 21, page_of)
        assert new == ref == (StorageError, "too many spanning records to encode")

    def test_child_page_guard(self):
        node, page_of = self._one_record(3, 2, record_id=1)
        page_of[node.branches[0].child.node_id] = 1 << 48
        new, ref = _both(serialize_node, reference.serialize_node, node, 4096, page_of)
        assert new == ref == (StorageError, f"page id {1 << 48} too large to encode")

    @pytest.mark.parametrize("level", [0, 1])
    def test_size_guard_reports_a_later_bad_record_first(self, level):
        # The bad record sits past the page end: both encoders still name
        # it, not the overflow.
        node, page_of = self._one_record(2, level, record_id=1)
        records = node.data_entries if level == 0 else node.branches[0].spanning
        records[:] = [records[0]] * 40 + [DataEntry(records[0].rect, 1 << 63, None)]
        new, ref = _both(serialize_node, reference.serialize_node, node, 1024, page_of)
        assert new == ref == (StorageError, f"record id {1 << 63} too large to encode")
        records.pop()
        new, ref = _both(serialize_node, reference.serialize_node, node, 1024, page_of)
        assert new == ref
        assert new[0] is StorageError and "> page size 1024" in new[1]

    def test_dims_and_header_guards(self):
        empty = Node(level=0)
        assert _both(serialize_node, reference.serialize_node, empty, 1024, {})[0][0] is (
            StorageError
        )
        node, page_of = self._one_record(2, 0, record_id=1)
        new, ref = _both(serialize_node, reference.serialize_node, node, 12, page_of)
        assert new == ref and new[0] is StorageError
        # A page whose node header says dims=0 is refused after its CRC.
        page = bytearray(serialize_node(node, 64, page_of))
        page[13] = 0
        crc = zlib.crc32(page[12:], zlib.crc32(page[:8]))
        page[8:12] = crc.to_bytes(4, "little")
        new, ref = _both(deserialize_node, reference.deserialize_node, bytes(page))
        assert new == ref == (StorageError, "corrupt node header: dims=0")

    @pytest.mark.parametrize("level", [0, 1])
    def test_a_count_past_the_page_end_is_refused(self, level):
        # Only a faulty encoder writes such a page (its CRC is valid), but
        # the decoder must not return a short node for it.
        node, page_of = self._one_record(2, level, record_id=1)
        page = bytearray(serialize_node(node, _BODY + 40 * node.slots_used + 8, page_of))
        page[14:16] = (2).to_bytes(2, "little")  # one entry more than the page holds
        crc = zlib.crc32(page[12:], zlib.crc32(page[:8]))
        page[8:12] = crc.to_bytes(4, "little")
        with pytest.raises(StorageError, match="overrun the page"):
            deserialize_node(bytes(page))

    @staticmethod
    def _one_record(dims, level, record_id):
        rect = Rect((0.0,) * dims, (1.0,) * dims)
        record = DataEntry(rect, record_id, None)
        node = Node(level=level)
        if level == 0:
            node.data_entries.append(record)
            return node, {}
        branch = BranchEntry(rect, Node(level=level - 1))
        branch.spanning.append(record)
        node.branches.append(branch)
        return node, {branch.child.node_id: 7}
