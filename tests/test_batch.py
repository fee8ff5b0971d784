"""Unit tests for batched search: one shared traversal per batch
(``repro.core.query.intersecting_many``) on trees and snapshots."""

from __future__ import annotations

import pytest

from repro import IndexConfig, Rect, RTree, SRTree, check_index, open_store, pack_tree
from repro.concurrency.stress import STRESS_INDEX_TYPES, _make_index
from repro.core import SkeletonRTree, SkeletonSRTree, batch_search, union_all
from repro.exceptions import ConfigError
from repro.obs import RingBufferSink, Tracer
from repro.sharding.partition import curve_key
from repro.storage import SimulatedDisk, StorageManager
from repro.storage.buffer import PageVersionCache
from repro.workloads import DOMAIN_HIGH, dataset_R1, query_rectangles

from .conftest import assert_trace_conforms, brute_force_ids, random_boxes, random_segments

DOMAIN_2D = [(0.0, 100_000.0), (0.0, 100_000.0)]


def make_index(kind: str, config: IndexConfig, expected: int = 400):
    """One of the five batch-supported index variants, empty (or pre-packed
    for the packed kind)."""
    if kind == "rtree":
        return RTree(config)
    if kind == "srtree":
        return SRTree(config)
    if kind == "skeleton-rtree":
        return SkeletonRTree(config, expected_tuples=expected, domain=DOMAIN_2D)
    if kind == "skeleton-srtree":
        return SkeletonSRTree(
            config,
            expected_tuples=expected,
            domain=DOMAIN_2D,
            prediction_fraction=0.1,
        )
    if kind == "packed":
        seedlings = [(r, f"seed{i}") for i, r in enumerate(random_boxes(60, seed=77))]
        return pack_tree(seedlings, config, SRTree)
    raise AssertionError(kind)


ALL_KINDS = ("rtree", "srtree", "skeleton-rtree", "skeleton-srtree", "packed")


# ---------------------------------------------------------------------------
# Batched search
# ---------------------------------------------------------------------------
class TestBatchSearch:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_sequential_search(self, kind, small_config):
        tree = make_index(kind, small_config)
        data = {}
        for i, rect in enumerate(random_segments(300, seed=3, long_fraction=0.2)):
            data[tree.insert(rect, payload=i)] = rect
        queries = random_boxes(40, seed=4)
        batched = batch_search(tree, queries)
        for qi, q in enumerate(queries):
            assert {rid for rid, _ in batched[qi]} == tree.search_ids(q)

    def test_visits_each_node_once_per_batch(self, small_config):
        tree = RTree(small_config)
        for rect in random_boxes(400, seed=5):
            tree.insert(rect)
        # Queries that all cover everything: sequential cost is N * nodes.
        whole = Rect((0.0, 0.0), (100_000.0, 100_000.0))
        queries = [whole] * 16
        before = tree.stats.search_node_accesses
        batch_search(tree, queries)
        assert tree.stats.search_node_accesses - before == tree.node_count()

    def test_updates_search_counters(self, small_config):
        tree = RTree(small_config)
        for rect in random_boxes(100, seed=6):
            tree.insert(rect)
        queries = random_boxes(10, seed=7)
        stats = tree.stats
        before_searches = stats.searches
        before_accesses = stats.search_node_accesses
        before_total = stats.node_accesses
        before_levels = sum(stats.accesses_by_level.values())
        batch_search(tree, queries)
        accessed = stats.search_node_accesses - before_accesses
        assert stats.searches - before_searches == 10
        assert 0 < accessed == stats.node_accesses - before_total
        assert accessed == sum(stats.accesses_by_level.values()) - before_levels

    def test_answers_do_not_depend_on_batch_order(self, small_config):
        """A query's hits and the batch's visits are the same however the
        batch is ordered, so nothing is gained by sorting it first."""
        tree = SRTree(small_config)
        data = {}
        for rect in random_segments(250, seed=8, long_fraction=0.3):
            data[tree.insert(rect)] = rect
        queries = random_boxes(20, seed=9)
        order = sorted(range(20), key=lambda i: curve_key(queries[i], union_all(queries)))
        before = tree.stats.search_node_accesses
        one = batch_search(tree, queries)
        visits = tree.stats.search_node_accesses - before
        sorted_hits = batch_search(tree, [queries[i] for i in order])
        assert tree.stats.search_node_accesses - before == 2 * visits
        for qi, hits in zip(order, sorted_hits):
            assert hits == one[qi] == tree.search(queries[qi])
            assert {r for r, _ in hits} == brute_force_ids(data, queries[qi])

    def test_empty_batch(self):
        tree = RTree()
        assert batch_search(tree, []) == []

    def test_rejects_wrong_dims(self):
        tree = RTree()
        with pytest.raises(ConfigError):
            batch_search(tree, [Rect((0.0,), (1.0,))])

    def test_predictor_buffered_records_are_found(self, small_config):
        tree = SkeletonSRTree(
            small_config,
            expected_tuples=1000,
            domain=DOMAIN_2D,
            prediction_fraction=0.5,
        )
        rect = Rect((10.0, 10.0), (20.0, 20.0))
        rid = tree.insert(rect, payload="buffered")
        assert tree.predicting
        results = batch_search(tree, [Rect((0.0, 0.0), (30.0, 30.0)), rect])
        assert {r for r, _ in results[0]} == {rid}
        assert {r for r, _ in results[1]} == {rid}

    def test_batch_spans_conform_to_schema(self, small_config):
        tree = SRTree(small_config)
        for rect in random_segments(120, seed=10, long_fraction=0.3):
            tree.insert(rect)
        sink = RingBufferSink()
        tree.tracer = Tracer(sink)
        batch_search(tree, random_boxes(8, seed=11))
        assert_trace_conforms(sink.events)
        ops = {e.op for e in sink.events if e.etype == "span_begin"}
        assert "batch_search" in ops


# ---------------------------------------------------------------------------
# A batch of inserts: the tree's own insert, record by record
# ---------------------------------------------------------------------------
def insert_all(tree, items) -> list[int]:
    """A multi-record insert, the one way there is to do it."""
    return [tree.insert(rect, payload) for rect, payload in items]


class TestBatchInsert:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_brute_force_and_invariants(self, kind, small_config):
        tree = make_index(kind, small_config)
        data = {rid: rect for rid, rect, _ in tree.items()}
        items = [
            (r, i) for i, r in enumerate(random_segments(300, seed=13, long_fraction=0.25))
        ]
        ids = insert_all(tree, items)
        assert len(ids) == len(items) == len(set(ids))
        for rid, (rect, _) in zip(ids, items):
            data[rid] = rect
        if hasattr(tree, "flush"):
            tree.flush()
        check_index(tree)
        for q in random_boxes(30, seed=14):
            assert tree.search_ids(q) == brute_force_ids(data, q)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_interleaves_with_sequential_operations(self, kind, small_config):
        tree = make_index(kind, small_config)
        data = {rid: rect for rid, rect, _ in tree.items()}
        boxes = random_segments(240, seed=15, long_fraction=0.2)
        for chunk_start in range(0, 240, 80):
            chunk = boxes[chunk_start : chunk_start + 80]
            ids = insert_all(tree, [(r, None) for r in chunk])
            for rid, r in zip(ids, chunk):
                data[rid] = r
            # A few sequential inserts and deletes between batches.
            extra = tree.insert(Rect((1.0, 1.0), (2.0, 2.0)))
            data[extra] = Rect((1.0, 1.0), (2.0, 2.0))
            victim = ids[0]
            assert tree.delete(victim, hint=data[victim]) >= 1
            del data[victim]
        if hasattr(tree, "flush"):
            tree.flush()
        check_index(tree)
        for q in random_boxes(25, seed=16):
            assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_bulk_insert_into_empty_tree_uses_str_split(self, paper_config):
        # Loading a whole batch into an empty tree is bulk loading: one
        # Sort-Tile-Recursive pass, no splits at all.
        items = [(r, None) for r in random_boxes(5000, seed=17)]
        tree = pack_tree(items, paper_config, RTree)
        check_index(tree)
        assert len(tree) == 5000
        assert tree.height >= 2
        assert tree.stats.splits == 0

    def test_stats_and_size_bookkeeping(self, small_config):
        tree = SRTree(small_config)
        items = [(r, None) for r in random_segments(150, seed=18, long_fraction=0.3)]
        ids = insert_all(tree, items)
        assert tree.stats.inserts == 150
        assert len(tree) == 150
        assert sorted(ids) == ids  # ids assigned in argument order
        for rid in ids:
            assert tree.fragment_count(rid) >= 1

    def test_spanning_records_are_placed(self, small_config):
        tree = SRTree(small_config)
        for rect in random_segments(200, seed=19, long_fraction=0.3):
            tree.insert(rect)
        placements_before = tree.stats.spanning_placements
        long_items = [
            (Rect((0.0, float(y * 1000)), (100_000.0, float(y * 1000))), None)
            for y in range(10)
        ]
        insert_all(tree, long_items)
        check_index(tree)
        assert tree.stats.spanning_placements > placements_before

    def test_skeleton_prediction_phase_routes_through_buffer(self, small_config):
        tree = SkeletonSRTree(
            small_config,
            expected_tuples=200,
            domain=DOMAIN_2D,
            prediction_fraction=0.25,
        )
        items = [(r, None) for r in random_segments(200, seed=20, long_fraction=0.2)]
        ids = insert_all(tree, items)
        assert len(ids) == 200
        assert not tree.predicting  # buffer filled and materialized mid-batch
        check_index(tree)
        data = {rid: rect for rid, (rect, _) in zip(ids, items)}
        for q in random_boxes(20, seed=21):
            assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_skeleton_coalesces_every_interval_inserts(self, monkeypatch):
        """The paper's cadence (§4): one coalescing pass per
        ``coalesce_interval`` insertions, however the inserts arrive."""
        config = IndexConfig(leaf_node_bytes=200, coalesce_interval=100)
        tree = SkeletonRTree(config, expected_tuples=300, domain=DOMAIN_2D)
        passes = []
        real_pass = tree._coalesce_pass
        monkeypatch.setattr(tree, "_coalesce_pass", lambda: passes.append(real_pass()))
        insert_all(tree, [(r, None) for r in random_boxes(250, seed=22)])
        assert len(passes) == 2 and tree._inserts_since_coalesce == 50
        check_index(tree)


# ---------------------------------------------------------------------------
# I/O amortization through the disk-backed path
# ---------------------------------------------------------------------------
class TestBufferAmortization:
    def test_batched_search_faults_each_page_at_most_once(self, small_config):
        tree = RTree(small_config)
        for rect in random_boxes(500, seed=25):
            tree.insert(rect)
        queries = random_boxes(32, seed=26)

        manager = StorageManager(tree, buffer_bytes=4 * 1024)
        for q in queries:
            tree.search(q)
        sequential = manager.pool.stats.misses
        manager.detach()

        manager = StorageManager(tree, buffer_bytes=4 * 1024)
        batched_results = batch_search(tree, queries)
        batched = manager.pool.stats.misses
        manager.detach()

        assert batched <= tree.node_count()  # at most one fault per page
        assert batched < sequential
        for qi, q in enumerate(queries):
            assert {r for r, _ in batched_results[qi]} == tree.search_ids(q)

    def test_node_access_events_match_page_fetches(self, small_config):
        tree = SRTree(small_config)
        for rect in random_segments(200, seed=27, long_fraction=0.2):
            tree.insert(rect)
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tree.tracer = tracer
        manager = StorageManager(tree, buffer_bytes=64 * 1024, tracer=tracer)
        batch_search(tree, random_boxes(12, seed=28))
        assert_trace_conforms(sink.events)
        accesses = sum(1 for e in sink.events if e.etype == "node_access")
        fetches = sum(1 for e in sink.events if e.etype == "page_fetch")
        assert accesses == fetches > 0
        manager.detach()

    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_batch_halves_cold_pool_faults(self, kind):
        """64 queries through a cold 32 KiB pool: the shared traversal
        faults at most half as often as one descent per query in the
        given order, and at most 2/3 as often as one descent per query
        in curve order (1.5-1.6x measured; miss counts repeat exactly),
        with the same answers."""
        tree = _make_index(kind, IndexConfig(), dataset_R1(2_000, seed=1991), DOMAIN_HIGH)
        queries = query_rectangles(1.0, 64, area=0.05 * DOMAIN_HIGH**2, seed=1992)
        bounds = union_all(queries)
        in_curve_order = sorted(queries, key=lambda q: curve_key(q, bounds))

        def cold_misses(read):
            with open_store(SimulatedDisk(), tree=tree, buffer_bytes=32 * 1024) as store:
                answers = read(store.engine)
            return answers, store.manager.pool.stats.misses

        sequential, sequential_misses = cold_misses(lambda e: [e.search_ids(q) for q in queries])
        _, sorted_misses = cold_misses(lambda e: [e.search_ids(q) for q in in_curve_order])
        batched, batched_misses = cold_misses(
            lambda e: [{rid for rid, _ in hits} for hits in e.batch_search(queries)]
        )
        assert batched == sequential
        assert 2 * batched_misses <= sequential_misses
        assert 3 * batched_misses <= 2 * sorted_misses


class TestSnapshotBatch:
    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_reads_each_page_version_once_per_batch(self, kind, monkeypatch):
        """An MVCC engine answers a batch through one snapshot traversal:
        each query exactly as ``search`` answers it, each page version
        looked up (and decoded) at most once for the whole batch."""
        tree = _make_index(kind, IndexConfig(), dataset_R1(2_000, seed=1991), DOMAIN_HIGH)
        queries = query_rectangles(1.0, 64, area=0.05 * DOMAIN_HIGH**2, seed=1992)
        with open_store(SimulatedDisk(), tree=tree, mvcc=True) as store:
            engine = store.engine
            expected = [engine.search(q) for q in queries]
            reads: list[int] = []
            read = PageVersionCache.read

            def counted(cache, page_id, epoch):
                reads.append(page_id)
                return read(cache, page_id, epoch)

            monkeypatch.setattr(PageVersionCache, "read", counted)
            assert engine.batch_search(queries) == expected
            assert 0 < len(reads) == len(set(reads)) <= tree.node_count()


# ---------------------------------------------------------------------------
# Deletion hint regression (satellite fix)
# ---------------------------------------------------------------------------
class TestDeleteHintFallback:
    def test_bad_hint_falls_back_to_full_scan(self, small_config):
        tree = RTree(small_config)
        rid = tree.insert(Rect((10.0, 10.0), (20.0, 20.0)))
        for i in range(150):
            tree.insert(Rect((float(i), float(i)), (i + 1.0, i + 1.0)))
        bad_hint = Rect((90_000.0, 90_000.0), (90_001.0, 90_001.0))
        assert tree.delete(rid, hint=bad_hint) == 1
        assert rid not in tree.search_ids(Rect((0.0, 0.0), (100.0, 100.0)))

    def test_bad_hint_on_spanning_fragments(self, small_config):
        tree = SRTree(small_config)
        for rect in random_segments(200, seed=29, long_fraction=0.0):
            tree.insert(rect)
        rid = tree.insert(Rect((0.0, 500.0), (100_000.0, 500.0)))
        fragments = tree.fragment_count(rid)
        assert fragments >= 1
        removed = tree.delete(rid, hint=Rect((0.0, 0.0), (1.0, 1.0)))
        assert removed == fragments
        check_index(tree)

    def test_unknown_record_with_hint_still_returns_zero(self):
        tree = RTree()
        tree.insert(Rect((0.0, 0.0), (1.0, 1.0)))
        assert tree.delete(999, hint=Rect((5.0, 5.0), (6.0, 6.0))) == 0

    def test_good_hint_still_prunes(self, small_config):
        tree = RTree(small_config)
        rects = random_boxes(300, seed=30)
        ids = [tree.insert(r) for r in rects]
        target = ids[7]
        before = tree.stats.node_accesses
        assert tree.delete(target, hint=rects[7]) == 1
        pruned = tree.stats.node_accesses - before
        assert pruned < tree.node_count()  # the hint skipped subtrees
