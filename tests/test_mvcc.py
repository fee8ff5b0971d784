"""MVCC snapshot reads: version cache, snapshot queries, latch-free bar.

Covers the copy-on-write machinery bottom-up:

* :class:`~repro.storage.buffer.PageVersionCache` unit behaviour —
  publish monotonicity, pin/unpin, the announced-floor protocol, trim
  vs. pinned snapshots, dead-chain reclamation, byte accounting.
* :class:`~repro.concurrency.mvcc.Snapshot` query equivalence against
  the live tree for every query kind.
* The engine-level acceptance bar: snapshot reads under write churn
  acquire **zero** read latches and emit **zero** read-side
  ``latch_wait`` events, and version GC stays live (one version per
  page once all snapshots close).
"""

import threading

import pytest

from repro import ConcurrentIndex, IndexConfig, Rect, SRTree
from repro.concurrency import Snapshot
from repro.concurrency.stress import STRESS_INDEX_TYPES, run_stress
from repro.exceptions import StorageError
from repro.obs import RingBufferSink, Tracer
from repro.storage import StorageManager
from repro.storage.buffer import PageVersionCache

from .conftest import random_segments

SMALL = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)


def _mvcc_stack(n=40, seed=7, tracer=None, config=SMALL):
    """Tree + manager + MVCC engine over ``n`` seeded segments."""
    rects = random_segments(n, seed=seed, long_fraction=0.2)
    tree = SRTree(config)
    rids = [tree.insert(r, payload=f"p{i}") for i, r in enumerate(rects)]
    manager = StorageManager(tree, buffer_bytes=64 * 1024, tracer=tracer)
    engine = ConcurrentIndex(tree, storage=manager, tracer=tracer, mvcc=True)
    return tree, manager, engine, rects, rids


# ---------------------------------------------------------------------------
# PageVersionCache unit behaviour
# ---------------------------------------------------------------------------
class TestPageVersionCache:
    def test_publish_requires_monotonic_epochs(self):
        cache = PageVersionCache()
        cache.publish(5, {1: b"aa"}, 1)
        with pytest.raises(StorageError):
            cache.publish(5, {1: b"bb"}, 1)
        with pytest.raises(StorageError):
            cache.publish(4, {1: b"bb"}, 1)
        cache.publish(6, {1: b"bb"}, 1)
        assert cache.latest.epoch == 6

    def test_read_walks_to_visible_version(self):
        cache = PageVersionCache()
        cache.publish(1, {1: b"v1", 2: b"w1"}, 1)
        cache.publish(3, {1: b"v3"}, 1)
        assert cache.read(1, 1).data == b"v1"
        assert cache.read(1, 2).data == b"v1"
        assert cache.read(1, 3).data == b"v3"
        assert cache.read(2, 3).data == b"w1"  # untouched page: old version
        assert cache.read(9, 3) is None  # never published
        assert cache.read(1, 0) is None  # before first publish

    def test_pin_before_any_commit_fails(self):
        with pytest.raises(StorageError):
            PageVersionCache().pin()

    def test_pin_unpin_idempotent(self):
        cache = PageVersionCache()
        cache.publish(1, {1: b"v1"}, 1)
        pin = cache.pin()
        assert pin.epoch == 1 and cache.pinned_epochs == [1]
        cache.unpin(pin)
        cache.unpin(pin)  # second release is a no-op
        assert cache.pinned_epochs == []
        assert cache.stats.snapshots_opened == 1
        assert cache.stats.snapshots_closed == 1

    def test_trim_respects_pinned_epoch(self):
        cache = PageVersionCache()
        cache.publish(1, {1: b"v1"}, 1)
        pin = cache.pin()
        cache.publish(2, {1: b"v2"}, 1)
        cache.publish(3, {1: b"v3"}, 1)
        assert cache.version_count == 3
        reclaimed, _ = cache.trim()
        # v1 is pinned; only v2 (above the pin, below latest) survives
        # as the keeper chain; v1 stays reachable for the pin.
        assert cache.read(1, pin.epoch).data == b"v1"
        assert cache.read(1, 3).data == b"v3"
        cache.unpin(pin)
        reclaimed2, freed = cache.trim()
        assert reclaimed + reclaimed2 == 2
        assert freed > 0
        assert cache.version_count == 1
        cache.verify_accounting()

    def test_mark_sweep_reclaims_condemned_chains(self):
        """A page dropped by a later commit vanishes once unpinned."""
        cache = PageVersionCache()
        cache.publish(1, {1: b"r1", 2: b"c1"}, 1)
        pin = cache.pin()
        # Commit 2 rewrites the root without page 2 and says so: the whole
        # chain of page 2 is dead from epoch 2, but the pin still sees it.
        cache.publish(2, {1: b"r2"}, 1, freed=[2])
        cache.trim()
        assert cache.read(2, pin.epoch).data == b"c1"
        cache.unpin(pin)
        cache.trim()
        assert cache.read(2, 2) is None
        assert cache.version_count == 1  # only the live root head
        cache.verify_accounting()

    def test_dead_pages_the_cache_never_saw_or_sees_again(self):
        cache = PageVersionCache()
        cache.publish(1, {1: b"r1", 2: b"c1"}, 1)
        cache.publish(2, {1: b"r2"}, 1, freed=[2, 9])  # 9: allocated and freed unpublished
        cache.trim()
        assert cache.chains == 1 and not cache._dead
        # The tree empties (root page 0 kills every chain) while a pin
        # holds the old root, then refills: the root's page comes back.
        pin = cache.pin()
        cache.publish(3, {}, 0)
        cache.trim()
        assert cache.read(1, pin.epoch).data == b"r2"
        cache.publish(4, {1: b"r4"}, 1)
        cache.unpin(pin)
        cache.trim()
        assert cache.read(1, 4).data == b"r4"
        assert cache.version_count == 1 and not cache._dead
        cache.verify_accounting()

    def test_announced_floor_blocks_stale_pin(self):
        """A pin racing a reclaimer retries instead of pinning freed state."""
        cache = PageVersionCache()
        cache.publish(1, {1: b"v1"}, 1)
        cache.publish(2, {1: b"v2"}, 1)
        # Simulate the reclaimer having announced its floor at the latest
        # epoch before the reader's pin lands.
        cache._announced_floor = 2
        pin = cache.pin()
        assert pin.epoch == 2  # never below the announced floor
        assert cache.stats.pin_retries == 0  # latest satisfied the floor
        cache.unpin(pin)

    def test_accounting_tracks_bytes_and_counts(self):
        cache = PageVersionCache()
        cache.publish(1, {1: b"aaaa", 2: b"bb"}, 1)
        cache.publish(2, {1: b"cccc"}, 1)
        assert cache.stats.versions_published == 3
        assert cache.stats.version_bytes == 10
        assert cache.stats.peak_version_bytes == 10
        cache.trim()
        assert cache.stats.versions_reclaimed == 1
        assert cache.stats.version_bytes == 6
        cache.verify_accounting()

    def test_commit_log_is_off_until_a_reader_arms_it(self):
        tree, manager, engine, rects, rids = _mvcc_stack(n=20)
        try:
            for i in range(100):
                rid = engine.insert(Rect((i, i), (i + 1.0, i + 1.0)), payload=i)
                engine.delete(rid)
            assert manager.versions.commit_log is None
            manager.versions.commit_log = []
            rid = engine.insert(rects[0], payload="noted")
            engine.delete(rid)
            assert [note for _, note in manager.versions.commit_log] == [
                ("insert", rid, rects[0], "noted"),
                ("delete", rid),
            ]
        finally:
            engine.detach()
            manager.detach()

    def test_commit_log_records_notes_in_epoch_order(self):
        cache = PageVersionCache()
        cache.commit_log = []
        cache.publish(1, {1: b"v1"}, 1, note=("insert", 1))
        cache.publish(2, {1: b"v2"}, 1)  # no note: not logged
        cache.publish(3, {1: b"v3"}, 1, note=("delete", 1))
        assert cache.commit_log == [(1, ("insert", 1)), (3, ("delete", 1))]


# ---------------------------------------------------------------------------
# Snapshot queries vs. the live tree
# ---------------------------------------------------------------------------
class TestSnapshotQueries:
    def test_snapshot_preserves_payloads(self):
        tree, manager, engine, rects, rids = _mvcc_stack(n=30)
        try:
            with engine.open_snapshot() as snap:
                hits = dict(snap.search(Rect((0.0, 0.0), (100_000.0, 100_000.0))))
                assert hits[rids[0]] == "p0"
                assert all(p.startswith("p") for p in hits.values())
        finally:
            engine.detach()
            manager.detach()

    def test_snapshot_is_stable_across_later_commits(self):
        tree, manager, engine, rects, rids = _mvcc_stack(n=40)
        try:
            everything = Rect((0.0, 0.0), (100_000.0, 100_000.0))
            snap = engine.open_snapshot()
            before = snap.search_ids(everything)
            new_ids = [
                engine.insert(
                    Rect((float(i), float(i)), (i + 1.0, i + 1.0)), payload="late"
                )
                for i in range(11)
            ]
            engine.delete(rids[0], hint=rects[0])
            # The pinned snapshot still answers from its epoch...
            assert snap.search_ids(everything) == before
            # ...while a fresh snapshot sees the new state.
            with engine.open_snapshot() as fresh:
                after = fresh.search_ids(everything)
            assert after == (before | set(new_ids)) - {rids[0]}
            snap.close()
        finally:
            engine.detach()
            manager.detach()

    def test_snapshot_of_empty_tree(self):
        tree = SRTree(SMALL)
        manager = StorageManager(tree, buffer_bytes=64 * 1024)
        engine = ConcurrentIndex(tree, storage=manager, mvcc=True)
        try:
            with engine.open_snapshot() as snap:
                assert snap.root_page == 0
                assert len(snap) == 0
                assert snap.search(Rect((0.0, 0.0), (1.0, 1.0))) == []
        finally:
            engine.detach()
            manager.detach()

    def test_search_within_fetches_the_pages_search_does(self, monkeypatch):
        """No census: a containment query reads the pages its rectangle
        meets, not the whole tree."""
        tree, manager, engine, rects, rids = _mvcc_stack(n=300)
        fetched = []
        image = Snapshot._image
        monkeypatch.setattr(
            Snapshot, "_image", lambda self, page: fetched.append(page) or image(self, page)
        )
        try:
            assert tree.node_count() > 50
            for q in (Rect((10_000.0, 10_000.0), (30_000.0, 30_000.0)), rects[0]):
                engine.search(q)
                for_search = len(fetched)
                engine.search_within(q)
                assert len(fetched) == 2 * for_search < tree.node_count()
                fetched.clear()
        finally:
            engine.detach()
            manager.detach()

    def test_open_snapshot_requires_mvcc_mode(self):
        tree = SRTree(SMALL)
        engine = ConcurrentIndex(tree)
        with pytest.raises(StorageError):
            engine.open_snapshot()
        with pytest.raises(StorageError):
            ConcurrentIndex(SRTree(SMALL), mvcc=True)  # no StorageManager


# ---------------------------------------------------------------------------
# The acceptance bar: latch-free reads + GC liveness under churn
# ---------------------------------------------------------------------------
class TestLatchFreeReads:
    def test_zero_read_latches_and_no_read_waits_under_churn(self):
        ring = RingBufferSink(capacity=200_000)
        tracer = Tracer(ring)
        tree, manager, engine, rects, rids = _mvcc_stack(n=50, tracer=tracer)
        try:
            everything = Rect((0.0, 0.0), (100_000.0, 100_000.0))
            stop = threading.Event()
            errors = []

            def churn():
                i = 0
                while not stop.is_set():
                    try:
                        rid = engine.insert(Rect((i % 97, 0.0), (i % 97 + 1.0, 1.0)))
                        if i % 3 == 0:
                            engine.delete(rid)
                    except Exception as exc:  # pragma: no cover - fail loudly
                        errors.append(exc)
                        return
                    i += 1

            writer = threading.Thread(target=churn)
            writer.start()
            try:
                for _ in range(120):
                    with engine.open_snapshot() as snap:
                        snap.search_ids(everything)
            finally:
                stop.set()
                writer.join(timeout=30.0)
            assert not errors
            stats = engine.contention_snapshot()
            assert stats["snapshot_reads"] == 0  # open_snapshot is direct
            assert stats["read_acquires"] == 0
            assert stats["read_waits"] == 0
            read_waits = [
                e
                for e in ring
                if e.etype == "latch_wait" and e.fields["mode"] == "read"
            ]
            assert read_waits == []
            opens = sum(1 for e in ring if e.etype == "snapshot_open")
            closes = sum(1 for e in ring if e.etype == "snapshot_close")
            assert opens == closes == 120
        finally:
            engine.detach()
            manager.detach()

    def test_version_gc_stays_live(self):
        """After churn + GC with no snapshots open: one version per page."""
        tree, manager, engine, rects, rids = _mvcc_stack(n=30)
        try:
            for i in range(80):
                rid = engine.insert(Rect((i, i), (i + 0.5, i + 0.5)))
                if i % 2:
                    engine.delete(rid)
            reclaimed, freed = engine.run_version_gc()
            cache = manager.versions
            cache.verify_accounting()
            assert cache.pinned_epochs == []
            assert cache.version_count == cache.chains
            assert cache.chains == tree.node_count()
            assert cache.stats.gc_runs > 0
        finally:
            engine.detach()
            manager.detach()

    def test_version_gc_event_emitted(self):
        ring = RingBufferSink(capacity=50_000)
        tracer = Tracer(ring)
        tree, manager, engine, rects, rids = _mvcc_stack(n=20, tracer=tracer)
        try:
            for i in range(10):
                engine.insert(Rect((i, i), (i + 1.0, i + 1.0)))
            engine.run_version_gc()
            gcs = [e for e in ring if e.etype == "version_gc"]
            assert gcs, "version_gc events must be traced"
            assert all(e.fields["reclaimed_versions"] >= 0 for e in gcs)
        finally:
            engine.detach()
            manager.detach()


# ---------------------------------------------------------------------------
# Tier-1 smoke: the stress harness's MVCC invariant battery, all variants
# ---------------------------------------------------------------------------
class TestMvccStressSmoke:
    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_stress_mvcc_battery(self, kind):
        result = run_stress(
            kind,
            seed=3,
            readers=2,
            writers=2,
            ops_per_thread=40,
            initial_records=120,
            mvcc=True,
        )
        assert result.searches > 0
        assert result.contention["snapshot_reads"] > 0
        # The acceptance bar, re-asserted from the outside (run_stress
        # already raises on violation): a latch-free read path.
        assert result.contention["read_acquires"] == 0
        assert result.contention["read_waits"] == 0
        versions = result.contention["versions"]
        assert versions["versions_published"] > 0
        assert versions["snapshots_opened"] == versions["snapshots_closed"]
