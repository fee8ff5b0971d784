"""Concurrent serving engine: latches, thread-safe wrappers, stress runs."""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import IndexConfig, Rect, SRTree, open_store
from repro.concurrency import ConcurrentIndex, RWLatch
from repro.concurrency.stress import STRESS_INDEX_TYPES, _make_index, run_stress
from repro.exceptions import ConcurrencyError, StorageError
from repro.storage import BufferPool, FileDisk, LatencyDisk, SimulatedDisk, StorageManager
from repro.workloads import DOMAIN_HIGH, dataset_I3, dataset_R1, query_rectangles

_TINY = IndexConfig(leaf_node_bytes=200, entry_bytes=40, coalesce_interval=25)


class TestRWLatch:
    def test_readers_share(self):
        latch = RWLatch()
        latch.acquire_read()
        latch.acquire_read()  # second reader never blocks
        latch.release_read()
        latch.release_read()
        assert latch.stats.read_acquires == 2
        assert latch.stats.read_waits == 0

    def test_writer_excludes_readers(self):
        latch = RWLatch()
        latch.acquire_write()
        got_in = threading.Event()

        def reader():
            latch.acquire_read()
            got_in.set()
            latch.release_read()

        t = threading.Thread(target=reader)
        t.start()
        assert not got_in.wait(timeout=0.1)  # blocked behind the writer
        latch.release_write()
        assert got_in.wait(timeout=5.0)
        t.join(timeout=5.0)
        assert latch.stats.read_waits == 1
        assert latch.stats.wait_seconds > 0.0

    def test_waiting_writer_blocks_new_readers(self):
        latch = RWLatch()
        latch.acquire_read()
        writer_in = threading.Event()
        reader_in = threading.Event()

        def writer():
            latch.acquire_write()
            writer_in.set()
            latch.release_write()

        def late_reader():
            latch.acquire_read()
            reader_in.set()
            latch.release_read()

        wt = threading.Thread(target=writer)
        wt.start()
        time.sleep(0.05)  # let the writer start waiting
        rt = threading.Thread(target=late_reader)
        rt.start()
        # Writer preference: the late reader must queue behind the writer.
        assert not reader_in.wait(timeout=0.1)
        assert not writer_in.is_set()
        latch.release_read()
        wt.join(timeout=5.0)
        rt.join(timeout=5.0)
        assert writer_in.is_set() and reader_in.is_set()

    def test_unbalanced_release_read_raises(self):
        with pytest.raises(ConcurrencyError):
            RWLatch().release_read()

    def test_release_write_by_non_holder_raises(self):
        latch = RWLatch()
        with pytest.raises(ConcurrencyError):
            latch.release_write()

    def test_write_not_reentrant(self):
        latch = RWLatch()
        latch.acquire_write()
        with pytest.raises(ConcurrencyError):
            latch.acquire_write()
        latch.release_write()

    def test_context_managers(self):
        latch = RWLatch()
        with latch.read():
            pass
        with latch.write():
            pass
        assert latch.stats.read_acquires == 1
        assert latch.stats.write_acquires == 1

    def test_uncontended_reads_are_counted_exactly(self):
        # The shared side's fast path counts under the latch's mutex:
        # concurrent readers lose no increment and record no wait.  A short
        # switch interval makes an unguarded increment lose counts.
        latch = RWLatch()
        threads, reads = 4, 5_000

        def read_loop():
            for _ in range(reads):
                latch.acquire_read()
                latch.release_read()

        workers = [threading.Thread(target=read_loop) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        snap = latch.stats.snapshot()
        assert snap["read_acquires"] == threads * reads
        assert snap["contended_acquires"] == 0
        assert latch._readers == 0

    def test_an_enabled_tracer_sees_every_read(self):
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        latch = RWLatch("index", tracer=Tracer(ring))
        for _ in range(25):
            with latch.read():
                pass
        grants = [e.fields for e in ring if e.etype == "latch_acquire"]
        assert len(grants) == 25
        assert all((g["mode"], g["waited"]) == ("read", False) for g in grants)

    def test_an_installed_recorder_sees_every_read(self):
        from repro.obs.lockgraph import LockOrderRecorder, recording

        calls = []

        class Logging(LockOrderRecorder):
            def record_attempt(self, level, mode, obj):
                calls.append(("attempt", level, mode))
                super().record_attempt(level, mode, obj)

            def record_acquired(self, level, mode, obj):
                calls.append(("acquired", level, mode))
                super().record_acquired(level, mode, obj)

            def record_release(self, level, obj):
                calls.append(("release", level))
                super().record_release(level, obj)

        latch = RWLatch("index")
        recorder = Logging()
        with recording(recorder):
            for _ in range(25):
                latch.acquire_read()
                latch.release_read()
        assert calls == [
            ("attempt", "index", "read"), ("acquired", "index", "read"), ("release", "index")
        ] * 25
        assert recorder.acquisitions == latch.stats.read_acquires == 25


def _populated(n=200, seed=7):
    import random

    rng = random.Random(seed)
    tree = SRTree(_TINY)
    rects = []
    for _ in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        r = Rect((x, y), (x + rng.uniform(0, 5), y + rng.uniform(0, 5)))
        tree.insert(r)
        rects.append(r)
    return tree, rects


class TestConcurrentIndex:
    def test_matches_sequential_results(self):
        tree, rects = _populated()
        reference = [tree.search_ids(r) for r in rects[:50]]
        index = ConcurrentIndex(tree)
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(index.search_ids, rects[:50]))
        assert got == reference
        assert index.contention_snapshot()["read_acquires"] == 50

    def test_concurrent_inserts_all_land(self):
        index = ConcurrentIndex(SRTree(_TINY))

        def insert_block(base):
            return [
                index.insert(Rect((base + i, 0.0), (base + i + 1.0, 1.0)))
                for i in range(25)
            ]

        with ThreadPoolExecutor(max_workers=4) as pool:
            ids = [rid for block in pool.map(insert_block, range(0, 400, 100)) for rid in block]
        assert len(set(ids)) == 100  # no duplicated record ids
        assert len(index) == 100

    def test_pessimistic_mode_matches(self):
        # ``pessimistic_reads`` and ``optimistic_retries`` are kept in the
        # contention snapshot for a frozen reader of it (perf/layers.py):
        # every read is a latched one, and none is retried.
        tree, rects = _populated()
        index = ConcurrentIndex(tree)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(index.search_ids, rects[:20]))
        snap = index.contention_snapshot()
        assert snap["pessimistic_reads"] == snap["read_acquires"] == 20
        assert snap["optimistic_retries"] == 0

    def test_detach_restores_plain_tree(self):
        # The engine installs nothing on the tree, so there is nothing to
        # restore: the tree is the same plain tree throughout.
        tree, _ = _populated(n=20)
        before = dict(vars(tree))
        index = ConcurrentIndex(tree)
        assert vars(tree) == before
        index.detach()
        assert vars(tree) == before
        assert not hasattr(tree, "_latch_hook")

    @pytest.mark.parametrize("n", [5, 200])  # height 1 and a taller tree
    def test_pessimistic_read_takes_one_latch(self, n):
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        tree, _ = _populated(n=n)
        index = ConcurrentIndex(tree, tracer=Tracer(ring))
        index.search(Rect((0.0, 0.0), (110.0, 110.0)))  # visits every node
        assert index.contention_snapshot()["read_acquires"] == 1
        grants = [e.fields for e in ring if e.etype == "latch_acquire"]
        assert [(g["latch"], g["mode"]) for g in grants] == [("index", "read")]

    def test_an_answered_read_is_counted_once(self):
        # One reader beside a churn writer: each answered read settles its
        # searches, node accesses and page touches once, so the tree's
        # counts and the pool's agree with the reads issued.  One reader,
        # because the tree's counters are not synchronized across readers.
        import random

        from repro import open_store

        tree, rects = _populated(n=400)
        store = open_store(SimulatedDisk(), tree=tree, buffer_bytes=1 << 20)
        engine, pool = store.engine, store.manager.pool
        stop = threading.Event()

        def churn():
            rng = random.Random(3)
            while not stop.is_set():
                rect = Rect((rng.uniform(0, 100),) * 2, (100.0, 100.0))
                engine.delete(engine.insert(rect), hint=rect)

        writer = threading.Thread(target=churn)
        interval = sys.getswitchinterval()
        searches, accesses = tree.stats.searches, tree.stats.node_accesses
        touches = pool.stats.accesses
        sys.setswitchinterval(1e-5)
        writer.start()
        try:
            reads = 0
            for _ in range(5):
                for rect in rects:
                    engine.search(rect)
                    reads += 1
        finally:
            stop.set()
            writer.join(timeout=30.0)
            sys.setswitchinterval(interval)
            store.close()
        assert engine.writes > 0
        assert tree.stats.searches - searches == reads
        assert pool.stats.accesses - touches == tree.stats.node_accesses - accesses

    def test_contention_snapshot_keys(self):
        index = ConcurrentIndex(SRTree(_TINY))
        index.insert(Rect((0.0, 0.0), (1.0, 1.0)))
        index.search(Rect((0.0, 0.0), (2.0, 2.0)))
        snap = index.contention_snapshot()
        for key in (
            "read_acquires", "write_acquires", "contended_acquires",
            "optimistic_retries", "pessimistic_reads", "writes",
        ):
            assert key in snap
        assert snap["writes"] == 1


class TestLatchTraceEvents:
    def test_latch_events_pass_schema(self):
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        tracer = Tracer(ring)
        tree, rects = _populated(n=60)
        index = ConcurrentIndex(tree, tracer=tracer)
        index.search(rects[0])  # the shared index latch
        index.insert(Rect((0.0, 0.0), (1.0, 1.0)))
        etypes = {e.etype for e in ring}
        assert "latch_acquire" in etypes  # schema-validated by the Tracer
        modes = {e.fields["mode"] for e in ring if e.etype == "latch_acquire"}
        assert modes == {"read", "write"}

    def test_contended_wait_emits_event(self):
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        latch = RWLatch("index", tracer=Tracer(ring))
        latch.acquire_write()
        t = threading.Thread(target=lambda: (latch.acquire_read(), latch.release_read()))
        t.start()
        time.sleep(0.05)
        latch.release_write()
        t.join(timeout=5.0)
        waits = [e for e in ring if e.etype == "latch_wait"]
        assert len(waits) == 1
        assert waits[0].fields["mode"] == "read"


class TestStressHarness:
    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_all_variants_survive(self, kind):
        result = run_stress(
            kind, seed=11, readers=2, writers=2, ops_per_thread=30,
            initial_records=80, config=_TINY,
        )
        assert result.inserts > 0 and result.searches > 0
        assert result.live_records == 80 + result.inserts - result.deletes
        # Every read, a batch included, is one shared acquisition.
        reads = result.searches + result.batch_searches
        assert result.contention["read_acquires"] == reads

    def test_with_buffer_pool_accounting(self):
        result = run_stress(
            "SR-Tree", seed=5, readers=2, writers=1, ops_per_thread=30,
            initial_records=60, config=_TINY, buffer_bytes=16 * 1024,
        )
        assert result.buffer  # pool stats captured after verify_accounting
        assert result.buffer["misses"] > 0

    def test_pessimistic_path(self):
        # Every read of the stress workload takes the shared index latch.
        result = run_stress(
            "SR-Tree", seed=3, readers=3, writers=1, ops_per_thread=30,
            initial_records=60, config=_TINY,
        )
        assert result.contention["pessimistic_reads"] > 0
        assert (
            result.contention["read_acquires"]
            == result.contention["pessimistic_reads"]
        )


class TestThreadHarness:
    """``_run_threads``: the one start/join/re-raise scaffold under all
    three stress workloads."""

    def test_first_worker_exception_is_reraised(self):
        from repro.concurrency.stress import _run_threads

        def boom():
            raise StorageError("worker failed")

        with pytest.raises(StorageError, match="worker failed"):
            _run_threads([lambda: None, boom], what="fixture")

    def test_stuck_worker_fails_instead_of_hanging(self):
        from repro.concurrency.stress import _run_threads

        release = threading.Event()
        try:
            with pytest.raises(ConcurrencyError, match="fixture worker failed to finish"):
                _run_threads(
                    [lambda: None, release.wait], what="fixture", join_timeout=0.2
                )
        finally:
            release.set()

    def test_returns_elapsed_seconds(self):
        from repro.concurrency.stress import _run_threads

        assert _run_threads([lambda: time.sleep(0.02)], what="fixture") >= 0.02


def _wait_until(pred, timeout=5.0, interval=0.005):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if pred():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


class TestLatchStatsConsistency:
    """Snapshots taken while the latch is hammered must be self-consistent."""

    def test_snapshot_consistent_under_concurrent_traffic(self):
        latch = RWLatch()
        stats = latch.stats
        stop = threading.Event()
        per_thread = 300
        readers, writers = 3, 2

        def read_loop():
            for _ in range(per_thread):
                with latch.read():
                    pass

        def write_loop():
            for _ in range(per_thread):
                with latch.write():
                    pass

        snapshots = []

        def snapshot_loop():
            while not stop.is_set():
                snapshots.append(stats.snapshot())

        threads = [threading.Thread(target=read_loop) for _ in range(readers)]
        threads += [threading.Thread(target=write_loop) for _ in range(writers)]
        sampler = threading.Thread(target=snapshot_loop)
        sampler.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        sampler.join()

        # Every mid-flight snapshot is internally consistent: the derived
        # counter matches its parts, nothing exceeds the final totals,
        # and waits never exceed acquires of the same mode.
        final = stats.snapshot()
        for snap in snapshots + [final]:
            assert snap["contended_acquires"] == snap["read_waits"] + snap["write_waits"]
            assert 0 <= snap["read_waits"] <= snap["read_acquires"] <= final["read_acquires"]
            assert 0 <= snap["write_waits"] <= snap["write_acquires"] <= final["write_acquires"]
            assert snap["wait_seconds"] >= 0.0
        assert final["read_acquires"] == readers * per_thread
        assert final["write_acquires"] == writers * per_thread

    def test_snapshot_series_is_monotonic(self):
        latch = RWLatch()
        stats = latch.stats
        series = []
        for _ in range(5):
            with latch.read():
                pass
            with latch.write():
                pass
            series.append(stats.snapshot())
        for prev, cur in zip(series, series[1:]):
            for key in ("read_acquires", "write_acquires", "read_waits",
                        "write_waits", "contended_acquires"):
                assert cur[key] >= prev[key]
            assert cur["wait_seconds"] >= prev["wait_seconds"]


class TestStallingPoolReads:
    """Latched readers over a cold pool whose misses sleep: a stall
    releases the interpreter lock, so reads overlap inside the miss path."""

    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_four_readers_answer_like_the_unpaged_tree(self, kind):
        tree = _make_index(kind, IndexConfig(), dataset_R1(2_000, seed=1991), DOMAIN_HIGH)
        queries = query_rectangles(1.0, 48, area=0.02 * DOMAIN_HIGH**2, seed=1992)
        expected = [tree.search_ids(q) for q in queries]
        disk = LatencyDisk(read_delay=0.0002)
        with open_store(disk, tree=tree, buffer_bytes=32 * 1024) as store:
            with ThreadPoolExecutor(max_workers=4) as readers:
                got = list(readers.map(store.engine.search_ids, queries))
        assert got == expected
        assert store.manager.pool.stats.misses > 0


class TestBufferPoolRaces:
    """Deterministic regressions for the in-flight read and drop races and
    the access hook's unlocked page-table probe."""

    @staticmethod
    def _disk(pages=2, size=64):
        disk = SimulatedDisk()
        for pid in range(1, pages + 1):
            disk.allocate(pid, size)
        return disk

    def test_no_duplicate_read_while_pin_waiting(self):
        # Thread A misses page 2 and blocks inside its unlatched disk read;
        # thread B reads page 2 meanwhile.  B must wait on A's in-flight
        # read — not issue a second disk read and insert a frame over A's.
        disk = self._disk(pages=2, size=64)
        disk.write_page(2, b"p" * 64)
        reads: dict[int, int] = {}
        started = threading.Event()
        unblock = threading.Event()
        orig_read = disk.read_page

        def gated_read(page_id):
            reads[page_id] = reads.get(page_id, 0) + 1
            if page_id == 2:
                started.set()
                assert unblock.wait(timeout=10.0)
            return orig_read(page_id)

        disk.read_page = gated_read
        pool = BufferPool(disk, capacity_bytes=64)
        pool.touch(1)  # the pool is full: A's install must evict page 1

        images: dict[str, bytes] = {}
        errors: list[BaseException] = []

        def reader(name):
            try:
                images[name] = pool.read(2)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        a = threading.Thread(target=reader, args=("a",))
        a.start()
        assert started.wait(timeout=10.0)
        b = threading.Thread(target=reader, args=("b",))
        b.start()
        _wait_until(lambda: pool.stats.load_waits >= 1)
        unblock.set()
        a.join(timeout=15.0)
        b.join(timeout=15.0)
        assert not a.is_alive() and not b.is_alive()
        assert errors == []
        assert images == {"a": b"p" * 64, "b": b"p" * 64}
        assert reads.get(2) == 1  # no duplicate disk read
        assert list(pool._frames) == [2]  # one frame, page 1 evicted once
        assert (pool.stats.misses, pool.stats.hits, pool.stats.evictions) == (2, 1, 1)
        pool.verify_accounting()

    def test_drop_invalidates_inflight_load(self):
        # drop() of a page whose unlatched disk read is in flight must not
        # let the loader resurrect the dropped page in the pool.
        disk = self._disk(pages=2, size=64)
        started = threading.Event()
        unblock = threading.Event()
        orig_read = disk.read_page

        def gated_read(page_id):
            if page_id == 2:
                started.set()
                assert unblock.wait(timeout=10.0)
            return orig_read(page_id)

        disk.read_page = gated_read
        pool = BufferPool(disk, capacity_bytes=256)

        errors: list[BaseException] = []

        def fetcher():
            try:
                pool.read(2)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        f = threading.Thread(target=fetcher)
        f.start()
        assert started.wait(timeout=10.0)
        pool.drop(2)  # read in flight: must invalidate, not no-op
        unblock.set()
        f.join(timeout=15.0)
        assert not f.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], StorageError)
        assert pool.resident_pages == 0  # dropped page was not resurrected
        pool.verify_accounting()
        # The invalidation is one-shot: a later read works normally.
        assert pool.read(2) == b"\x00" * 64
        assert pool.resident_pages == 1
        pool.verify_accounting()

    def test_page_id_is_published_only_once_allocated(self):
        # The access hook probes the node->page table without the lock.
        # Without a WAL a node born in a split gets its page on its first
        # read: a second reader arriving while the first is still inside
        # disk.allocate must not find the id and read a page that is not
        # there yet.
        tree = SRTree(_TINY)
        disk = SimulatedDisk()
        mgr = StorageManager(tree, disk=disk)
        for i in range(40):
            tree.insert(Rect((float(i), float(i)), (i + 1.0, i + 1.0)), i)
        node = next(n for n in tree.iter_nodes() if n.node_id not in mgr._page_of)
        started = threading.Event()
        unblock = threading.Event()
        allocated: list[int] = []
        orig_allocate = disk.allocate

        def gated_allocate(page_id, size):
            allocated.append(page_id)
            started.set()
            assert unblock.wait(timeout=10.0)
            orig_allocate(page_id, size)

        disk.allocate = gated_allocate
        errors: list[BaseException] = []

        def reader():
            try:
                mgr._on_access([node])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        a = threading.Thread(target=reader)
        a.start()
        assert started.wait(timeout=10.0)
        b = threading.Thread(target=reader)
        b.start()
        b.join(timeout=0.2)  # an early id sends b straight to a failed read
        assert b.is_alive() and errors == []
        unblock.set()
        a.join(timeout=15.0)
        b.join(timeout=15.0)
        assert not a.is_alive() and not b.is_alive()
        assert errors == []
        assert allocated == [mgr._page_of[node.node_id]]  # one page, not two
        assert (mgr.pool.stats.accesses, mgr.pool.stats.misses) == (2, 1)
        mgr.pool.verify_accounting()


@pytest.mark.stress
class TestHeavyStress:
    """The CI race harness: bigger interleavings, seed from the matrix."""

    SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))

    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_heavy_mixed_workload(self, kind):
        run_stress(
            kind, seed=self.SEED, readers=4, writers=2, ops_per_thread=150,
            initial_records=400,
        )

    def test_heavy_with_storage(self):
        run_stress(
            "SR-Tree", seed=self.SEED, readers=4, writers=2,
            ops_per_thread=120, initial_records=300, buffer_bytes=32 * 1024,
        )

    def test_concurrent_misses_on_a_spilling_file_pool(self, tmp_path):
        """perf/README.md finding 2: readers of one ``FileDisk`` behind a
        pool far smaller than the tree.  Every miss reads the shared
        handle outside the pool's mutex; an interleaved seek and read
        used to surface as a short read or a CRC failure."""
        from repro.concurrency.stress import _run_threads

        tree = SRTree()
        for i, rect in enumerate(dataset_I3(8000, 1 + self.SEED)):
            tree.insert(rect, i)
        disk = FileDisk(tmp_path / "pages.dat")
        manager = StorageManager(tree, buffer_bytes=64 * 1024, disk=disk)
        manager.checkpoint()
        engine = ConcurrentIndex(tree, storage=manager)
        queries = query_rectangles(1.0, 8000, 1e5, seed=2 + self.SEED)
        pool = manager.pool
        # Nothing on the access path looks at the bytes it loads, so a
        # torn read of a same-sized page would pass unseen: compare each
        # against what a lone reader sees.
        on_disk = {pid: disk.read_page(pid) for pid in disk.page_ids()}
        read_page = disk.read_page

        def checked_read(page_id):
            data = read_page(page_id)
            assert data == on_disk[page_id], f"torn read of page {page_id}"
            return data

        disk.read_page = checked_read
        before = (pool.stats.accesses, pool.stats.misses, disk.stats.reads)
        readers = 4  # more than the runner's cores

        def reader(mine):
            return lambda: [engine.search(q) for q in mine]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(
                [reader(queries[i::readers]) for i in range(readers)],
                what="spill-reader", join_timeout=120.0,
            )
        finally:
            sys.setswitchinterval(interval)
            engine.detach()
            manager.detach()
            disk.close()
        # Balanced: nothing in flight, and one disk read
        # per counted miss (a waiter on another thread's load reads none).
        pool.verify_accounting()
        assert not pool._loading and not pool._dropped_while_loading
        misses = pool.stats.misses - before[1]
        assert misses == disk.stats.reads - before[2]
        assert misses > 0.2 * (pool.stats.accesses - before[0]), "the pool must spill"
