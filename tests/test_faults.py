"""Fault injection, page integrity, retries, atomic checkpoints, recovery.

The whole module carries the ``faults`` marker so CI can run it across a
seed matrix (``REPRO_FAULT_SEED``) separately from the tier-1 sweep.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, SRTree, check_index
from repro.exceptions import (
    PageCorruptionError,
    SimulatedCrashError,
    StorageError,
    TransientDiskError,
)
from repro.obs import Tracer
from repro.storage import (
    BufferPool,
    Fault,
    FaultInjectingDisk,
    FileDisk,
    RetryPolicy,
    SimulatedDisk,
    StorageManager,
    recover_tree,
    verify_page,
)

from .conftest import random_segments

pytestmark = pytest.mark.faults

#: CI sweeps this to exercise different deterministic fault schedules.
BASE_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def build_tree(n=150, seed=None, config=None):
    from repro import IndexConfig

    tree = SRTree(config or IndexConfig(leaf_node_bytes=256, coalesce_interval=0))
    for rect in random_segments(n, seed=BASE_SEED * 1000 + (seed or 17), long_fraction=0.2):
        tree.insert(rect, payload=f"p{len(tree)}")
    return tree


def sample_queries(count=12, seed=3):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
        out.append(Rect((cx, cy), (cx + 8000, cy + 8000)))
    return out


def no_sleep_policy(record=None):
    return RetryPolicy(
        max_attempts=4,
        backoff_base=0.01,
        sleep=(record.append if record is not None else (lambda d: None)),
    )


class TestFaultInjectingDisk:
    def test_transient_fault_at_count_is_deterministic(self):
        for _ in range(2):  # same seed, same schedule
            disk = FaultInjectingDisk(
                SimulatedDisk(), [Fault("transient", op="read", at=2)], seed=BASE_SEED
            )
            disk.allocate(1, 32)
            disk.write_page(1, b"a" * 32)
            assert disk.read_page(1) == b"a" * 32
            with pytest.raises(TransientDiskError):
                disk.read_page(1)
            assert disk.read_page(1) == b"a" * 32  # transient: next try succeeds
            assert disk.fault_stats.injected == 1
            assert disk.stats.transient_errors == 1

    def test_probabilistic_faults_seeded(self):
        def run(seed):
            disk = FaultInjectingDisk(
                SimulatedDisk(), [Fault("transient", op="read", probability=0.5)], seed=seed
            )
            disk.allocate(1, 16)
            disk.write_page(1, b"b" * 16)
            outcomes = []
            for _ in range(20):
                try:
                    disk.read_page(1)
                    outcomes.append(True)
                except TransientDiskError:
                    outcomes.append(False)
            return outcomes

        assert run(5) == run(5)  # deterministic
        assert not all(run(5))  # but faults do fire

    def test_bit_flip_is_silent_on_disk(self):
        disk = FaultInjectingDisk(
            SimulatedDisk(), [Fault("bit_flip", op="write", at=1)], seed=BASE_SEED
        )
        disk.allocate(1, 64)
        disk.write_page(1, b"c" * 64)  # silently corrupted
        assert disk.fault_stats.by_kind == {"bit_flip": 1}
        data = disk.read_page(1)
        assert data != b"c" * 64
        assert sum(bin(a ^ b).count("1") for a, b in zip(data, b"c" * 64)) == 1

    def test_crash_kills_the_disk(self):
        disk = FaultInjectingDisk(
            SimulatedDisk(), [Fault("crash", op="write", at=2)], seed=BASE_SEED
        )
        disk.allocate(1, 16)
        disk.write_page(1, b"d" * 16)
        with pytest.raises(SimulatedCrashError):
            disk.write_page(1, b"e" * 16)
        with pytest.raises(SimulatedCrashError):
            disk.read_page(1)  # everything after the crash fails too

    def test_fault_events_reach_tracer(self):
        tracer = Tracer()
        disk = FaultInjectingDisk(
            SimulatedDisk(),
            [Fault("transient", op="read", at=1)],
            seed=BASE_SEED,
            tracer=tracer,
        )
        disk.allocate(1, 16)
        with pytest.raises(TransientDiskError):
            disk.read_page(1)
        events = [e for e in tracer.events if e.etype == "fault_injected"]
        assert len(events) == 1
        assert events[0].fields["kind"] == "transient"
        assert events[0].fields["page_id"] == 1

    def test_deallocate_routed_through_fault_machinery(self):
        # Regression: deallocate used to bypass _select/_inject entirely
        # (only honouring self.crashed), so deallocation boundaries could
        # never fault and were invisible to op accounting.
        disk = FaultInjectingDisk(
            SimulatedDisk(),
            [Fault("transient", op="deallocate", at=1)],
            seed=BASE_SEED,
        )
        disk.allocate(1, 16)
        with pytest.raises(TransientDiskError):
            disk.deallocate(1)
        assert disk.page_size(1) == 16  # transient: nothing happened
        disk.deallocate(1)  # retry goes through
        assert disk.page_ids() == []
        assert disk.fault_stats.by_kind == {"transient": 1}
        assert disk.op_counts["deallocate"] == 2

    def test_deallocate_crash_kills_the_disk(self):
        disk = FaultInjectingDisk(
            SimulatedDisk(), [Fault("crash", op="deallocate", at=2)], seed=BASE_SEED
        )
        disk.allocate(1, 16)
        disk.allocate(2, 16)
        disk.deallocate(1)
        with pytest.raises(SimulatedCrashError):
            disk.deallocate(2)
        with pytest.raises(SimulatedCrashError):
            disk.read_page(2)  # everything after the crash fails too

    def test_wrapper_is_interface_transparent(self, tmp_path):
        disk = FaultInjectingDisk(FileDisk(tmp_path / "p.db"), seed=BASE_SEED)
        disk.allocate(3, 32)
        disk.write_page(3, b"z" * 32)
        assert disk.page_size(3) == 32
        assert disk.page_ids() == [3]
        assert disk.allocated_pages == 1
        disk.sync()
        assert disk.generation == 1  # delegated to the FileDisk
        disk.close()


class TestRetries:
    def test_manager_retries_transient_reads(self):
        tree = build_tree(80)
        delays = []
        faulty = FaultInjectingDisk(
            SimulatedDisk(), [Fault("transient", op="read", probability=0.25)],
            seed=BASE_SEED,
        )
        policy = no_sleep_policy(delays)
        # With ~27 disk reads: p=0.25 makes "no fault fires at all" ~4e-4
        # and 8 attempts make exhaustion ~0.25**7 per read — both
        # negligible for every seed in the CI matrix.
        policy.max_attempts = 8
        mgr = StorageManager(
            tree, buffer_bytes=4 * 1024, disk=faulty, retry_policy=policy
        )
        mgr.checkpoint()
        for q in sample_queries():
            tree.search(q)
        summary = mgr.io_summary()
        assert summary["transient_errors"] > 0
        assert summary["retries"] == summary["transient_errors"]  # all recovered
        assert summary["failed_ops"] == 0
        assert len(delays) == summary["retries"]
        assert all(d > 0 for d in delays)
        # Exponential backoff: a second attempt always waits longer.
        assert delays[0] == pytest.approx(0.01)

    def test_retries_exhaust_to_failure(self):
        tree = build_tree(60)
        faulty = FaultInjectingDisk(
            SimulatedDisk(), [Fault("transient", op="write", probability=1.0)],
            seed=BASE_SEED,
        )
        mgr = StorageManager(
            tree, buffer_bytes=64 * 1024, disk=faulty, retry_policy=no_sleep_policy()
        )
        with pytest.raises(TransientDiskError):
            mgr.checkpoint()
        assert faulty.stats.failed_ops == 1
        assert faulty.stats.retries == mgr.retry.max_attempts - 1

    def test_eviction_writeback_failure_keeps_dirty_page(self):
        # Regression: _make_room used to pop the victim frame *before*
        # writing it back, so a transient write fault during eviction
        # discarded the dirty data and leaked resident_bytes forever.
        faulty = FaultInjectingDisk(
            SimulatedDisk(), [Fault("transient", op="write", at=1)], seed=BASE_SEED
        )
        faulty.allocate(1, 512)
        faulty.allocate(2, 512)
        pool = BufferPool(faulty, capacity_bytes=512)
        dirty, following = b"dirty!".ljust(512, b"\0"), b"next".ljust(512, b"\0")
        pool.write(1, dirty)
        with pytest.raises(TransientDiskError):
            pool.write(2, following)  # evicting page 1 hits the injected write fault
        # The dirty victim must survive the failed writeback, and the
        # byte accounting must still match what is actually resident.
        assert pool.resident_pages == 1
        assert pool.resident_bytes == 512
        assert pool._frames[1].dirty
        pool.write(2, following)  # retry: writeback succeeds, eviction completes
        assert faulty.read_page(1)[:6] == b"dirty!"
        assert 1 not in pool._frames
        assert pool.resident_bytes == 512
        assert pool._frames[2].dirty and pool.read(2)[:4] == b"next"
        pool.verify_accounting()

    def test_checkpoint_survives_transient_write_faults_under_eviction(self, tmp_path):
        # End-to-end regression for the same bug: with a buffer small
        # enough to force eviction during checkpoint, a transient write
        # fault used to silently drop the evicted page, so flush() never
        # rewrote it and sync() committed a checkpoint with a stale or
        # blank page.  The recovered store must round-trip exactly.
        path = str(tmp_path / "evict.db")
        tree = build_tree(120)
        policy = no_sleep_policy()
        policy.max_attempts = 10
        faulty = FaultInjectingDisk(
            FileDisk(path),
            [Fault("transient", op="write", probability=0.2)],
            seed=BASE_SEED,
        )
        mgr = StorageManager(
            tree, buffer_bytes=2 * 1024, disk=faulty, retry_policy=policy
        )
        mgr.checkpoint()
        summary = mgr.io_summary()
        assert summary["evictions"] > 0  # the buffer really was under pressure
        assert summary["transient_errors"] > 0
        assert summary["failed_ops"] == 0
        assert mgr.pool.resident_bytes == sum(
            f.size for f in mgr.pool._frames.values()
        )  # no capacity leak
        expected = {i: tree.search_ids(q) for i, q in enumerate(sample_queries())}
        faulty.close()
        recovered = FileDisk(path)
        try:
            for page_id in recovered.page_ids():
                data = recovered.read_page(page_id)
                if data.count(0) != len(data):
                    verify_page(data, page_id)  # no stale/blank committed pages
            clone, _ = recover_tree(recovered)
            check_index(clone)
            assert len(clone) == len(tree)
            for i, q in enumerate(sample_queries()):
                assert clone.search_ids(q) == expected[i]
        finally:
            recovered.close(sync=False)

    @pytest.mark.parametrize("faults, recovers", [(2, True), (4, False)])
    def test_access_hook_retries_a_miss_and_nothing_else(self, faults, recovers):
        """The storage hook enters the retry loop only for a miss (a run of
        hits is touched outside it), and what it then does — attempts,
        ``retries``, ``failed_ops``, the ``disk_retry`` fields, the
        backoff — is what wrapping every access in the loop did."""
        tree = build_tree(60)
        tracer = Tracer()
        delays = []
        faulty = FaultInjectingDisk(
            SimulatedDisk(),
            [Fault("transient", op="read", at=n + 1) for n in range(faults)],
            seed=BASE_SEED,
        )
        policy = no_sleep_policy(delays)  # four attempts
        mgr = StorageManager(
            tree, buffer_bytes=64 * 1024, disk=faulty, retry_policy=policy,
            tracer=tracer,
        )
        page_id = mgr._page_of[tree.root.node_id]
        if recovers:
            mgr._on_access([tree.root])
            attempts, retries = faults + 1, faults
            assert page_id in mgr.pool._frames
        else:
            before = tree.stats.snapshot()
            with pytest.raises(TransientDiskError) as raised:
                tree.search(tree.root.mbr())  # faults on its first visit, the root
            # The last attempt's error, not one chained onto the first's.
            assert raised.value.__context__ is None
            # A failed read counts nothing: no search, no access, no level.
            assert tree.stats.snapshot() == before
            attempts, retries = policy.max_attempts, policy.max_attempts - 1
            assert page_id not in mgr.pool._frames
        # Every attempt is a fresh touch, so each counts its own miss.
        assert (mgr.pool.stats.misses, mgr.pool.stats.hits) == (attempts, 0)
        assert faulty.stats.transient_errors == faults
        assert faulty.stats.retries == retries
        assert faulty.stats.failed_ops == (0 if recovers else 1)
        assert delays == [policy.delay(n + 1) for n in range(retries)]
        assert [e.fields for e in tracer.events if e.etype == "disk_retry"] == [
            {"op": f"touch page {page_id}", "attempt": n + 1, "delay": policy.delay(n + 1)}
            for n in range(retries)
        ]
        # No load left in flight, no pin leaked, by either way out.
        assert not mgr.pool._loading
        mgr.pool.verify_accounting()
        if recovers:
            mgr._on_access([tree.root])  # a hit: the retry plumbing stays cold
            assert (mgr.pool.stats.hits, faulty.stats.retries) == (1, retries)
            assert len(delays) == retries

    def test_retry_events_traced(self):
        tracer = Tracer()
        tree = build_tree(60)
        tree.tracer = tracer
        faulty = FaultInjectingDisk(
            SimulatedDisk(), [Fault("transient", op="read", at=3)], seed=BASE_SEED
        )
        mgr = StorageManager(
            tree, buffer_bytes=2 * 1024, disk=faulty, retry_policy=no_sleep_policy(),
            tracer=tracer,
        )
        mgr.checkpoint()
        clone = mgr.load_tree()
        assert len(clone) == len(tree)
        assert any(e.etype == "disk_retry" for e in tracer.events)


class TestPageIntegrity:
    def test_bit_flip_detected_as_corruption(self):
        tree = build_tree(100)
        faulty = FaultInjectingDisk(
            SimulatedDisk(), [Fault("bit_flip", op="write", at=4)], seed=BASE_SEED
        )
        mgr = StorageManager(tree, buffer_bytes=64 * 1024, disk=faulty)
        mgr.checkpoint()
        # Cold pool: force every read back through the (corrupted) disk.
        for page_id in faulty.page_ids():
            mgr.pool.drop(page_id)
        with pytest.raises(PageCorruptionError):
            mgr.load_tree()
        assert mgr.io_summary()["corrupt_pages"] == 1

    def test_any_flipped_bit_in_any_page_detected(self, tmp_path):
        """Flip one seeded bit in every page of a checkpointed store: each
        flip must surface as PageCorruptionError, never silent data."""
        import random

        path = tmp_path / "index.db"
        tree = build_tree(120)
        mgr = StorageManager(tree, disk=FileDisk(path))
        mgr.checkpoint()
        mgr.disk.close()

        rng = random.Random(BASE_SEED)
        disk = FileDisk(path)
        for page_id in disk.page_ids():
            original = disk.read_page(page_id)
            bit = rng.randrange(len(original) * 8)
            corrupted = bytearray(original)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((PageCorruptionError, StorageError)):
                from repro.storage import deserialize_node

                deserialize_node(bytes(corrupted), page_id)
            verify_page(original, page_id)  # pristine copy still verifies
        disk.close(sync=False)

    def test_generation_stamped_in_pages(self):
        tree = build_tree(80)
        mgr = StorageManager(tree, buffer_bytes=64 * 1024)
        mgr.checkpoint()
        mgr.checkpoint()
        image = mgr._reader.read_image(mgr.root_page)
        assert image.generation == 2
        assert mgr.io_summary()["checkpoint_generation"] == 2


class TestFileDiskRecovery:
    def test_missing_meta_refuses_to_truncate(self, tmp_path):
        path = tmp_path / "p.db"
        disk = FileDisk(path)
        disk.allocate(1, 32)
        disk.write_page(1, b"x" * 32)
        disk.close()
        (tmp_path / "p.db.meta").unlink()
        before = path.read_bytes()
        with pytest.raises(StorageError, match="refusing to truncate"):
            FileDisk(path)
        assert path.read_bytes() == before  # data untouched

    def test_corrupt_meta_falls_back_to_prev_generation(self, tmp_path):
        path = tmp_path / "p.db"
        disk = FileDisk(path)
        disk.allocate(1, 32)
        disk.write_page(1, b"g" * 32)
        disk.sync()  # generation 1
        disk.write_page(1, b"h" * 32)
        disk.sync()  # generation 2
        disk.close(sync=False)
        meta = Path(str(path) + ".meta")
        meta.write_text(meta.read_text()[:-20] + "garbage")  # torn .meta

        reopened = FileDisk(path)
        assert reopened.recovered_from == "prev"
        assert reopened.generation == 1
        assert reopened.read_page(1) == b"g" * 32  # gen-1 content intact
        # Recovery must have repaired the primary sidecar so another crash
        # (or sync rotation) cannot destroy the only good generation.
        again = json.loads(meta.read_text())
        assert again["generation"] == 1
        reopened.close()

    def test_both_sidecars_corrupt_is_an_error(self, tmp_path):
        path = tmp_path / "p.db"
        disk = FileDisk(path)
        disk.allocate(1, 32)
        disk.sync()
        disk.sync()
        disk.close(sync=False)
        Path(str(path) + ".meta").write_text("{not json")
        Path(str(path) + ".meta.prev").write_text("{not json")
        with pytest.raises(StorageError, match="refusing to truncate"):
            FileDisk(path)

    def test_cow_preserves_committed_offsets(self, tmp_path):
        """Overwriting a page after a sync must not touch the bytes the
        committed generation references."""
        path = tmp_path / "p.db"
        disk = FileDisk(path)
        disk.allocate(1, 64)
        disk.write_page(1, b"A" * 64)
        disk.sync()
        committed_offset = disk._offsets[1]
        disk.write_page(1, b"B" * 64)  # must be redirected (copy-on-write)
        assert disk._offsets[1] != committed_offset
        disk.abort()  # crash before the next sync

        recovered = FileDisk(path)
        assert recovered.read_page(1) == b"A" * 64
        recovered.close()

    def test_offset_recycling_bounds_file_growth(self, tmp_path):
        path = tmp_path / "p.db"
        disk = FileDisk(path)
        disk.allocate(1, 128)
        for i in range(12):  # many checkpoint cycles of the same page
            disk.write_page(1, bytes([i]) * 128)
            disk.sync()
        end = disk._end
        assert end <= 128 * 4  # old offsets recycled, not leaked forever
        disk.close()

    def test_close_skips_sync_after_write_failure(self, tmp_path, monkeypatch):
        disk = FileDisk(tmp_path / "p.db")
        disk.allocate(1, 16)
        disk.sync()
        synced = []
        monkeypatch.setattr(disk, "sync", lambda: synced.append(True))
        disk._write_failed = True
        disk.close()
        assert synced == []  # close after failure must not commit

    def test_close_idempotent_when_sync_fails(self, tmp_path, monkeypatch):
        disk = FileDisk(tmp_path / "p.db")
        disk.allocate(1, 16)

        def boom():
            raise StorageError("sync failed")

        monkeypatch.setattr(disk, "sync", boom)
        with pytest.raises(StorageError):
            disk.close()
        assert disk._closed
        disk.close()  # second close: quiet no-op

    def test_exit_with_exception_does_not_mask_it(self, tmp_path, monkeypatch):
        disk = FileDisk(tmp_path / "p.db")

        def boom():
            raise StorageError("sync exploded")

        monkeypatch.setattr(disk, "sync", boom)
        with pytest.raises(ValueError, match="original"):
            with disk:
                disk.allocate(1, 16)
                raise ValueError("original")


class TestAtomicCheckpointCrashSweep:
    """The acceptance sweep: crash at *every* operation boundary in turn
    during the second checkpoint; recovery must always land cleanly on the
    first checkpoint's generation."""

    def _scenario(self, store_dir, faults, seed=0):
        path = Path(store_dir) / "index.db"
        tree = build_tree(90, seed=21)
        disk = FaultInjectingDisk(FileDisk(path), faults, seed=seed)
        mgr = StorageManager(
            tree, buffer_bytes=64 * 1024, disk=disk, retry_policy=no_sleep_policy()
        )
        mgr.checkpoint()  # generation 1: committed baseline
        expected = {i: tree.search_ids(q) for i, q in enumerate(sample_queries())}
        for rect in random_segments(40, seed=22, long_fraction=0.3):
            tree.insert(rect)
        return path, mgr, disk, expected

    def _verify_recovery(self, path, expected):
        recovered = FileDisk(path)
        assert recovered.generation >= 1  # never lost the committed generation
        for page_id in recovered.page_ids():
            data = recovered.read_page(page_id)
            if data.count(0) != len(data):
                verify_page(data, page_id)  # zero checksum violations
        clone, _ = recover_tree(recovered)
        check_index(clone)
        for i, q in enumerate(sample_queries()):
            assert clone.search_ids(q) == expected[i]
        recovered.close(sync=False)

    def test_crash_at_every_write_boundary(self, tmp_path):
        # Dry run to count the second checkpoint's operations.
        with tempfile.TemporaryDirectory() as dry:
            _, mgr, disk, _ = self._scenario(dry, [])
            before = disk.op_counts["any"]
            mgr.checkpoint()
            total_ops = disk.op_counts["any"] - before
            mgr.disk.close()
        assert total_ops > 10

        for k in range(1, total_ops + 1):
            with tempfile.TemporaryDirectory() as store:
                path, mgr, disk, expected = self._scenario(store, [])
                disk.faults.append(Fault("crash", op="any", at=disk.op_counts["any"] + k))
                with pytest.raises(SimulatedCrashError):
                    mgr.checkpoint()
                self._verify_recovery(path, expected)

    def test_torn_final_write_recovers(self, tmp_path):
        with tempfile.TemporaryDirectory() as dry:
            _, mgr, disk, _ = self._scenario(dry, [])
            before = disk.op_counts["write"]
            mgr.checkpoint()
            writes = disk.op_counts["write"] - before
            mgr.disk.close()

        for at in (1, max(1, writes // 2), writes):
            with tempfile.TemporaryDirectory() as store:
                path, mgr, disk, expected = self._scenario(store, [], seed=BASE_SEED)
                disk.faults.append(
                    Fault("torn_write", op="write", at=disk.op_counts["write"] + at)
                )
                with pytest.raises(SimulatedCrashError):
                    mgr.checkpoint()
                self._verify_recovery(path, expected)

    def test_completed_second_checkpoint_supersedes(self):
        with tempfile.TemporaryDirectory() as store:
            path, mgr, disk, _ = self._scenario(store, [])
            tree = mgr.tree
            mgr.checkpoint()  # generation 2 commits cleanly
            expected = {i: tree.search_ids(q) for i, q in enumerate(sample_queries())}
            mgr.disk.close()
            recovered = FileDisk(path)
            clone, _ = recover_tree(recovered)
            check_index(clone)
            for i, q in enumerate(sample_queries()):
                assert clone.search_ids(q) == expected[i]
            recovered.close(sync=False)


@settings(max_examples=12, deadline=None)
@given(
    data_seed=st.integers(0, 10_000),
    extra=st.integers(1, 60),
    crash_frac=st.floats(0.0, 1.0),
)
def test_property_crash_recovery(data_seed, extra, crash_frac):
    """Property: whatever the data and wherever the crash lands inside
    ``checkpoint()``, reopening recovers the last completed checkpoint —
    structurally valid and answering queries identically."""
    with tempfile.TemporaryDirectory() as store:
        path = Path(store) / "index.db"
        tree = SRTree()
        for rect in random_segments(80, seed=data_seed, long_fraction=0.25):
            tree.insert(rect)
        disk = FaultInjectingDisk(FileDisk(path), seed=BASE_SEED + data_seed)
        mgr = StorageManager(
            tree, buffer_bytes=64 * 1024, disk=disk, retry_policy=no_sleep_policy()
        )
        mgr.checkpoint()
        queries = sample_queries(8, seed=data_seed)
        expected = [tree.search_ids(q) for q in queries]

        for rect in random_segments(extra, seed=data_seed + 1, long_fraction=0.3):
            tree.insert(rect)
        # Crash at a hypothesis-chosen boundary inside the second
        # checkpoint.  The upper bound overestimates the checkpoint's
        # operation count; a crash point beyond the real count simply means
        # the checkpoint completes (also a valid outcome to verify).
        ops_before = disk.op_counts["any"]
        upper = 3 * tree.node_count() + 2 * len(disk.page_ids()) + 20
        crash_at = ops_before + 1 + int(crash_frac * (upper - 1))
        disk.faults.append(Fault("crash", op="any", at=crash_at))
        try:
            mgr.checkpoint()
            completed = True  # crash point fell beyond the checkpoint's ops
        except SimulatedCrashError:
            completed = False
        if completed:
            expected = [tree.search_ids(q) for q in queries]
            mgr.disk.close()

        recovered = FileDisk(path)
        assert recovered.generation >= 1
        for page_id in recovered.page_ids():
            data = recovered.read_page(page_id)
            if data.count(0) != len(data):
                verify_page(data, page_id)
        clone, _ = recover_tree(recovered)
        check_index(clone)
        for q, want in zip(queries, expected):
            assert clone.search_ids(q) == want
        recovered.close(sync=False)


class TestFsckCLI:
    def _checkpointed_store(self, tmp_path):
        path = tmp_path / "index.db"
        tree = build_tree(120)
        mgr = StorageManager(tree, disk=FileDisk(path))
        mgr.checkpoint()
        mgr.disk.close()
        return path

    def test_fsck_clean_store(self, tmp_path, capsys):
        from repro.cli import main

        path = self._checkpointed_store(tmp_path)
        assert main(["fsck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 checksum violation(s)" in out
        assert "structural invariants OK" in out
        assert "fsck: clean" in out

    def test_fsck_detects_flipped_bit(self, tmp_path, capsys):
        from repro.cli import main

        path = self._checkpointed_store(tmp_path)
        disk = FileDisk(path)
        victim = disk.page_ids()[len(disk.page_ids()) // 2]
        offset = disk._offsets[victim]
        disk.close(sync=False)
        raw = bytearray(path.read_bytes())
        raw[offset + 30] ^= 0x10  # flip one bit inside the page body
        path.write_bytes(bytes(raw))

        assert main(["fsck", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 checksum violation(s)" in out
        assert "PROBLEMS FOUND" in out

    def test_fsck_missing_path_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "typo.db"
        assert main(["fsck", str(missing)]) == 1
        assert "no such file" in capsys.readouterr().out
        # Must not create an empty store as a side effect of the check.
        assert not missing.exists()

    def test_fsck_unrecoverable_store(self, tmp_path, capsys):
        from repro.cli import main

        path = self._checkpointed_store(tmp_path)
        # Deleting only .meta still recovers from .meta.prev; destroying
        # both sidecars is what makes the store unrecoverable.
        Path(str(path) + ".meta").unlink()
        Path(str(path) + ".meta.prev").unlink()
        assert main(["fsck", str(path)]) == 1
        assert "unrecoverable" in capsys.readouterr().out

    def test_fsck_is_read_only(self, tmp_path):
        from repro.cli import main

        path = self._checkpointed_store(tmp_path)
        meta_before = Path(str(path) + ".meta").read_text()
        data_before = path.read_bytes()
        assert main(["fsck", str(path)]) == 0
        assert Path(str(path) + ".meta").read_text() == meta_before
        assert path.read_bytes() == data_before
