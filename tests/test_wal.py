"""Write-ahead log: framing, group commit, torn-tail replay, crash sweep.

The acceptance sweep crashes at *every* WAL append / fsync / truncation
boundary of a fixed workload and checks prefix consistency after
recovery: every acknowledged commit present, no torn record applied.
The module carries the ``faults`` marker so CI runs it across the
``REPRO_FAULT_SEED`` matrix.
"""

import os
import random
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ConcurrentIndex, IndexConfig, SkeletonSRTree, SRTree, check_index, open_store
from repro.exceptions import (
    ConfigError,
    SimulatedCrashError,
    StorageError,
    TornWalAppend,
)
from repro.obs import Tracer
from repro.storage import (
    Fault,
    FaultInjectingDisk,
    FileDisk,
    StorageManager,
    WriteAheadLog,
    recover_tree,
    replay_wal,
    scan_wal,
    wal_directory_for,
)
from repro.storage.wal import (
    REC_COMMIT,
    REC_DEALLOC,
    REC_PAGE_IMAGE,
    WAL_FRAME_BYTES,
    _SCAN_CHUNK,
    _changed_range,
    _frame,
    _parse_frame,
    _scan_directory,
)

from .conftest import random_segments

pytestmark = pytest.mark.faults

#: CI sweeps this to exercise different deterministic fault schedules.
BASE_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Crash-sweep workload shape: small enough that sweeping every boundary
#: stays fast, large enough to split nodes and roll WAL segments.
SWEEP_INSERTS = 18
SWEEP_CHECKPOINT_EVERY = 8
SWEEP_SEGMENT_BYTES = 2 * 1024

SMALL = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)


def wal_rects(n, seed=17):
    return random_segments(n, seed=BASE_SEED * 1000 + seed, long_fraction=0.2)


def search_ids(tree, rect):
    return {rid for rid, _ in tree.search(rect)}


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        data = _frame(7, REC_PAGE_IMAGE, 3, b"payload")
        parsed = _parse_frame(data, 0)
        assert parsed is not None
        record, end = parsed
        assert end == len(data) == WAL_FRAME_BYTES + len(b"payload")
        assert (record.lsn, record.rtype, record.page_id) == (7, REC_PAGE_IMAGE, 3)
        assert record.payload == b"payload"

    def test_any_flipped_bit_invalidates(self):
        data = _frame(1, REC_COMMIT, 0, b"\x05" + b"\x00" * 7)
        for bit in range(len(data) * 8):
            corrupt = bytearray(data)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            assert _parse_frame(bytes(corrupt), 0) is None, f"bit {bit} undetected"

    def test_truncated_frame_is_torn(self):
        data = _frame(1, REC_PAGE_IMAGE, 2, b"x" * 50)
        for cut in (0, 5, WAL_FRAME_BYTES - 1, WAL_FRAME_BYTES, len(data) - 1):
            assert _parse_frame(data[:cut], 0) is None

    def test_frame_bytes_are_pinned(self):
        # magic, CRC32 over (lsn, page, type, length) + payload, then those
        # four fields and the payload: the log format on disk.
        assert _frame(7, REC_PAGE_IMAGE, 3, b"payload").hex() == (
            "57414c31c31ea669" "0700000000000000" "0300000000000000" "02000000" "07000000"
            "7061796c6f6164"
        )
        assert _frame(2**40 + 5, REC_COMMIT, 0, (9).to_bytes(8, "little")).hex() == (
            "57414c31afe1cc94" "0500000000010000" "0000000000000000" "05000000" "08000000"
            "0900000000000000"
        )


# ---------------------------------------------------------------------------
# Log basics: append, durability, reopen, torn tails
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_commit_makes_lsn_durable(self, tmp_path):
        with WriteAheadLog(tmp_path / "w") as wal:
            lsn = wal.log_commit({1: b"a" * 64}, allocs={1: 64}, root_page=1)
            assert wal.durable_lsn < lsn
            wal.commit(lsn)
            assert wal.durable_lsn >= lsn
            assert wal.stats.commits_acked == 1
        info = scan_wal(tmp_path / "w")
        assert (info.records, info.commits, info.torn_tail) == (3, 1, False)

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        lsn = wal.log_commit({1: b"a" * 32}, allocs={1: 32}, root_page=1)
        wal.commit(lsn)
        wal.close()
        reopened = WriteAheadLog(tmp_path / "w")
        assert reopened.last_lsn == lsn
        lsn2 = reopened.log_commit({1: b"b" * 32}, root_page=1)
        assert lsn2 > lsn
        reopened.commit(lsn2)
        reopened.close()
        info = scan_wal(tmp_path / "w")
        assert info.last_lsn == lsn2 and not info.torn_tail

    def test_torn_tail_trimmed_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        lsn = wal.log_commit({1: b"a" * 32}, allocs={1: 32}, root_page=1)
        wal.commit(lsn)
        wal.log_commit({1: b"b" * 32}, root_page=1)  # appended, never synced
        wal.abort()
        segments = list((tmp_path / "w").iterdir())
        assert len(segments) == 1
        raw = segments[0].read_bytes()
        segments[0].write_bytes(raw[:-11])  # tear the tail record

        assert scan_wal(tmp_path / "w").torn_tail
        reopened = WriteAheadLog(tmp_path / "w")
        # The torn COMMIT is dropped and its transaction's page record with
        # it: the next COMMIT must not adopt a record replay would discard.
        assert reopened.last_lsn == lsn
        lsn3 = reopened.log_commit({1: b"c" * 32}, root_page=1)
        reopened.commit(lsn3)
        reopened.close()
        # The tear was trimmed in place, so post-tear appends are reachable.
        info = scan_wal(tmp_path / "w")
        assert info.last_lsn == lsn3 and not info.torn_tail

    def test_segments_roll_and_truncate(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w", segment_bytes=512)
        for i in range(10):
            wal.commit(wal.log_commit({1: bytes([i]) * 200}, root_page=1))
        assert wal.stats.segments_created > 1
        deleted = wal.truncate(wal.last_lsn)
        assert deleted >= 2  # every pre-checkpoint segment was dropped
        assert len(list((tmp_path / "w").iterdir())) == 1  # one fresh segment
        assert scan_wal(tmp_path / "w").records == 0
        # LSNs never reset: the next commit continues the sequence.
        lsn = wal.log_commit({1: b"z" * 64}, root_page=1)
        assert lsn > 10
        wal.commit(lsn)
        wal.close()

    def test_delta_encoding_smaller_than_images(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        base = bytearray(b"\x01" * 512)
        wal.commit(wal.log_commit({1: bytes(base)}, allocs={1: 512}, root_page=1))
        base[100:104] = b"edit"
        wal.commit(wal.log_commit({1: bytes(base)}, root_page=1))
        assert wal.stats.full_images == 1
        assert wal.stats.deltas == 1
        wal.close()

    def test_events_traced(self, tmp_path):
        tracer = Tracer()
        wal = WriteAheadLog(tmp_path / "w", tracer=tracer)
        wal.commit(wal.log_commit({1: b"a" * 32}, allocs={1: 32}, root_page=1))
        wal.truncate(wal.last_lsn)
        wal.close()
        etypes = [e.etype for e in tracer.events]
        assert "wal_append" in etypes
        assert "wal_fsync" in etypes
        assert "wal_truncate" in etypes


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_concurrent_commits_batch_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w", fsync_delay=0.004)
        per_thread, threads = 8, 4

        def writer(t):
            for i in range(per_thread):
                lsn = wal.log_commit(
                    {t + 1: bytes([i]) * 64},
                    allocs={t + 1: 64} if i == 0 else None,
                    root_page=1,
                )
                wal.commit(lsn)

        workers = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wal.close()
        total = per_thread * threads
        assert wal.stats.commits_acked == total
        # The batching bar: strictly more than one commit per fsync, i.e.
        # at least one fsync acknowledged multiple concurrent commits.
        assert wal.stats.fsyncs < total
        assert wal.stats.commits_per_fsync > 1.0
        info = scan_wal(tmp_path / "w")
        assert info.commits == total and not info.torn_tail

    def test_single_writer_is_one_fsync_per_commit(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        for i in range(5):
            wal.commit(
                wal.log_commit(
                    {1: bytes([i]) * 32}, allocs={1: 32} if i == 0 else None, root_page=1
                )
            )
        wal.close()
        assert wal.stats.fsyncs == 5
        assert wal.stats.commits_per_fsync == 1.0


# ---------------------------------------------------------------------------
# Delta scan: the chunked compare is the byte loop, faster
# ---------------------------------------------------------------------------
def byte_loop_range(previous, image):
    """The scan as first written: the reference for ``_changed_range``."""
    lo, hi = 0, len(image)
    while lo < hi and previous[lo] == image[lo]:
        lo += 1
    while hi > lo and previous[hi - 1] == image[hi - 1]:
        hi -= 1
    return lo, hi


class TestDeltaScan:
    @settings(max_examples=300, deadline=None)
    @given(
        base=st.binary(min_size=1, max_size=5 * _SCAN_CHUNK + 7),
        edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=4),
    )
    @example(base=b"\x07" * 200, edits=[])  # identical pages
    @example(base=b"\x07" * 200, edits=[(0, 1)])  # first byte only
    @example(base=b"\x07" * 200, edits=[(199, 1)])  # last byte only
    @example(base=b"\x07" * _SCAN_CHUNK, edits=[(_SCAN_CHUNK - 1, 1)])
    @example(base=b"\x07" * (2 * _SCAN_CHUNK + 1), edits=[(_SCAN_CHUNK, 1)])
    def test_matches_the_byte_loop(self, base, edits):
        image = bytearray(base)
        for index, flip in edits:
            image[index % len(base)] ^= flip
        image = bytes(image)
        assert _changed_range(base, image) == byte_loop_range(base, image)

    @pytest.mark.parametrize(
        "size", [1, 2, _SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1, 3 * _SCAN_CHUNK + 5]
    )
    def test_every_single_byte_difference(self, size):
        base = bytes(size)
        for index in range(size):
            image = base[:index] + b"\x01" + base[index + 1 :]
            assert _changed_range(base, image) == (index, index + 1)
        assert _changed_range(base, base) == (size, size)

    def test_log_bytes_and_replay_identical(self, tmp_path, monkeypatch):
        """A seeded insert/delete run logs the same bytes — so replays to
        the same pages — whichever scan found the deltas."""

        def run(path):
            store = build_wal_stack(path)
            engine = store.engine
            rng = random.Random(BASE_SEED)
            live = []
            for rect in wal_rects(120):
                live.append((engine.insert(rect), rect))
                if len(live) > 8 and rng.random() < 0.4:
                    rid, hint = live.pop(rng.randrange(len(live)))
                    engine.delete(rid, hint=hint)
            deltas = store.manager.wal.stats.deltas
            store.crash()
            log = b"".join(
                seg.read_bytes() for seg in sorted(wal_directory_for(path).iterdir())
            )
            recovered = FileDisk(path)
            try:
                replay_wal(wal_directory_for(path), recovered)
                pages = {pid: recovered.read_page(pid) for pid in recovered.page_ids()}
            finally:
                recovered.close(sync=False)
            return log, pages, deltas

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        chunked = run(tmp_path / "a" / "index.db")
        monkeypatch.setattr("repro.storage.wal._changed_range", byte_loop_range)
        by_byte = run(tmp_path / "b" / "index.db")
        assert chunked[2] > 100, "the run must actually log deltas"
        assert chunked == by_byte


# ---------------------------------------------------------------------------
# Engine integration: durable acknowledged commits
# ---------------------------------------------------------------------------
def build_wal_stack(path, faults=None, seed=None, segment_bytes=SWEEP_SEGMENT_BYTES):
    """A fresh store over a fault-wrapped FileDisk + WAL, serving an
    empty small-page SR-Tree."""
    disk = FaultInjectingDisk(
        FileDisk(path), faults or [], seed=BASE_SEED if seed is None else seed
    )
    wal = WriteAheadLog(wal_directory_for(path), segment_bytes=segment_bytes)
    return open_store(disk, wal, tree=SRTree(SMALL), buffer_bytes=64 * 1024)


def run_until_crash(path, faults, seed, body):
    """Run ``body(manager, engine)`` on a fresh stack until it finishes or an
    injected crash kills it; returns (crashed, op_counts)."""
    disk = FaultInjectingDisk(
        FileDisk(path), faults or [], seed=BASE_SEED if seed is None else seed
    )
    wal = WriteAheadLog(wal_directory_for(path), segment_bytes=SWEEP_SEGMENT_BYTES)
    try:
        with open_store(disk, wal, tree=SRTree(SMALL), buffer_bytes=64 * 1024) as store:
            body(store.manager, store.engine)
    except StorageError:
        return True, dict(disk.op_counts)
    return False, dict(disk.op_counts)


def run_workload(path, faults=None, seed=None, inserts=SWEEP_INSERTS):
    """Insert + periodically checkpoint until done or crashed.

    Returns (acked, crashed, op_counts): ``acked`` holds one
    ``(record_id, rect)`` per acknowledged commit.
    """
    acked = []

    def body(manager, engine):
        for i, rect in enumerate(wal_rects(inserts)):
            acked.append((engine.insert(rect), rect))
            if (i + 1) % SWEEP_CHECKPOINT_EVERY == 0:
                manager.checkpoint()

    crashed, op_counts = run_until_crash(path, faults, seed, body)
    return acked, crashed, op_counts


def reopen(path):
    """The store at ``path``, recovered through the one open path."""
    return open_store(FileDisk(path), WriteAheadLog(wal_directory_for(path)))


def verify_prefix_consistent(path, acked):
    """Reopen and check: valid tree, every acked commit present, no page
    the tree does not reach."""
    store = reopen(path)
    tree, replay = store.engine.tree, store.replay
    assert store.manager.disk.allocated_pages == tree.node_count()
    store.crash()  # leave the store as the crash left it
    check_index(tree)
    for record_id, rect in acked:
        assert record_id in search_ids(tree, rect), (
            f"acknowledged record {record_id} lost after recovery "
            f"({replay.commits_applied} commits replayed, "
            f"torn_tail={replay.torn_tail})"
        )
    return tree, replay


class TestEngineDurability:
    def test_acked_commits_survive_crash_without_checkpoint(self, tmp_path):
        path = tmp_path / "index.db"
        store = build_wal_stack(path)
        tree, engine = store.engine.tree, store.engine
        acked = [(engine.insert(r), r) for r in wal_rects(30)]
        expected = {rid: search_ids(tree, rect) for rid, rect in acked}
        # Crash: no checkpoint ever ran, so the pages live only in the WAL.
        store.crash()

        recovered, replay = verify_prefix_consistent(path, acked)
        assert len(recovered) == len(acked)
        assert replay.commits_applied == len(acked)
        for rid, rect in acked:
            assert search_ids(recovered, rect) == expected[rid]

    def test_deletes_and_empty_tree_recover(self, tmp_path):
        path = tmp_path / "index.db"
        store = build_wal_stack(path)
        tree, engine = store.engine.tree, store.engine
        acked = [(engine.insert(r), r) for r in wal_rects(12)]
        for rid, rect in acked:
            engine.delete(rid, hint=rect)
        store.crash()

        disk2 = FileDisk(path)
        try:
            recovered, replay = recover_tree(disk2)
        finally:
            disk2.close(sync=False)
        assert len(recovered) == 0
        assert replay.root_page == 0  # the empty-tree sentinel

    def test_recovered_store_reattaches_and_continues(self, tmp_path):
        path = tmp_path / "index.db"
        store = build_wal_stack(path)
        engine = store.engine
        acked = [(engine.insert(r), r) for r in wal_rects(10)]
        store.crash()

        reopened = reopen(path)
        more = [(reopened.engine.insert(r), r) for r in wal_rects(10, seed=99)]
        reopened.crash()

        recovered, _ = verify_prefix_consistent(path, acked + more)
        assert len(recovered) == 20


    def test_predicting_skeleton_is_refused_until_flushed(self, tmp_path):
        """A prediction-phase skeleton keeps its first records in a buffer
        no page (so no WAL commit, no snapshot) ever holds: ten acked
        inserts used to recover as zero records."""
        path = tmp_path / "index.db"
        tree = SkeletonSRTree(
            SMALL,
            expected_tuples=100,
            domain=[(0.0, 100_000.0)] * 2,
            prediction_fraction=0.1,
        )
        disk = FileDisk(path)
        wal = WriteAheadLog(wal_directory_for(path))
        with pytest.raises(ConfigError, match=r"flush\(\)"):
            StorageManager(tree, disk=disk, wal=wal)
        pool_only = StorageManager(tree)  # fault counting needs no log
        with pytest.raises(ConfigError, match=r"flush\(\)"):
            ConcurrentIndex(tree, storage=pool_only, mvcc=True)
        pool_only.detach()

        with pytest.raises(ConfigError, match=r"flush\(\)"):
            open_store(disk, wal, tree=tree)

        tree.flush()
        store = open_store(disk, wal, tree=tree, buffer_bytes=64 * 1024)
        acked = [(store.engine.insert(r), r) for r in wal_rects(10)]
        store.crash()
        recovered, _ = verify_prefix_consistent(path, acked)
        assert len(recovered) == len(acked)


# ---------------------------------------------------------------------------
# The acceptance sweep: crash at every WAL boundary
# ---------------------------------------------------------------------------
class TestWalBoundaryCrashSweep:
    @pytest.fixture(scope="class")
    def boundary_counts(self, tmp_path_factory):
        """Dry-run the sweep workload and count each WAL boundary type."""
        path = tmp_path_factory.mktemp("dry") / "index.db"
        acked, crashed, op_counts = run_workload(path)
        assert not crashed
        assert len(acked) == SWEEP_INSERTS
        assert op_counts["wal_append"] >= SWEEP_INSERTS
        assert op_counts["wal_fsync"] > 0
        assert op_counts["wal_truncate"] > 0  # checkpoints deleted segments
        return op_counts

    @pytest.mark.parametrize(
        "op,kind",
        [
            ("wal_append", "crash"),
            ("wal_append", "torn_write"),
            ("wal_fsync", "crash"),
            ("wal_truncate", "crash"),
        ],
    )
    def test_crash_at_every_boundary(self, tmp_path, boundary_counts, op, kind):
        total = boundary_counts[op]
        for at in range(1, total + 1):
            store = tmp_path / f"{op}-{kind}-{at}"
            store.mkdir()
            path = store / "index.db"
            acked, crashed, _ = run_workload(path, faults=[Fault(kind, op=op, at=at)])
            assert crashed, f"{kind}@{op}#{at} did not crash the run"
            verify_prefix_consistent(path, acked)

    def test_crash_between_append_and_fsync(self, tmp_path):
        # The ISSUE's named boundary: the record is appended (buffered)
        # but the acknowledging fsync never happens.  The commit was not
        # acknowledged, so recovery may or may not contain it — but every
        # previously acked commit must survive.
        path = tmp_path / "index.db"
        counts_path = tmp_path / "count" / "index.db"
        counts_path.parent.mkdir()
        _, _, op_counts = run_workload(counts_path)
        last_fsync = op_counts["wal_fsync"]
        acked, crashed, _ = run_workload(
            path, faults=[Fault("crash", op="wal_fsync", at=last_fsync)]
        )
        assert crashed
        verify_prefix_consistent(path, acked)

    def test_crash_mid_truncation_replays_stale_segments_as_noops(self, tmp_path):
        # Crash during the first checkpoint's WAL truncation (boundary #2;
        # #1 is the bootstrap checkpoint's): the checkpoint itself already
        # synced, so the surviving stale segments hold records at or below
        # the recovery LSN and must replay as no-ops.
        path = tmp_path / "index.db"
        acked, crashed, _ = run_workload(
            path, faults=[Fault("crash", op="wal_truncate", at=2)]
        )
        assert crashed
        _, replay = verify_prefix_consistent(path, acked)
        assert replay.skipped > 0  # stale records were scanned, not applied


def run_unlinking_workload(path, faults=None):
    """Insert, delete everything (leaves empty out, the root shrinks and
    every page but one is freed), insert again — until done or crashed.

    Returns (live, deleted, crashed, op_counts): acknowledged state only;
    a delete the crash interrupted is in neither set.
    """
    live, deleted = {}, set()

    def body(manager, engine):
        rects = wal_rects(SWEEP_INSERTS)
        for rect in rects:
            live[engine.insert(rect)] = rect
        for rid in sorted(live):
            rect = live.pop(rid)
            engine.delete(rid, hint=rect)
            deleted.add(rid)
        for rect in rects[:4]:
            live[engine.insert(rect)] = rect

    crashed, op_counts = run_until_crash(path, faults, None, body)
    return live, deleted, crashed, op_counts


class TestUnlinkingWorkloadCrashSweep:
    """The same sweep over a workload whose commits carry DEALLOC records."""

    @pytest.fixture(scope="class")
    def boundary_counts(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dry-unlink") / "index.db"
        live, deleted, crashed, op_counts = run_unlinking_workload(path)
        assert not crashed
        assert len(live) == 4 and len(deleted) == SWEEP_INSERTS
        assert op_counts["deallocate"] > 0  # unlinked nodes' pages were freed
        deallocs = [
            r for r in _scan_directory(wal_directory_for(path))[0] if r.rtype == REC_DEALLOC
        ]
        assert len(deallocs) == op_counts["deallocate"]
        return op_counts

    @pytest.mark.parametrize(
        "op,kind",
        [
            ("wal_append", "crash"),
            ("wal_append", "torn_write"),
            ("wal_fsync", "crash"),
            ("deallocate", "crash"),
        ],
    )
    def test_crash_at_every_boundary(self, tmp_path, boundary_counts, op, kind):
        for at in range(1, boundary_counts[op] + 1):
            store = tmp_path / f"{op}-{kind}-{at}"
            store.mkdir()
            path = store / "index.db"
            live, deleted, crashed, _ = run_unlinking_workload(
                path, faults=[Fault(kind, op=op, at=at)]
            )
            assert crashed, f"{kind}@{op}#{at} did not crash the run"
            tree, _ = verify_prefix_consistent(path, list(live.items()))
            assert not deleted & {rid for rid, _, _ in tree.items()}


# ---------------------------------------------------------------------------
# Recovery idempotence: crash during replay, recover again
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    data_seed=st.integers(0, 10_000),
    crash_frac=st.floats(0.0, 1.0),
)
def test_property_crash_during_replay_rerecovers(tmp_path_factory, data_seed, crash_frac):
    """Property: wherever a crash lands *inside* WAL replay, recovering
    again from the store reaches the same tree state — replay is
    idempotent (absolute assignments only) and never writes the WAL."""
    base = tmp_path_factory.mktemp("replay")
    path = base / "index.db"
    store = build_wal_stack(path, seed=data_seed)
    tree, engine = store.engine.tree, store.engine
    rects = random_segments(16, seed=data_seed, long_fraction=0.25)
    acked = [(engine.insert(r), r) for r in rects]
    store.crash()

    wal_dir = wal_directory_for(path)
    wal_bytes_before = {p.name: p.read_bytes() for p in wal_dir.iterdir()}

    # Reference: one clean recovery, counting its store operations.
    probe = FaultInjectingDisk(FileDisk(path), seed=data_seed)
    ref_tree, _ = recover_tree(probe)
    replay_ops = probe.op_counts["any"]
    probe.inner.close(sync=False)
    reference = {rid: search_ids(ref_tree, rect) for rid, rect in acked}

    # Crash at a chosen operation boundary inside replay, then re-recover.
    crash_at = 1 + int(crash_frac * (replay_ops - 1))
    crashing = FaultInjectingDisk(
        FileDisk(path), [Fault("crash", op="any", at=crash_at)], seed=data_seed
    )
    with pytest.raises(StorageError):
        recover_tree(crashing)

    clean = FileDisk(path)
    try:
        again, _ = recover_tree(clean)
    finally:
        clean.close(sync=False)
    check_index(again)
    assert len(again) == len(ref_tree)
    for rid, rect in acked:
        assert search_ids(again, rect) == reference[rid]
    # Recovery must never have written the WAL.
    assert {p.name: p.read_bytes() for p in wal_dir.iterdir()} == wal_bytes_before


# ---------------------------------------------------------------------------
# Torn appends carry a prefix to disk
# ---------------------------------------------------------------------------
class TestTornAppend:
    def test_torn_prefix_lands_on_disk_and_replay_stops(self, tmp_path):
        path = tmp_path / "index.db"
        store = build_wal_stack(
            path, faults=[Fault("torn_write", op="wal_append", at=5)]
        )
        acked = []
        with pytest.raises((TornWalAppend, StorageError)):
            for rect in wal_rects(30):
                acked.append((store.engine.insert(rect), rect))
        assert store.manager.disk.crashed
        # The log refuses further work after the tear.
        with pytest.raises(StorageError):
            store.manager.wal.log_commit({1: b"x" * 32}, root_page=1)

        info = scan_wal(wal_directory_for(path))
        if info.torn_tail:
            # Scan and replay agree on the tear (before anything reopens
            # the log, which trims it).
            probe = FileDisk(path)
            try:
                assert recover_tree(probe)[1].torn_tail
            finally:
                probe.close(sync=False)
        recovered, replay = verify_prefix_consistent(path, acked)
        assert replay.commits_applied == len(acked)
        assert len(recovered) == len(acked)


# ---------------------------------------------------------------------------
# fsck and bench surfaces
# ---------------------------------------------------------------------------
class TestWalCli:
    def test_fsck_reports_wal_scan(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "index.db"
        store = build_wal_stack(path)
        engine = store.engine
        for rect in wal_rects(6):
            engine.insert(rect)
        store.crash()

        assert main(["fsck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wal:" in out
        assert "6 commit(s)" in out
        assert "fsck: clean" in out

    def test_fsck_reports_torn_tail_as_clean(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "index.db"
        store = build_wal_stack(path)
        engine = store.engine
        engine.insert(wal_rects(1)[0])
        store.crash()
        segment = next(iter(wal_directory_for(path).iterdir()))
        segment.write_bytes(segment.read_bytes()[:-7])  # tear the tail

        assert main(["fsck", str(path)]) == 0  # torn tail is expected semantics
        out = capsys.readouterr().out
        assert "torn tail" in out
        assert "fsck: clean" in out
