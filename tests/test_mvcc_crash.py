"""MVCC crash sweep: recovery always lands on a committed epoch.

The COW publish, version GC, and epoch bookkeeping are in-memory — the
durable write boundaries of an MVCC commit are exactly the WAL's
(append, fsync, truncate-at-checkpoint).  The sweep crashes an MVCC
workload (inserts + deletes + pinned snapshots + explicit version GC +
checkpoints) at *every* such boundary and checks, after recovery:

* the recovered tree is structurally valid and prefix-consistent — its
  record set equals the state after the first ``k`` operations for some
  ``k`` covering at least every acknowledged commit;
* ``WalReplayResult.last_commit_lsn`` names the committed epoch recovery
  landed on, and reopening the store in MVCC mode (``open_store`` makes it
  the base epoch) yields snapshots whose contents equal the recovered
  tree — epochs then continue strictly above the recovered one.

Carries the ``faults`` marker so CI runs it across the
``REPRO_FAULT_SEED`` matrix.
"""

import os

import pytest

from repro import IndexConfig, SRTree, check_index, open_store
from repro.exceptions import StorageError
from repro.storage import (
    Fault,
    FaultInjectingDisk,
    FileDisk,
    WriteAheadLog,
    wal_directory_for,
)

from .conftest import random_segments

pytestmark = pytest.mark.faults

BASE_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Sweep workload shape (kept small: every boundary gets its own run).
SWEEP_INSERTS = 14
SWEEP_DELETE_EVERY = 4  # every 4th op deletes the oldest live record
SWEEP_CHECKPOINT_EVERY = 6
SWEEP_GC_EVERY = 5
SWEEP_SEGMENT_BYTES = 2 * 1024

SMALL = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)


def mvcc_rects(n, seed=23):
    return random_segments(n, seed=BASE_SEED * 1000 + seed, long_fraction=0.2)


def expected_prefix_states(inserts=SWEEP_INSERTS):
    """Live record-id set after each op of the deterministic workload.

    The single writer inserts rects in order (record ids are assigned
    1, 2, ...); every ``SWEEP_DELETE_EVERY``-th op additionally deletes
    the oldest live record as its own commit.  Returns a list whose
    ``k``-th entry is the live set after ``k`` committed ops (entry 0 is
    the empty base state).
    """
    states = [frozenset()]
    live = []
    ops = 0
    for rid in range(1, inserts + 1):
        live.append(rid)
        states.append(frozenset(live))
        ops += 1
        if ops % SWEEP_DELETE_EVERY == 0 and live:
            live.pop(0)
            states.append(frozenset(live))
    return states


def open_mvcc(disk, path, tree=None):
    """The store on ``disk`` + the WAL beside ``path``, in MVCC mode."""
    wal = WriteAheadLog(wal_directory_for(path), segment_bytes=SWEEP_SEGMENT_BYTES)
    return open_store(disk, wal, tree=tree, buffer_bytes=64 * 1024, mvcc=True)


def run_mvcc_workload(path, faults=None, seed=None, inserts=SWEEP_INSERTS):
    """The sweep workload; returns (acked_ops, crashed, op_counts).

    ``acked_ops`` counts acknowledged commits in op order (matching
    :func:`expected_prefix_states` indices); snapshots are pinned across
    commits and explicit version-GC runs mid-stream so a crash can
    land while version chains are deep.
    """
    acked = 0
    disk = FaultInjectingDisk(
        FileDisk(path), faults or [], seed=BASE_SEED if seed is None else seed
    )
    snapshots = []
    try:
        store = open_mvcc(disk, path, tree=SRTree(SMALL))
        engine, manager = store.engine, store.manager
        live = []
        ops = 0
        for i, rect in enumerate(mvcc_rects(inserts)):
            live.append(engine.insert(rect))
            acked += 1
            ops += 1
            if ops % SWEEP_DELETE_EVERY == 0 and live:
                engine.delete(live.pop(0))
                acked += 1
            if (i + 1) % 3 == 0:  # hold a snapshot across later commits
                snapshots.append(engine.open_snapshot())
            if (i + 1) % SWEEP_GC_EVERY == 0:
                engine.run_version_gc()
            if (i + 1) % SWEEP_CHECKPOINT_EVERY == 0:
                manager.checkpoint()
    except StorageError:
        return acked, True, dict(disk.op_counts)
    for snap in snapshots:
        snap.close()
    store.close()
    return acked, False, dict(disk.op_counts)


def verify_committed_epoch(path, acked):
    """Recover; assert prefix consistency and a committed landing epoch.

    Returns ``(recovered_ids, replay)`` with the MVCC re-attachment
    already validated: a snapshot of the reopened store sits on
    ``replay.last_commit_lsn`` and sees exactly the recovered records.
    """
    states = expected_prefix_states()
    store = open_mvcc(FileDisk(path), path)
    try:
        tree, replay = store.engine.tree, store.replay
        assert isinstance(tree, SRTree) and tree.config == SMALL
        check_index(tree)
        recovered = {rid for rid, _, _ in tree.items()}
        matches = [k for k, state in enumerate(states) if state == recovered]
        assert matches, (
            f"recovered record set {sorted(recovered)} is not any committed "
            f"prefix state ({replay.commits_applied} commits replayed, "
            f"torn_tail={replay.torn_tail})"
        )
        assert max(matches) >= acked, (
            f"recovery lost acknowledged commits: landed on op "
            f"{max(matches)}, {acked} were acked"
        )

        # MVCC re-attached at the recovered epoch: the WAL resumes its LSN
        # sequence, so the base epoch must be the last applied COMMIT's
        # LSN for new commit epochs to stay strictly increasing.
        engine, manager = store.engine, store.manager
        cache = manager.versions
        assert manager.enable_mvcc() is cache  # idempotent
        with engine.open_snapshot() as snap:
            assert snap.epoch == replay.last_commit_lsn
            assert {rid for rid, _, _ in snap.items()} == recovered
        # Epochs continue above the recovered commit.
        rid = engine.insert(mvcc_rects(1, seed=99)[0])
        assert engine.last_commit_epoch > replay.last_commit_lsn
        with engine.open_snapshot() as snap:
            assert snap.epoch == engine.last_commit_epoch
            assert rid in {r for r, _, _ in snap.items()}
        cache.verify_accounting()
    finally:
        store.crash()
    return recovered, replay


# ---------------------------------------------------------------------------
# The sweep: crash at every WAL boundary of the MVCC workload
# ---------------------------------------------------------------------------
class TestMvccBoundaryCrashSweep:
    @pytest.fixture(scope="class")
    def boundary_counts(self, tmp_path_factory):
        """Dry-run the MVCC workload and count each durable boundary."""
        path = tmp_path_factory.mktemp("dry") / "index.db"
        acked, crashed, op_counts = run_mvcc_workload(path)
        assert not crashed
        assert acked == len(expected_prefix_states()) - 1
        assert op_counts["wal_append"] > SWEEP_INSERTS
        assert op_counts["wal_fsync"] > 0
        assert op_counts["wal_truncate"] > 0
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
            acked, crashed, _ = run_mvcc_workload(
                path, faults=[Fault(kind, op=op, at=at)]
            )
            assert crashed, f"{kind}@{op}#{at} did not crash the run"
            verify_committed_epoch(path, acked)


# ---------------------------------------------------------------------------
# Targeted boundaries
# ---------------------------------------------------------------------------
class TestMvccRecoveryLanding:
    def test_clean_run_recovers_to_final_epoch(self, tmp_path):
        path = tmp_path / "index.db"
        acked, crashed, _ = run_mvcc_workload(path)
        assert not crashed
        recovered, replay = verify_committed_epoch(path, acked)
        assert recovered == expected_prefix_states()[-1]

    def test_crash_between_append_and_fsync_drops_only_unacked(self, tmp_path):
        counts_path = tmp_path / "count" / "index.db"
        counts_path.parent.mkdir()
        _, _, op_counts = run_mvcc_workload(counts_path)
        path = tmp_path / "index.db"
        acked, crashed, _ = run_mvcc_workload(
            path, faults=[Fault("crash", op="wal_fsync", at=op_counts["wal_fsync"])]
        )
        assert crashed
        verify_committed_epoch(path, acked)

    def test_recovery_without_base_epoch_still_safe(self, tmp_path):
        """``enable_mvcc()`` defaults its base epoch to the reopened
        WAL's ``last_lsn`` — which is at or above the last applied
        COMMIT, so new epochs never collide with recovered ones."""
        path = tmp_path / "index.db"
        acked, crashed, _ = run_mvcc_workload(
            path, faults=[Fault("crash", op="wal_append", at=10)]
        )
        assert crashed
        wal = WriteAheadLog(wal_directory_for(path), segment_bytes=SWEEP_SEGMENT_BYTES)
        store = open_store(FileDisk(path), wal, buffer_bytes=64 * 1024)
        try:
            # MVCC turned on after the open, by hand, with no base epoch.
            base = store.manager.enable_mvcc().latest.epoch
            assert base >= store.replay.last_commit_lsn
            store.engine.mvcc = True
            store.engine.insert(mvcc_rects(1, seed=7)[0])
            assert store.engine.last_commit_epoch > base
        finally:
            store.crash()
