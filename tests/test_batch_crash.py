"""Crash safety for a batch of inserts over the fault-injecting disk.

The inserts mutate the in-memory tree; durability comes from the
checkpoint that follows.  The sweep here checkpoints a pre-batch
baseline (generation 1), inserts a batch of records one by one, then
crashes the *post-batch* checkpoint at every single disk-operation
boundary in turn.  Whatever the crash point, reopening the store must
recover a structurally valid tree answering queries exactly like the
pre-batch snapshot — or, when the crash lands after the commit record,
exactly like the post-batch snapshot.  Never a torn mixture, never a
checksum violation.
"""

import tempfile
from pathlib import Path

import pytest

from repro import IndexConfig, Rect, SRTree, check_index
from repro.exceptions import SimulatedCrashError
from repro.storage import (
    Fault,
    FaultInjectingDisk,
    FileDisk,
    StorageManager,
    recover_tree,
    verify_page,
)

from .conftest import random_segments
from .test_faults import BASE_SEED, no_sleep_policy, sample_queries

pytestmark = pytest.mark.faults

_CONFIG = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)


def _batch_items(n: int, seed: int) -> list[tuple[Rect, object]]:
    rects = random_segments(n, seed=BASE_SEED * 1000 + seed, long_fraction=0.3)
    return [(rect, f"b{i}") for i, rect in enumerate(rects)]


class TestBatchInsertCrashSweep:
    def _scenario(self, store_dir):
        """Checkpointed baseline tree + an applied-but-unflushed batch.

        Returns the pre-batch and post-batch query answers so recovery
        can be matched against both admissible snapshots.
        """
        path = Path(store_dir) / "index.db"
        tree = SRTree(_CONFIG)
        for rect in random_segments(80, seed=BASE_SEED * 1000 + 31, long_fraction=0.2):
            tree.insert(rect, payload=f"p{len(tree)}")
        disk = FaultInjectingDisk(FileDisk(path), [], seed=BASE_SEED)
        mgr = StorageManager(
            tree, buffer_bytes=64 * 1024, disk=disk, retry_policy=no_sleep_policy()
        )
        mgr.checkpoint()  # generation 1: the committed pre-batch baseline
        queries = sample_queries()
        pre = [tree.search_ids(q) for q in queries]
        for rect, payload in _batch_items(48, seed=32):
            tree.insert(rect, payload)
        check_index(tree)
        post = [tree.search_ids(q) for q in queries]
        return path, mgr, disk, queries, pre, post

    def _verify_recovery(self, path, queries, pre, post):
        recovered = FileDisk(path)
        assert recovered.generation >= 1  # the baseline generation survived
        for page_id in recovered.page_ids():
            data = recovered.read_page(page_id)
            if data.count(0) != len(data):
                verify_page(data, page_id)  # no torn/corrupt pages
        clone, _ = recover_tree(recovered)
        check_index(clone)
        answers = [clone.search_ids(q) for q in queries]
        assert answers in (pre, post), (
            "recovered state is neither the pre-batch nor the post-batch "
            "snapshot — the batch was torn by the crash"
        )
        recovered.close(sync=False)
        return answers == post

    def test_crash_at_every_write_boundary(self):
        # Dry run: count the post-batch checkpoint's disk operations.
        with tempfile.TemporaryDirectory() as dry:
            _, mgr, disk, *_ = self._scenario(dry)
            before = disk.op_counts["any"]
            mgr.checkpoint()
            total_ops = disk.op_counts["any"] - before
            mgr.disk.close()
        assert total_ops > 10

        recovered_post = 0
        for k in range(1, total_ops + 1):
            with tempfile.TemporaryDirectory() as store:
                path, mgr, disk, queries, pre, post = self._scenario(store)
                disk.faults.append(
                    Fault("crash", op="any", at=disk.op_counts["any"] + k)
                )
                with pytest.raises(SimulatedCrashError):
                    mgr.checkpoint()
                if self._verify_recovery(path, queries, pre, post):
                    recovered_post += 1
        # Early crash points must roll back to the pre-batch baseline; the
        # sweep's purpose is proving no point yields a third (torn) state.
        assert recovered_post < total_ops

    def test_torn_write_during_post_batch_checkpoint(self):
        with tempfile.TemporaryDirectory() as dry:
            _, mgr, disk, *_ = self._scenario(dry)
            before = disk.op_counts["write"]
            mgr.checkpoint()
            writes = disk.op_counts["write"] - before
            mgr.disk.close()

        for at in (1, max(1, writes // 2), writes):
            with tempfile.TemporaryDirectory() as store:
                path, mgr, disk, queries, pre, post = self._scenario(store)
                disk.faults.append(
                    Fault("torn_write", op="write", at=disk.op_counts["write"] + at)
                )
                with pytest.raises(SimulatedCrashError):
                    mgr.checkpoint()
                self._verify_recovery(path, queries, pre, post)

    def test_completed_post_batch_checkpoint_is_durable(self):
        with tempfile.TemporaryDirectory() as store:
            path, mgr, disk, queries, pre, post = self._scenario(store)
            mgr.checkpoint()  # generation 2 commits cleanly
            mgr.disk.close()
            assert self._verify_recovery(path, queries, pre, post)  # == post
