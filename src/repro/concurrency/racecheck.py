"""``repro racecheck``: run real workloads under the lock-order recorder.

Three parts, all in one report:

* **selftest** — an intentionally inverted two-lock fixture (AB in one
  thread, BA in another).  The recorder *must* flag it — a detector that
  cannot see a planted inversion proves nothing about a clean run.
* **workloads** — the PR 5 stress harness (readers + writers + buffer
  pool) on the latched read path and on the MVCC snapshot path, the WAL
  group-commit stress, and the sharded serving tier (local-transport
  scatter-gather with a mid-run rebalance), all executed with a
  :class:`~repro.obs.lockgraph.LockOrderRecorder` installed.  The run
  passes when the recorded acquisition graph has no hierarchy ascents,
  no cycles and no lock of an undeclared level, and no thread still
  holds a lock when the workloads are done.
* **overhead probe** — a latch acquire/release microbenchmark with the
  recorder off vs. installed, so the JSON documents what the detector
  costs (the *uninstalled* hot path is one global load + ``None`` check).

The final report is JSON-ready; ``ok`` is True only when the selftest
detected its inversion **and** the workloads recorded a clean graph.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Any, Mapping, Sequence

from ..obs.lockgraph import LockOrderRecorder, TrackedCondition, recording
from .latch import RWLatch
from .stress import _run_threads, run_stress, run_wal_commit_stress

__all__ = [
    "run_inversion_selftest",
    "run_overhead_probe",
    "run_shard_stress",
    "run_racecheck",
]


def run_inversion_selftest() -> dict:
    """Take two mutexes in opposite orders and assert the recorder sees it.

    The threads run sequentially (join between them), so the inversion is
    observed without ever risking the deadlock it represents.
    """
    recorder = LockOrderRecorder()
    outer = TrackedCondition("buffer")
    inner = TrackedCondition("wal")

    def canonical() -> None:  # buffer -> wal: descends, fine
        with outer:
            with inner:
                pass

    def inverted() -> None:  # wal -> buffer: ascends, and closes a cycle
        with inner:
            with outer:
                pass

    with recording(recorder):
        first = threading.Thread(target=canonical)
        first.start()
        first.join()
        second = threading.Thread(target=inverted)
        second.start()
        second.join()

    report = recorder.report()
    return {
        "detected": bool(report["ascending_edges"]) and bool(report["cycles"]),
        "ascending_edges": report["ascending_edges"],
        "cycles": report["cycles"],
    }


def run_overhead_probe(iterations: int = 20000) -> dict:
    """Uninstalled vs. installed cost of one read acquire/release pair."""

    def loop() -> float:
        latch = RWLatch("index")
        guard = latch.read()
        start = time.perf_counter()
        for _ in range(iterations):
            with guard:
                pass
        return time.perf_counter() - start

    baseline = loop()
    with recording(LockOrderRecorder()):
        installed = loop()
    return {
        "iterations": iterations,
        "baseline_seconds": baseline,
        "recording_seconds": installed,
        "overhead_ratio": installed / baseline if baseline > 0 else 0.0,
    }


def run_shard_stress(
    seed: int = 0,
    *,
    shards: int = 2,
    readers: int = 3,
    writers: int = 2,
    ops_per_thread: int = 40,
    buffer_bytes: int = 1 << 14,
) -> dict:
    """Scatter-gather serving tier under the recorder.

    Uses the *local* transport so every shard operation runs on the
    calling thread: the router's topology latch (rank 0) is held across
    the descent into the worker's index latch and buffer mutex, which is
    exactly the edge chain the hierarchy check must see.  Reader threads
    fan out searches and stabs while writer threads insert/delete by
    curve key, and one more thread's ``split_shard`` takes the topology
    latch exclusively against the live traffic.
    """
    import random

    from ..core.geometry import Rect
    from ..sharding import build_router
    from ..workloads.generators import DOMAIN

    bounds = Rect(tuple(lo for lo, _ in DOMAIN), tuple(hi for _, hi in DOMAIN))
    span = tuple(hi - lo for lo, hi in DOMAIN)
    router = build_router(
        shards, bounds=bounds, transport="local", buffer_bytes=buffer_bytes
    )
    counts = {"searches": 0, "inserts": 0, "deletes": 0}
    gate = threading.Lock()

    def rand_rect(rng: random.Random) -> Rect:
        lows = tuple(lo + rng.random() * sp * 0.95 for (lo, _), sp in zip(DOMAIN, span))
        return Rect(lows, tuple(lo + sp * 0.02 for lo, sp in zip(lows, span)))

    def reader(tid: int) -> None:
        rng = random.Random(f"{seed}/shard-reader/{tid}")
        for _ in range(ops_per_thread):
            if rng.random() < 0.5:
                router.search(rand_rect(rng))
            else:
                router.stab(*rand_rect(rng).lows)
        with gate:
            counts["searches"] += ops_per_thread

    def writer(tid: int) -> None:
        rng = random.Random(f"{seed}/shard-writer/{tid}")
        mine: list[int] = []
        inserted = deleted = 0
        for _ in range(ops_per_thread):
            if mine and rng.random() < 0.3:
                router.delete(mine.pop(rng.randrange(len(mine))))
                deleted += 1
            else:
                mine.append(router.insert(rand_rect(rng), tid))
                inserted += 1
        with gate:
            counts["inserts"] += inserted
            counts["deletes"] += deleted

    try:
        rng = random.Random(f"{seed}/shard-load")
        for _ in range(64):
            router.insert(rand_rect(rng), "seed")

        def rebalancer() -> None:
            per_shard = router.stats()["records_per_shard"]
            router.split_shard(max(per_shard, key=per_shard.get))

        _run_threads(
            [partial(reader, t) for t in range(readers)]
            + [partial(writer, t) for t in range(writers)]
            + [rebalancer],
            what="shard stress",
        )
        counts["rebalances"] = router.rebalances
        counts["shards"] = len(router.shard_ids)
    finally:
        router.close()
    return counts


def run_racecheck(
    seed: int = 0,
    *,
    kinds: Sequence[str] = ("SR-Tree",),
    readers: int = 3,
    writers: int = 2,
    ops_per_thread: int = 80,
    buffer_bytes: int = 1 << 16,
    wal_writers: int = 4,
    wal_records: int = 160,
    probe_iterations: int = 20000,
) -> dict:
    """The full racecheck run; see the module docstring for the parts."""
    selftest = run_inversion_selftest()

    recorder = LockOrderRecorder()
    workloads: list[Mapping[str, Any]] = []
    with recording(recorder):
        # Every read holds the shared index latch, so each one is in the
        # graph.
        for kind in kinds:
            stress = run_stress(
                kind,
                seed,
                readers=readers,
                writers=writers,
                ops_per_thread=ops_per_thread,
                buffer_bytes=buffer_bytes,
            )
            workloads.append(
                {
                    "workload": f"stress/{kind}",
                    "searches": stress.searches,
                    "inserts": stress.inserts,
                    "deletes": stress.deletes,
                    "read_acquires": stress.contention["read_acquires"],
                }
            )
        # MVCC snapshots: latch-free readers over COW page versions while
        # writers publish/GC under the exclusive latch — the recorder must
        # see a clean (and notably reader-free) acquisition graph.
        mvcc = run_stress(
            kinds[0] if kinds else "SR-Tree",
            seed,
            readers=readers,
            writers=writers,
            ops_per_thread=ops_per_thread,
            buffer_bytes=buffer_bytes,
            mvcc=True,
        )
        workloads.append(
            {
                "workload": f"stress-mvcc/{kinds[0] if kinds else 'SR-Tree'}",
                "searches": mvcc.searches,
                "inserts": mvcc.inserts,
                "deletes": mvcc.deletes,
                "snapshot_reads": mvcc.contention.get("snapshot_reads", 0),
                "read_latch_acquires": mvcc.contention.get("read_acquires", 0),
            }
        )
        wal = run_wal_commit_stress(seed, writers=wal_writers, records=wal_records)
        workloads.append(
            {
                "workload": "wal-group-commit",
                "commits_acked": wal["commits_acked"],
                "commits_per_fsync": wal["commits_per_fsync"],
            }
        )
        # Sharded serving: the router's topology latch is the new rank-0
        # level; local-transport traffic descends router -> index ->
        # buffer on one thread, and a mid-run split holds it
        # exclusively — all of which must leave the graph clean.
        shard = run_shard_stress(
            seed, readers=readers, writers=writers, ops_per_thread=ops_per_thread
        )
        workloads.append({"workload": "stress-shard", **shard})
    graph = recorder.report()
    probe = run_overhead_probe(probe_iterations)
    return {
        "version": 1,
        "seed": seed,
        "ok": bool(selftest["detected"]) and bool(graph["ok"]),
        "selftest": selftest,
        "workloads": workloads,
        "lock_order": graph,
        "overhead_probe": probe,
    }
