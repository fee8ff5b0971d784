"""Seeded multi-threaded stress harness (the race detector).

Interleaves reader and writer threads over one :class:`ConcurrentIndex`,
then asserts the full invariant battery:

* no worker raised;
* :func:`repro.core.check_index` structural validation passes;
* buffer-pool accounting balances (``resident_bytes`` == sum of frame
  sizes, within capacity) when a storage manager is attached;
* every surviving record is findable and the logical size matches the
  survivor registry (readers-vs-writers lost-update detector).

Each thread's operation stream is driven by its own ``random.Random``
derived from the run seed, so a CI failure reproduces locally from the
seed alone; only the interleaving varies.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from ..core import INDEX_CLASSES
from ..core.config import IndexConfig
from ..core.geometry import Rect
from ..core.packed import pack_tree
from ..core.rtree import RTree
from ..core.srtree import SRTree
from ..core.validation import check_index
from ..exceptions import ConcurrencyError
from ..storage.disk import SimulatedDisk
from ..storage.pager import StorageManager
from ..store import open_store
from .engine import ConcurrentIndex

__all__ = [
    "STRESS_INDEX_TYPES",
    "StressResult",
    "run_stress",
    "run_wal_commit_stress",
]

#: Every variant the engine must serve uniformly.
STRESS_INDEX_TYPES: tuple[str, ...] = tuple(INDEX_CLASSES) + ("Packed SR-Tree",)

#: Skeletons finish their prediction phase during the initial build so the
#: concurrent phase exercises the adapted tree, not the buffering phase.
_PREDICTION_FRACTION = 0.1


@dataclass
class StressResult:
    """Outcome of one stress run (raised out of, never returned, on failure)."""

    kind: str
    seed: int
    elapsed_seconds: float
    searches: int = 0
    batch_searches: int = 0
    inserts: int = 0
    deletes: int = 0
    live_records: int = 0
    contention: dict = field(default_factory=dict)
    buffer: dict = field(default_factory=dict)


def _random_box(rng: random.Random, domain: float) -> Rect:
    cx, cy = rng.uniform(0, domain), rng.uniform(0, domain)
    w, h = rng.uniform(0, domain * 0.05), rng.uniform(0, domain * 0.05)
    return Rect(
        (max(cx - w, 0.0), max(cy - h, 0.0)),
        (min(cx + w, domain), min(cy + h, domain)),
    )


def _make_index(
    kind: str, config: IndexConfig, initial: list[Rect], domain: float
) -> RTree:
    if kind == "Packed SR-Tree":
        return pack_tree([(r, None) for r in initial], config, SRTree)
    # The experiment harness loads on use: it is laboratory code.
    from ..bench.experiment import build_index

    return build_index(
        kind,
        initial,
        config,
        _PREDICTION_FRACTION,
        ((0.0, domain), (0.0, domain)),
    )


def _run_threads(
    bodies: Sequence[Callable[[], None]], *, what: str, join_timeout: float = 120.0
) -> float:
    """Run ``bodies`` on one thread each, released together by a barrier;
    returns the elapsed seconds.

    Re-raises the first exception a worker raised; raises
    :class:`ConcurrencyError` when a worker is still running
    ``join_timeout`` seconds after the start (a deadlock fails the run
    instead of hanging it — the threads are daemons).
    """
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(bodies))

    def guarded(body: Callable[[], None]) -> Callable[[], None]:
        def runner() -> None:
            try:
                barrier.wait(timeout=30.0)
                body()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        return runner

    threads = [
        threading.Thread(target=guarded(body), name=f"{what}-{i}", daemon=True)
        for i, body in enumerate(bodies)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=max(0.0, start + join_timeout - time.perf_counter()))
    elapsed = time.perf_counter() - start
    if any(t.is_alive() for t in threads):
        raise ConcurrencyError(f"{what} worker failed to finish (deadlock?)")
    if errors:
        raise errors[0]
    return elapsed


def run_stress(
    kind: str = "SR-Tree",
    seed: int = 0,
    *,
    readers: int = 3,
    writers: int = 2,
    ops_per_thread: int = 120,
    initial_records: int = 300,
    config: IndexConfig | None = None,
    buffer_bytes: int | None = None,
    domain: float = 1000.0,
    mvcc: bool = False,
) -> StressResult:
    """Run one seeded reader/writer interleaving and validate everything.

    ``mvcc=True`` serves every read from an epoch-pinned snapshot (some
    held across several writer commits to exercise pinning) and extends
    the invariant battery with the MVCC acceptance bar: the read path
    must record **zero** latch acquisitions/waits, and version GC must
    stay live (all superseded versions reclaimed once the last pinning
    snapshot closes — no monotonic version-memory growth).

    Raises (:class:`ConcurrencyError`, :class:`IndexStructureError`, or
    :class:`StorageError`) on any invariant violation; returns the
    :class:`StressResult` tally otherwise.
    """
    config = config or IndexConfig()
    rng = random.Random(seed)
    initial = [_random_box(rng, domain) for _ in range(initial_records)]
    tree = _make_index(kind, config, initial, domain)

    manager: StorageManager | None = None
    if buffer_bytes is not None or mvcc:
        store = open_store(
            SimulatedDisk(),
            tree=tree,
            buffer_bytes=buffer_bytes if buffer_bytes is not None else 1 << 16,
            mvcc=mvcc,
        )
        engine, manager = store.engine, store.manager
    else:
        engine = ConcurrentIndex(tree)

    # Registry of records the writers believe are alive: id -> rect.
    # items() yields fragments; collapsing to one rect per id is fine — any
    # fragment works as a deletion hint (delete degrades to a full scan on
    # a hint miss) and any fragment intersects its own rect for searches.
    registry: dict[int, Rect] = {rid: rect for rid, rect, _ in tree.items()}
    registry_lock = threading.Lock()

    result = StressResult(kind=kind, seed=seed, elapsed_seconds=0.0)
    tally_lock = threading.Lock()

    def reader_body(thread_seed: int) -> None:
        trng = random.Random(thread_seed)
        searches = batches = 0
        for _ in range(ops_per_thread):
            roll = trng.random()
            query = _random_box(trng, domain)
            if mvcc and roll < 0.10:
                # A long-lived snapshot held across writer commits: pin,
                # yield so writers publish past us, then re-run the same
                # query — one snapshot must answer it identically.
                with engine.open_snapshot() as snap:
                    first = snap.search_ids(query)
                    time.sleep(0.001)
                    if snap.search_ids(query) != first:
                        raise ConcurrencyError(
                            f"snapshot at epoch {snap.epoch} changed its answer "
                            "under write churn"
                        )
                searches += 2
            elif roll < 0.70:
                hits = engine.search(query)
                ids = [rid for rid, _ in hits]
                if len(ids) != len(set(ids)):
                    raise ConcurrencyError(
                        f"duplicate record ids in one search result: {ids}"
                    )
                searches += 1
            elif roll < 0.85:
                engine.stab(trng.uniform(0, domain), trng.uniform(0, domain))
                searches += 1
            else:
                engine.batch_search([_random_box(trng, domain) for _ in range(4)])
                batches += 1
        with tally_lock:
            result.searches += searches
            result.batch_searches += batches

    def writer_body(thread_seed: int) -> None:
        trng = random.Random(thread_seed)
        inserts = deletes = 0
        for _ in range(ops_per_thread):
            if trng.random() < 0.6 or not registry:
                rect = _random_box(trng, domain)
                rid = engine.insert(rect, payload=("w", thread_seed))
                with registry_lock:
                    registry[rid] = rect
                inserts += 1
            else:
                with registry_lock:
                    if not registry:
                        continue
                    rid = trng.choice(sorted(registry))
                    rect = registry.pop(rid)
                removed = engine.delete(rid, hint=rect)
                if removed <= 0:
                    raise ConcurrencyError(
                        f"delete of live record {rid} removed nothing"
                    )
                deletes += 1
        with tally_lock:
            result.inserts += inserts
            result.deletes += deletes

    result.elapsed_seconds = _run_threads(
        [partial(reader_body, seed * 1000 + i) for i in range(readers)]
        + [partial(writer_body, seed * 1000 + 500 + i) for i in range(writers)],
        what="stress",
    )

    # -- post-run invariant battery ------------------------------------
    check_index(tree)
    if len(tree) != len(registry):
        raise ConcurrencyError(
            f"logical size {len(tree)} != survivor registry {len(registry)} "
            "(lost update)"
        )
    sample = sorted(registry)[:: max(1, len(registry) // 50)]
    for rid in sample:
        if rid not in tree.search_ids(registry[rid]):
            raise ConcurrencyError(f"surviving record {rid} not findable")
    if manager is not None:
        manager.pool.verify_accounting()
        result.buffer = manager.pool.stats.snapshot()
        manager.detach()
    if mvcc:
        assert manager is not None and manager.versions is not None
        stats = engine.latch_stats
        if stats.read_acquires or stats.read_waits:
            raise ConcurrencyError(
                "MVCC read path touched latches: "
                f"read_acquires={stats.read_acquires} "
                f"read_waits={stats.read_waits}"
            )
        cache = manager.versions
        cache.verify_accounting()
        if cache.pinned_epochs:
            raise ConcurrencyError(f"leaked snapshot pins: {cache.pinned_epochs}")
        # GC liveness: with every snapshot closed, one GC run must leave
        # exactly one version per reachable page — anything more (a
        # superseded version, or the chain of a page whose death no
        # commit reported) would be monotonic version-memory growth.
        engine.run_version_gc()
        cache.verify_accounting()
        if cache.version_count != cache.chains:
            raise ConcurrencyError(
                f"version GC left {cache.version_count} versions across "
                f"{cache.chains} chains (superseded versions not reclaimed)"
            )
        expected = tree.node_count() if len(tree) else 0
        if cache.chains != expected:
            raise ConcurrencyError(
                f"{cache.chains} version chains for {expected} reachable nodes"
            )
    result.live_records = len(registry)
    result.contention = engine.contention_snapshot()
    return result


def run_wal_commit_stress(
    seed: int = 0,
    *,
    writers: int = 4,
    records: int = 200,
    directory: "str | None" = None,
    domain: float = 1000.0,
) -> dict:
    """Concurrent group-commit workload: N writers inserting through a
    WAL-attached engine, sized for a smoke run.  Exercises the full lock
    stack — index write latch, buffer/pager mutexes, and the WAL commit
    CV — which is exactly the path ``repro racecheck`` wants under its
    lock-order recorder.

    Raises on any worker failure; returns the group-commit tally.
    """
    import shutil
    import tempfile

    from ..storage.filedisk import FileDisk
    from ..storage.wal import WriteAheadLog, wal_directory_for

    rng = random.Random(seed)
    rects = [_random_box(rng, domain) for _ in range(records)]
    base = (
        Path(directory)
        if directory is not None
        else Path(tempfile.mkdtemp(prefix="repro-walstress-"))
    )
    base.mkdir(parents=True, exist_ok=True)
    cleanup = directory is None
    path = base / "pages.dat"
    wal = WriteAheadLog(wal_directory_for(path))

    def worker(engine: ConcurrentIndex, slice_rects: list[Rect]) -> None:
        for rect in slice_rects:
            engine.insert(rect)

    try:
        with open_store(FileDisk(path), wal) as store:
            elapsed = _run_threads(
                [partial(worker, store.engine, rects[t::writers]) for t in range(writers)],
                what="WAL commit stress",
            )
    finally:
        if cleanup:
            shutil.rmtree(base, ignore_errors=True)
    stats = wal.stats
    return {
        "seed": seed,
        "writers": writers,
        "records": records,
        "elapsed_seconds": elapsed,
        "commits_acked": stats.commits_acked,
        "fsyncs": stats.fsyncs,
        "commits_per_fsync": stats.commits_per_fsync,
    }
