"""The six serving-tier bench scenarios (``repro bench <scenario>``).

Each scenario is only what is unique to it; datasets, index builds, the
serving stack, the client driver, the reference comparison and the report
tail are :mod:`repro.bench.harness`'s.  A scenario's keyword defaults are
its parameters, its acceptance bars and printed tables are the data in
its ``@scenario`` header, and it returns ``(metrics, latencies)`` for the
v2 report.

* ``batch`` — cold-pool buffer faults of one-at-a-time searches vs. one
  shared-traversal batch;
* ``concurrent`` — latched read throughput at 1/2/4 reader threads over
  a stalling pool, against an unlatched sequential reference;
* ``mvcc`` — snapshot reads vs. latched reads beside a churn writer,
  sampled snapshots replayed against the commit log;
* ``slo`` — the multi-tenant open-loop traffic schedule with per-(class,
  tenant) latency tails, a traced latch/disk/CPU decomposition and a
  recorder-overhead probe;
* ``wal`` — group commit under concurrent writers, a crash sweep over
  the WAL boundaries, recovery time against WAL length;
* ``shard`` — scatter-gather read throughput at 1/2/4 process shards
  against a single-process engine, warm-up first and stalls after.
"""

from __future__ import annotations

import itertools
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from ..concurrency.engine import ConcurrentIndex
from ..core.geometry import Rect
from ..core.rtree import RTree
from ..exceptions import ConcurrencyError, StorageError
from ..obs.latency import LatencyRecorder, format_ns, span_breakdown
from ..obs.sinks import RingBufferSink
from ..obs.tracer import Tracer
from ..sharding import build_router
from ..storage.disk import LatencyDisk
from ..storage.faults import Fault, FaultInjectingDisk
from ..storage.filedisk import FileDisk
from ..storage.wal import WriteAheadLog, scan_wal, wal_directory_for
from ..store import open_store
from ..workloads.generators import DOMAIN, dataset_R1
from ..workloads.queries import uniform_queries
from ..workloads.traffic import TrafficConfig, generate_schedule, run_traffic
from .harness import (
    BATCH_INDEX_TYPES,
    CORRECTNESS,
    TIMING,
    Bar,
    Scenario,
    Table,
    build_tree,
    divergences,
    drive,
    scenario,
    workload,
)

__all__ = ["SCENARIOS"]

_INDEX = "index type"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _times(value: float) -> str:
    return f"{value:.2f}x"


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
def _cold_pool_search(
    tree: RTree,
    answer: Callable[[ConcurrentIndex], list[list[tuple[int, Any]]]],
    buffer_bytes: int,
) -> tuple[list[set[int]], dict[str, Any]]:
    """``answer(engine)`` from a cold pool: the id sets and what they cost."""
    before = tree.stats.search_node_accesses
    with open_store(LatencyDisk(read_delay=0.0), tree=tree, buffer_bytes=buffer_bytes) as store:
        start = time.perf_counter()
        results = answer(store.engine)
        wall = time.perf_counter() - start
    return [{rid for rid, _ in hits} for hits in results], {
        "faults": store.manager.pool.stats.misses,
        "wall_seconds": wall,
        "node_accesses": tree.stats.search_node_accesses - before,
    }


@scenario(
    bars=(
        Bar("result_divergences", "==", 0, CORRECTNESS),
        # Fault counts repeat exactly, but the 2x bar is the 20k workload's:
        # smaller trees have fewer upper levels to share.
        Bar("min_fault_reduction", ">=", 2.0, TIMING),
    ),
    tables=(
        Table(
            "search",
            _INDEX,
            (
                ("seq faults", "sequential_faults", "d"),
                ("batch faults", "batched_faults", "d"),
                ("reduction", "fault_reduction", _times),
            ),
        ),
    ),
)
def batch(
    records: int = 20_000,
    batch_size: int = 64,
    buffer_bytes: int = 32 * 1024,
    seed: int = 1991,
    area_fraction: float = 0.05,
    index_types: Sequence[str] = BATCH_INDEX_TYPES,
) -> tuple[dict, dict]:
    """Batched vs. one-at-a-time search.

    The same ``batch_size`` queries are answered twice through a
    deliberately small pool, each time from cold so the miss counts
    compare traversal shapes, not warm-up luck: one descent per query
    (every descent re-faults the upper levels) against one shared
    traversal (each node faulted at most once for the batch).
    ``fault_reduction`` is the ratio.
    """
    dataset, queries = workload(records, batch_size, area_fraction, seed)
    search: dict[str, dict] = {}
    for kind in index_types:
        tree = build_tree(kind, dataset)
        sequential, one = _cold_pool_search(
            tree, lambda engine: [engine.search(q) for q in queries], buffer_bytes
        )
        batched, shared = _cold_pool_search(
            tree, lambda engine: engine.batch_search(queries), buffer_bytes
        )
        search[kind] = {
            **{f"sequential_{key}": value for key, value in one.items()},
            **{f"batched_{key}": value for key, value in shared.items()},
            "fault_reduction": (
                one["faults"] / shared["faults"] if shared["faults"] else float(one["faults"])
            ),
            "result_divergences": divergences(batched, sequential),
        }
    metrics = {
        "search": search,
        "min_fault_reduction": min(m["fault_reduction"] for m in search.values()),
        "result_divergences": sum(m["result_divergences"] for m in search.values()),
    }
    return metrics, {}


# ----------------------------------------------------------------------
# concurrent
# ----------------------------------------------------------------------
@scenario(
    bars=(
        Bar("result_divergences", "==", 0, CORRECTNESS),
        Bar("min_speedup", ">=", 2.0, TIMING),
    ),
    tables=(
        Table(
            "per_index",
            _INDEX,
            (
                ("{} thr (q/s)", "threads.*.throughput_qps", ".1f"),
                ("speedup", "speedup", _times),
                ("diverge", "result_divergences", "d"),
            ),
        ),
    ),
)
def concurrent(
    records: int = 20_000,
    queries: int = 96,
    buffer_bytes: int = 32 * 1024,
    seed: int = 1991,
    read_delay: float = 0.0002,
    area_fraction: float = 0.02,
    index_types: Sequence[str] = BATCH_INDEX_TYPES,
    thread_counts: Sequence[int] = (1, 2, 4),
) -> tuple[dict, dict]:
    """Latched concurrent read throughput.

    The same query set is answered at each of ``thread_counts`` reader
    threads, from a fresh cold pool and latency disk each time so every
    run pays the same page-fault bill.  Fault stalls release the
    interpreter lock, so readers overlap their I/O waits; ``speedup`` is
    the last thread count's throughput over the first's, and every answer
    is compared with an unlatched, unpaged sequential pass.
    """
    dataset, query_set = workload(records, queries, area_fraction, seed)
    per_index: dict[str, dict] = {}
    for kind in index_types:
        tree = build_tree(kind, dataset)
        reference = [tree.search_ids(q) for q in query_set]
        runs: dict[str, dict[str, Any]] = {}
        for threads in thread_counts:
            disk = LatencyDisk(read_delay=read_delay)
            with open_store(disk, tree=tree, buffer_bytes=buffer_bytes) as store:
                got, _, wall = drive(store.engine.search_ids, query_set, threads)
            pool = store.manager.pool.stats
            runs[str(threads)] = {
                "wall_seconds": wall,
                "throughput_qps": _ratio(len(query_set), wall),
                "buffer_misses": pool.misses,
                "buffer_hits": pool.hits,
                "load_waits": pool.load_waits,
                "result_divergences": divergences(got, reference),
            }
        per_index[kind] = {
            "threads": runs,
            "speedup": _ratio(
                runs[str(thread_counts[-1])]["throughput_qps"],
                runs[str(thread_counts[0])]["throughput_qps"],
            ),
            "result_divergences": sum(r["result_divergences"] for r in runs.values()),
            "contention": store.engine.contention_snapshot(),
        }
    metrics = {
        "per_index": per_index,
        "min_speedup": min(m["speedup"] for m in per_index.values()),
        "result_divergences": sum(m["result_divergences"] for m in per_index.values()),
    }
    return metrics, {}


# ----------------------------------------------------------------------
# mvcc
# ----------------------------------------------------------------------
def _churn_writer(
    engine: ConcurrentIndex,
    stop: threading.Event,
    seed: int,
    counters: dict[str, int],
    think_seconds: float,
) -> None:
    """Insert/delete continuously until ``stop`` is set.

    ``think_seconds`` of pause between writes keeps the churn rate
    comparable across modes: without it the writer-preferring index
    latch lets an unthrottled writer starve latched readers outright,
    which measures starvation, not read-path cost.
    """
    rng = random.Random(seed)
    own: list[tuple[int, Rect]] = []
    while not stop.is_set():
        if think_seconds:
            time.sleep(think_seconds)
        if own and rng.random() < 0.4:
            rid, rect = own.pop(rng.randrange(len(own)))
            engine.delete(rid, hint=rect)
            counters["deletes"] += 1
        else:
            center = [rng.uniform(lo, hi) for lo, hi in DOMAIN]
            half = [(hi - lo) * 0.002 for lo, hi in DOMAIN]
            rect = Rect(
                tuple(c - h for c, h in zip(center, half)),
                tuple(c + h for c, h in zip(center, half)),
            )
            own.append((engine.insert(rect, payload="churn"), rect))
            counters["inserts"] += 1


def _oracle_check(
    base: dict[int, list[Rect]],
    commit_log: list[tuple[int, Any]],
    queries: list[Rect],
    samples: list[tuple[int, int, set[int]]],
) -> int:
    """Replay the commit log to each sampled epoch; count divergences.

    The oracle is the registry of live records: the base commit's
    fragments plus every committed insert/delete note at or below the
    pinned epoch.  A record intersects a query exactly when one of its
    fragments does (fragments tile the original rectangle).
    """
    registry = {rid: list(rects) for rid, rects in base.items()}
    log_pos = 0
    wrong = 0
    for epoch, qi, got in sorted(samples, key=lambda s: s[0]):
        while log_pos < len(commit_log) and commit_log[log_pos][0] <= epoch:
            note = commit_log[log_pos][1]
            if note[0] == "insert":
                registry[note[1]] = [note[2]]
            elif note[0] == "delete":
                registry.pop(note[1], None)
            log_pos += 1
        query = queries[qi]
        expected = {
            rid
            for rid, rects in registry.items()
            if any(r.intersects(query) for r in rects)
        }
        if got != expected:
            wrong += 1
    return wrong


@scenario(
    bars=(
        Bar("oracle_divergences", "==", 0, CORRECTNESS),
        Bar("mvcc_read_latch_events", "==", 0, CORRECTNESS),
        Bar("min_throughput_ratio", ">=", 1.0, TIMING),
    ),
    tables=(
        Table(
            "per_index",
            _INDEX,
            (
                ("latched q/s", "latched.throughput_qps", ".1f"),
                ("mvcc q/s", "mvcc.throughput_qps", ".1f"),
                ("ratio", "throughput_ratio", _times),
                ("latched p999us", "latched.p999_us", ".0f"),
                ("mvcc p999us", "mvcc.p999_us", ".0f"),
                ("diverge", "mvcc.oracle_divergences", "d"),
            ),
        ),
    ),
)
def mvcc(
    records: int = 20_000,
    queries: int = 96,
    buffer_bytes: int = 32 * 1024,
    seed: int = 1991,
    read_delay: float = 0.0002,
    area_fraction: float = 0.02,
    index_types: Sequence[str] = BATCH_INDEX_TYPES,
    threads: int = 4,
    rounds: int = 2,
    sample_every: int = 8,
    churn_think: float = 0.002,
) -> tuple[dict, dict]:
    """MVCC snapshot reads vs. latched reads under write churn.

    Each index is served twice — under the shared index latch and by
    snapshots — with ``threads`` readers making ``rounds`` passes
    over the query set while one writer inserts and deletes, pausing
    ``churn_think`` seconds between writes.  The workload parameters
    mirror ``concurrent`` so the two reports compare directly.  Snapshots
    never fault or latch, so they should win throughput and tail;
    every ``sample_every``-th snapshot read is replayed against the
    version cache's commit log and must match it exactly, and MVCC mode
    must acquire no read latch.
    """
    dataset, query_set = workload(records, queries, area_fraction, seed)
    numbered = list(enumerate(query_set))

    def reads_under_churn(kind: str, snapshots: bool) -> dict[str, Any]:
        """``threads`` readers beside one churn writer, latched or by snapshot."""
        tree = build_tree(kind, dataset)
        samples: list[tuple[int, int, set[int]]] = []
        reads = itertools.count()
        disk = LatencyDisk(read_delay=read_delay)
        with open_store(disk, tree=tree, buffer_bytes=buffer_bytes, mvcc=snapshots) as store:
            engine, manager = store.engine, store.manager

            def snapshot_read(item: tuple[int, Rect]) -> None:
                with engine.open_snapshot() as snap:
                    ids = snap.search_ids(item[1])
                if next(reads) % sample_every == 0:
                    samples.append((snap.epoch, item[0], ids))

            base: dict[int, list[Rect]] = {}
            if snapshots:
                assert manager.versions is not None
                manager.versions.commit_log = []  # armed for _oracle_check
                for rid, rect, _ in tree.items():
                    base.setdefault(rid, []).append(rect)
            stop = threading.Event()
            churn = {"inserts": 0, "deletes": 0}
            writer = threading.Thread(
                target=_churn_writer,
                args=(engine, stop, seed + 17, churn, churn_think),
                name="bench-mvcc-writer",
            )
            writer.start()
            try:
                _, recorder, wall = drive(
                    snapshot_read if snapshots else lambda item: engine.search(item[1]),
                    numbered,
                    threads,
                    rounds,
                )
            finally:
                stop.set()
                writer.join(timeout=60.0)
            if writer.is_alive():
                raise ConcurrencyError("churn writer failed to stop")
        stats = engine.latch_stats
        doc: dict[str, Any] = {
            "reads": recorder.count,
            "wall_seconds": wall,
            "throughput_qps": _ratio(recorder.count, wall),
            "p50_us": recorder.quantile(0.5) / 1000.0,
            "p99_us": recorder.quantile(0.99) / 1000.0,
            "p999_us": recorder.quantile(0.999) / 1000.0,
            "churn_inserts": churn["inserts"],
            "churn_deletes": churn["deletes"],
            "read_latch_acquires": stats.read_acquires,
            "read_latch_waits": stats.read_waits,
        }
        if snapshots:
            assert manager.versions is not None
            doc["snapshot_reads"] = engine.snapshot_reads
            doc["oracle_samples"] = len(samples)
            doc["oracle_divergences"] = _oracle_check(
                base, manager.versions.commit_log, query_set, samples
            )
            doc["versions"] = manager.versions.stats.snapshot()
        return doc

    per_index: dict[str, dict] = {}
    for kind in index_types:
        modes = {
            "latched": reads_under_churn(kind, snapshots=False),
            "mvcc": reads_under_churn(kind, snapshots=True),
        }
        per_index[kind] = {
            **modes,
            "throughput_ratio": _ratio(
                modes["mvcc"]["throughput_qps"], modes["latched"]["throughput_qps"]
            ),
            "p999_ratio": _ratio(modes["mvcc"]["p999_us"], modes["latched"]["p999_us"]),
        }
    snapshot_side = [m["mvcc"] for m in per_index.values()]
    metrics = {
        "per_index": per_index,
        "min_throughput_ratio": min(m["throughput_ratio"] for m in per_index.values()),
        "oracle_divergences": sum(m["oracle_divergences"] for m in snapshot_side),
        "mvcc_read_latch_events": sum(
            m["read_latch_acquires"] + m["read_latch_waits"] for m in snapshot_side
        ),
    }
    return metrics, {}


# ----------------------------------------------------------------------
# slo
# ----------------------------------------------------------------------
def _recorder_overhead(tree: RTree, probe_queries: int, seed: int) -> float:
    """Relative slowdown of the tracer-off recording hot path.

    Overhead = (per-op cost of the added instrumentation) / (per-op cost
    of the bare loop).  The instrumentation — exactly what
    :func:`~repro.workloads.traffic.run_traffic` adds per operation when
    no tracer is attached: two ``perf_counter_ns`` reads and one
    recorder increment — is timed on its own rather than inside the
    query loop: a ratio of two nearly-equal multi-millisecond wall
    timings jitters by far more than the ~half-microsecond cost being
    measured, while both loops here are stable under a best-of-five
    minimum.
    """
    coords = [tuple(q.lows) for q in uniform_queries(probe_queries, 0.0005, seed, DOMAIN)]
    recorder = LatencyRecorder()

    def bare() -> int:
        start = time.perf_counter_ns()
        for c in coords:
            tree.stab(*c)
        return time.perf_counter_ns() - start

    def instrumentation() -> int:
        start = time.perf_counter_ns()
        for _ in coords:
            op_start = time.perf_counter_ns()
            recorder.record(time.perf_counter_ns() - op_start)
        return time.perf_counter_ns() - start

    bare()  # warm caches before either timed pass
    instrumentation()
    bare_ns = min(bare() for _ in range(5))
    instr_ns = min(instrumentation() for _ in range(5))
    return _ratio(instr_ns, bare_ns)


@scenario(
    bars=(
        Bar("total_errors", "==", 0, CORRECTNESS),
        Bar("min_accounted_fraction", ">=", 0.9, TIMING),
        Bar("max_accounted_fraction", "<=", 1.1, TIMING),
        Bar("recorder_overhead_fraction", "<=", 0.05, TIMING),
    ),
    tables=(
        Table(
            "per_index",
            _INDEX,
            (
                ("ops", "ops_done", "d"),
                ("behind", "behind_schedule", "d"),
                ("errors", "errors", "d"),
                ("worst p99", "worst_p99_ns", format_ns),
                ("worst p999", "worst_p999_ns", format_ns),
                ("acct", "breakdown.accounted_fraction", ".2f"),
            ),
        ),
    ),
)
def slo(
    records: int = 20_000,
    ops: int = 2_000,
    rate: float = 2_000.0,
    threads: int = 4,
    buffer_bytes: int = 32 * 1024,
    seed: int = 1991,
    read_delay: float = 0.0002,
    breakdown_ops: int = 200,
    overhead_queries: int = 512,
    index_types: Sequence[str] = BATCH_INDEX_TYPES,
) -> tuple[dict, dict]:
    """Tail latency under multi-tenant open-loop traffic.

    Every index is driven by the *same* schedule
    (:mod:`repro.workloads.traffic`: ``ops`` operations at a mean
    ``rate`` per second, ``threads`` workers), so their tails compare.
    Latency is recorded per (query class, tenant) against each
    operation's **scheduled** start (the coordinated-omission correction,
    DESIGN.md) and reported as ``<index>/<class>/<tenant>`` series, which
    ``repro slo`` evaluates objectives against; failed operations go to
    their own ``<index>/error/...`` series.  Two self-checks ride along:
    a single-threaded traced re-run of the first ``breakdown_ops``
    operations splits each ``serve`` span into latch-wait / disk-read /
    CPU time (``accounted_fraction``: how much of the wall duration those
    explain), and ``recorder_overhead_fraction`` times the tracer-off
    recording path over ``overhead_queries`` stabbing queries.
    """
    dataset = dataset_R1(records, seed=seed)
    schedule = generate_schedule(TrafficConfig(ops=ops, rate=rate, seed=seed))
    traced_schedule = schedule[:breakdown_ops]
    latencies: dict[str, dict] = {}
    per_index: dict[str, dict] = {}
    errors: dict[str, dict] = {}
    for kind in index_types:
        with open_store(
            LatencyDisk(read_delay=read_delay),
            tree=build_tree(kind, dataset),
            buffer_bytes=buffer_bytes,
        ) as store:
            result = run_traffic(store.engine, schedule, threads=threads)
        served = result.latencies.snapshot(prefix=f"{kind}/")
        # Failed ops live in their own series, never mixed into the
        # success histograms.
        failed = {
            name: summary
            for name, summary in result.error_latencies.snapshot(
                prefix=f"{kind}/error/"
            ).items()
            if summary["count"]
        }
        latencies.update(served)
        latencies.update(failed)
        errors[kind] = {
            "count": result.errors,
            "series": {name: s["count"] for name, s in failed.items()},
        }

        # Single-threaded, so the ring buffer holds one seq-ordered stream
        # and every latch/page event between a `serve` begin/end pair
        # belongs to that operation; on a fresh tree, so the main run's
        # inserts do not shift the traced workload between index types.
        sink = RingBufferSink(capacity=len(traced_schedule) * 64)
        tracer = Tracer(sink)
        with open_store(
            LatencyDisk(read_delay=read_delay),
            tree=build_tree(kind, dataset),
            buffer_bytes=buffer_bytes,
            tracer=tracer,
        ) as traced:
            run_traffic(traced.engine, traced_schedule, threads=1, tracer=tracer)
        per_index[kind] = {
            "ops_done": result.ops_done,
            "errors": result.errors,
            "behind_schedule": result.behind_schedule,
            "wall_seconds": result.wall_seconds,
            "throughput_ops": _ratio(result.ops_done, result.wall_seconds),
            "buffer_misses": store.manager.pool.stats.misses,
            "buffer_hits": store.manager.pool.stats.hits,
            "per_tenant_ops": result.per_tenant_ops,
            "per_class_ops": result.per_class_ops,
            "worst_p99_ns": max(
                (s["quantiles"]["p99"] for s in served.values()), default=0
            ),
            "worst_p999_ns": max(
                (s["quantiles"]["p999"] for s in served.values()), default=0
            ),
            "breakdown": span_breakdown(sink.events)["totals"],
        }
    fractions = [m["breakdown"]["accounted_fraction"] for m in per_index.values()]
    metrics = {
        "per_index": per_index,
        "min_accounted_fraction": min(fractions),
        "max_accounted_fraction": max(fractions),
        "recorder_overhead_fraction": _recorder_overhead(
            build_tree(index_types[0], dataset), overhead_queries, seed + 7
        ),
        "total_errors": sum(m["errors"] for m in per_index.values()),
        "errors": errors,
    }
    return metrics, latencies


# ----------------------------------------------------------------------
# wal
# ----------------------------------------------------------------------
#: WAL boundaries the crash sweep targets, with the fault kind injected
#: at each (torn appends only make sense on the append path).
_SWEEP_BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("wal_append", "crash"),
    ("wal_append", "torn_write"),
    ("wal_fsync", "crash"),
    ("wal_truncate", "crash"),
)


def _store(
    base: Path,
    name: str,
    segment_bytes: int,
    *,
    fsync_delay: float = 0.0,
    fault: Fault | None = None,
    seed: int = 0,
) -> tuple[Path, Any, WriteAheadLog]:
    """A fresh ``base/name`` store: its page file path, the
    :class:`FileDisk` (behind a seeded fault table when ``fault``) and
    the write-ahead log beside it."""
    store = base / name
    if store.exists():
        shutil.rmtree(store)  # a reused --store-dir starts clean
    store.mkdir(parents=True)
    path = store / "pages.dat"
    disk: Any = FileDisk(path)
    if fault is not None:
        disk = FaultInjectingDisk(disk, [fault], seed=seed)
    wal = WriteAheadLog(
        wal_directory_for(path), fsync_delay=fsync_delay, segment_bytes=segment_bytes
    )
    return path, disk, wal


def _group_commit(
    base: Path,
    dataset: list[Rect],
    writer_counts: Sequence[int],
    fsync_delay: float,
    segment_bytes: int,
) -> tuple[dict[str, Any], dict[str, dict]]:
    """Concurrent writers, each commit acknowledged once its LSN is durable."""
    per_writers: dict[str, dict[str, Any]] = {}
    latencies: dict[str, dict] = {}
    for writers in writer_counts:
        _, disk, wal = _store(
            base, f"group-commit-{writers}", segment_bytes, fsync_delay=fsync_delay
        )
        with open_store(disk, wal) as store:
            _, _, wall = drive(store.engine.insert, dataset, writers)
        stats = wal.stats
        per_writers[str(writers)] = {
            "wall_seconds": wall,
            "commits_acked": stats.commits_acked,
            "fsyncs": stats.fsyncs,
            "commits_per_fsync": stats.commits_per_fsync,
            "commits_per_second": _ratio(stats.commits_acked, wall),
            "deltas": stats.deltas,
            "full_images": stats.full_images,
        }
        latencies[f"wal.commit/{writers}w"] = wal.commit_latency.summary()
    peak = per_writers[str(writer_counts[-1])]["commits_per_fsync"]
    return {"writers": per_writers, "peak_commits_per_fsync": peak}, latencies


def _acked_missing(path: Path, acked: list[tuple[int, Rect]]) -> int:
    """Recover the store and count acked commits missing from the tree."""
    with open_store(FileDisk(path), WriteAheadLog(wal_directory_for(path))) as store:
        search_ids = store.engine.search_ids
        return sum(1 for record_id, rect in acked if record_id not in search_ids(rect))


def _crash_sweep(
    base: Path,
    dataset: list[Rect],
    sweep_points: int,
    seed: int,
    segment_bytes: int,
    checkpoint_every: int,
) -> dict[str, Any]:
    """Seeded crashes at the WAL boundaries; no acked commit may be lost."""

    def workload_until(
        fault: Fault, name: str, fault_seed: int
    ) -> tuple[int, int, bool, dict[str, int]]:
        """Insert ``dataset`` one logged commit at a time until done or
        crashed, then recover the store.  Returns how many commits were
        acknowledged, how many of those recovery lost, whether the run
        crashed, and the disk's per-op counters (for sweep planning)."""
        path, disk, wal = _store(base, name, segment_bytes, fault=fault, seed=fault_seed)
        acked: list[tuple[int, Rect]] = []
        try:
            with open_store(disk, wal) as store:
                for i, rect in enumerate(dataset):
                    acked.append((store.engine.insert(rect), rect))
                    if (i + 1) % checkpoint_every == 0:
                        store.manager.checkpoint()
            crashed = False
        except StorageError:
            # SimulatedCrashError / TornWalAppend / broken-log follow-ups
            # all derive from StorageError: the simulated process is dead
            # (leaving the block dropped the store as a crash does).
            crashed = True
        return len(acked), _acked_missing(path, acked), crashed, dict(disk.op_counts)

    # A dry run (its fault never fires, but puts the counting wrapper on)
    # learns how many times this workload crosses each boundary; the
    # sweep samples crash positions from that range.
    *_, op_counts = workload_until(Fault("transient", op="read", at=10**9), "sweep-dry", seed)
    by_boundary: dict[str, dict[str, int]] = {}
    point = 0
    for op, kind in _SWEEP_BOUNDARIES:
        total_ops = op_counts.get(op, 0)
        if not total_ops:
            continue
        positions = sorted(
            {1 + (k * (total_ops - 1)) // max(1, sweep_points - 1) for k in range(sweep_points)}
        )
        row = {"points": len(positions), "crashes": 0, "acked_checked": 0, "acked_missing": 0}
        for at in positions:
            point += 1
            acked, missing, crashed, _ = workload_until(
                Fault(kind, op=op, at=at), f"sweep-{point:03d}-{op}-{kind}-{at}", seed + point
            )
            row["crashes"] += int(crashed)
            row["acked_checked"] += acked
            row["acked_missing"] += missing
        by_boundary[f"{op}/{kind}"] = row
    rows = by_boundary.values()
    return {
        "sweep_points": point,
        "crashes": sum(r["crashes"] for r in rows),
        "acked_commits_checked": sum(r["acked_checked"] for r in rows),
        "acked_missing": sum(r["acked_missing"] for r in rows),
        "by_boundary": by_boundary,
    }


def _recovery_curve(
    base: Path, dataset: list[Rect], replay_lengths: Sequence[int], segment_bytes: int
) -> dict[str, dict[str, Any]]:
    """Commit K transactions, die without a checkpoint, time the recovery."""
    rows: dict[str, dict[str, Any]] = {}
    for length in replay_lengths:
        path, disk, wal = _store(base, f"recovery-{length}", segment_bytes)
        store = open_store(disk, wal)
        for rect in dataset[:length]:
            store.engine.insert(rect)
        # No checkpoint: recovery must replay the whole tail.
        store.crash()
        wal_bytes = scan_wal(wal_directory_for(path)).bytes_scanned
        start = time.perf_counter()
        reopened = open_store(FileDisk(path), WriteAheadLog(wal_directory_for(path)))
        recovery_seconds = time.perf_counter() - start
        assert reopened.replay is not None
        rows[str(length)] = {
            "commits": length,
            "wal_bytes": wal_bytes,
            "records_replayed": reopened.replay.records_applied,
            "recovery_seconds": recovery_seconds,
            "recovered_size": len(reopened.engine),
        }
        reopened.close()
    return rows


@scenario(
    bars=(
        Bar("durability.acked_missing", "==", 0, CORRECTNESS),
        Bar("group_commit.peak_commits_per_fsync", ">", 1.0, TIMING),
    ),
    tables=(
        Table(
            "group_commit.writers",
            "writers",
            (
                ("commits/s", "commits_per_second", ".1f"),
                ("fsyncs", "fsyncs", "d"),
                ("commits/fsync", "commits_per_fsync", ".2f"),
            ),
        ),
        Table(
            "durability.by_boundary",
            "crash sweep",
            (
                ("points", "points", "d"),
                ("crashes", "crashes", "d"),
                ("acked checked", "acked_checked", "d"),
                ("missing after recovery", "acked_missing", "d"),
            ),
        ),
        Table(
            "recovery",
            "recovery: commits",
            (
                ("wal bytes", "wal_bytes", "d"),
                ("records", "records_replayed", "d"),
                ("recovery ms", "recovery_seconds", lambda s: f"{s * 1e3:.1f}"),
                ("size", "recovered_size", "d"),
            ),
        ),
    ),
)
def wal(
    commits: int = 160,
    records: int = 120,
    writer_counts: Sequence[int] = (1, 2, 4),
    fsync_delay: float = 0.002,
    segment_bytes: int = 64 * 1024,
    sweep_points: int = 4,
    checkpoint_every: int = 40,
    replay_lengths: Sequence[int] = (50, 100, 200, 400),
    seed: int = 1991,
    store_dir: str | None = None,
) -> tuple[dict, dict]:
    """Write-ahead log: group commit, crash durability, recovery time.

    Three measurements over a WAL beside a real :class:`FileDisk`, with
    ``segment_bytes`` segments.  *Group commit*: each of ``writer_counts``
    writer threads commits its share of ``commits`` inserts; the log's
    ``fsync_delay`` simulates device-sync latency, so batching is what
    separates the writer counts (``commits_per_fsync`` should exceed 1
    at the last count).  *Crash sweep*: a ``records``-insert workload
    checkpointing every ``checkpoint_every`` (so truncation boundaries
    exist) is crashed at ``sweep_points`` positions per WAL append /
    fsync / truncate boundary, torn appends included; after recovery
    every commit acknowledged before the crash must be present.
    *Recovery curve*: commit K transactions for each K in
    ``replay_lengths``, die without a checkpoint, time
    :func:`~repro.store.open_store`.  The stores live in a
    temporary directory unless ``store_dir`` names one, which is then
    kept (``repro fsck`` can re-check every store in it).
    """
    base = Path(store_dir) if store_dir else Path(tempfile.mkdtemp(prefix="bench-wal-"))
    base.mkdir(parents=True, exist_ok=True)
    dataset = dataset_R1(max(commits, records, *replay_lengths), seed=seed)
    try:
        group, latencies = _group_commit(
            base, dataset[:commits], writer_counts, fsync_delay, segment_bytes
        )
        metrics = {
            "group_commit": group,
            "durability": _crash_sweep(
                base, dataset[:records], sweep_points, seed, segment_bytes, checkpoint_every
            ),
            "recovery": _recovery_curve(base, dataset, replay_lengths, segment_bytes),
        }
    finally:
        if store_dir is None:
            shutil.rmtree(base, ignore_errors=True)
    return metrics, latencies


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------
_BOUNDS = Rect(tuple(lo for lo, _ in DOMAIN), tuple(hi for _, hi in DOMAIN))


@scenario(
    bars=(
        Bar("divergences", "==", 0, CORRECTNESS),
        Bar("max_speedup", ">=", 2.0, TIMING),
    ),
    tables=(
        Table(
            "per_config",
            "config",
            (
                ("qps", "throughput_qps", ".0f"),
                ("speedup", "speedup", ".2f"),
                ("diverge", "divergences", "d"),
                ("hits", "buffer_hits", "d"),
                ("misses", "buffer_misses", "d"),
            ),
        ),
    ),
)
def shard(
    records: int = 8_000,
    queries: int = 300,
    shard_counts: Sequence[int] = (1, 2, 4),
    threads: int = 8,
    buffer_bytes: int = 128 * 1024,
    read_delay: float = 0.005,
    area_fraction: float = 0.0005,
    seed: int = 1991,
    timeout_s: float = 60.0,
) -> tuple[dict, dict]:
    """Sharded scatter-gather scale-out against one process.

    A single-process engine and a router over each of ``shard_counts``
    process shards serve the identical dataset and query stream from
    ``threads`` client threads, every process with the same
    ``buffer_bytes`` pool — so N shards hold N times the aggregate cache
    over 1/N-sized trees, with curve-range pruning keeping most queries
    on one shard.  Every configuration loads with the disk delay at
    zero and runs one untimed warm-up pass (first-touch misses are free
    on both sides); only then is the delay raised to ``read_delay`` and
    the pass timed: steady-state serving, where a fleet whose per-shard
    working set fits its pool runs miss-free while the baseline's misses
    are capacity misses no warm-up removes.  ``speedup`` is throughput
    over the baseline's; the timed pass's answers are compared with a
    sequential reference tree.  ``timeout_s`` is the router's per-gather
    deadline.
    """
    dataset, query_set = workload(records, queries, area_fraction, seed)
    reference = build_tree("R-Tree", dataset)
    expected = [sorted(reference.search(q)) for q in query_set]

    def row(got: list, wall: float, hits: int, misses: int) -> dict[str, Any]:
        return {
            "wall_seconds": wall,
            "throughput_qps": _ratio(queries, wall),
            "divergences": divergences([sorted(answer) for answer in got], expected),
            "buffer_hits": hits,
            "buffer_misses": misses,
        }

    with open_store(LatencyDisk(read_delay=0.0), tree=RTree(), buffer_bytes=buffer_bytes) as store:
        engine, manager = store.engine, store.manager
        for i, rect in enumerate(dataset):
            engine.insert(rect, i)
        drive(engine.search, query_set, threads)  # warm-up
        manager.disk.read_delay = read_delay
        pool = manager.pool.stats
        pool.hits = pool.misses = 0
        got, _, wall = drive(engine.search, query_set, threads)
        baseline = row(got, wall, pool.hits, pool.misses)
    per_config = {"baseline": {**baseline, "speedup": 1.0}}

    latencies: dict[str, dict] = {}
    for count in shard_counts:
        router = build_router(
            count,
            bounds=_BOUNDS,
            transport="process",
            buffer_bytes=buffer_bytes,
            read_delay=0.0,
            timeout_s=timeout_s,
        )
        try:
            for i, rect in enumerate(dataset):
                router.insert(rect, i)
            drive(router.search, query_set, threads)  # warm-up
            router.configure_workers(read_delay=read_delay)
            got, _, wall = drive(router.search, query_set, threads)
            stats = router.stats()
            workers = router.shard_stats()
            fleet = row(
                got,
                wall,
                sum(s.get("buffer_hits", 0) for s in workers.values()),
                sum(s.get("buffer_misses", 0) for s in workers.values()),
            )
            per_config[f"{count} shard(s)"] = {
                **fleet,
                "speedup": _ratio(fleet["throughput_qps"], baseline["throughput_qps"]),
                "records_per_shard": stats["records_per_shard"],
                "admission": stats["admission"],
                "worker_stats": workers,
            }
            latencies.update(router.latency_snapshot(prefix=f"shards-{count}/"))
        finally:
            router.close()
    fleets = [m for name, m in per_config.items() if name != "baseline"]
    metrics = {
        "per_config": per_config,
        "divergences": sum(m["divergences"] for m in per_config.values()),
        "max_speedup": max((m["speedup"] for m in fleets), default=0.0),
    }
    return metrics, latencies


SCENARIOS: dict[str, Scenario] = {
    spec.name: spec for spec in (batch, concurrent, mvcc, slo, wal, shard)
}
