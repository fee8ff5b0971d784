"""Write-ahead-log benchmark (``repro bench-wal``).

Three measurements over a :class:`~repro.storage.wal.WriteAheadLog`
attached to a real :class:`~repro.storage.FileDisk`:

* **Group commit** — N concurrent writer threads insert through a
  :class:`~repro.concurrency.ConcurrentIndex` whose storage manager logs
  every mutation; each commit is acknowledged only once its LSN is
  durable.  The WAL's ``fsync_delay`` simulates device-sync latency, so
  batching is what separates the writer counts: the headline metric is
  ``commits_per_fsync`` at the highest writer count (acceptance bar:
  > 1 with 4 writers — more than one commit acknowledged per fsync).

* **Durability crash sweep** — seeded crashes (including torn appends)
  at WAL append / fsync / truncation boundaries, then recovery via
  :func:`~repro.storage.pager.recover_tree`.  Every commit acknowledged
  before the crash must be present afterwards; ``acked_missing`` counts
  violations (must be 0).

* **Recovery time vs. WAL length** — commit K transactions, crash
  without a checkpoint, and time the checkpoint-plus-replay recovery for
  increasing K.

The result is written as ``BENCH_wal.json`` through the standard run
report schema (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from ..concurrency.engine import ConcurrentIndex
from ..core.config import IndexConfig
from ..core.geometry import Rect
from ..core.rtree import RTree
from ..core.srtree import SRTree
from ..exceptions import StorageError
from ..obs.report import build_report, write_report
from ..storage.faults import Fault, FaultInjectingDisk
from ..storage.filedisk import FileDisk
from ..storage.pager import StorageManager, recover_tree
from ..storage.wal import WriteAheadLog, scan_wal, wal_directory_for
from ..workloads.generators import dataset_R1

__all__ = ["run_wal_bench", "format_wal_report"]

#: WAL boundaries the crash sweep targets, with the fault kind injected
#: at each (torn appends only make sense on the append path).
SWEEP_BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("wal_append", "crash"),
    ("wal_append", "torn_write"),
    ("wal_fsync", "crash"),
    ("wal_truncate", "crash"),
)


def _fresh_store(base: Path, name: str) -> Path:
    store = base / name
    if store.exists():
        shutil.rmtree(store)  # a reused --store-dir starts clean
    store.mkdir(parents=True)
    return store / "pages.dat"


def _open_stack(
    path: Path,
    *,
    fsync_delay: float,
    segment_bytes: int,
    faults: Sequence[Fault] = (),
    seed: int = 0,
    config: IndexConfig | None = None,
) -> tuple[RTree, Any, WriteAheadLog, StorageManager]:
    """Build tree + (optionally fault-wrapped) FileDisk + WAL + manager."""
    disk: Any = FileDisk(path)
    if faults:
        disk = FaultInjectingDisk(disk, list(faults), seed=seed)
    wal = WriteAheadLog(
        wal_directory_for(path), fsync_delay=fsync_delay, segment_bytes=segment_bytes
    )
    tree = SRTree(config or IndexConfig())
    manager = StorageManager(tree, disk=disk, wal=wal)
    return tree, disk, wal, manager


def _close_stack(engine: Any, manager: StorageManager, wal: WriteAheadLog, disk: Any) -> None:
    if engine is not None:
        engine.detach()
    manager.detach()
    wal.close()
    disk.close()


# ---------------------------------------------------------------------------
# Phase 1: group commit
# ---------------------------------------------------------------------------
def _bench_group_commit(
    base: Path,
    dataset: list[Rect],
    writer_counts: Sequence[int],
    fsync_delay: float,
    segment_bytes: int,
) -> dict[str, Any]:
    per_writers: dict[str, dict[str, Any]] = {}
    latencies: dict[str, dict] = {}
    for writers in writer_counts:
        path = _fresh_store(base, f"group-commit-{writers}")
        tree, disk, wal, manager = _open_stack(
            path, fsync_delay=fsync_delay, segment_bytes=segment_bytes
        )
        engine = ConcurrentIndex(tree, storage=manager)
        try:
            # Strided assignment: every writer commits the same number of
            # transactions, interleaved in time so batches can form.
            slices = [dataset[t::writers] for t in range(writers)]

            def worker(rects: list[Rect]) -> None:
                for rect in rects:
                    engine.insert(rect)

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=writers) as pool:
                futures = [pool.submit(worker, s) for s in slices if s]
                for future in futures:
                    future.result()
            wall = time.perf_counter() - start
        finally:
            _close_stack(engine, manager, wal, disk)
        stats = wal.stats
        per_writers[str(writers)] = {
            "wall_seconds": wall,
            "commits_acked": stats.commits_acked,
            "fsyncs": stats.fsyncs,
            "commits_per_fsync": stats.commits_per_fsync,
            "commits_per_second": stats.commits_acked / wall if wall else 0.0,
            "deltas": stats.deltas,
            "full_images": stats.full_images,
        }
        latencies[f"wal.commit/{writers}w"] = wal.commit_latency.summary()
    peak = per_writers[str(writer_counts[-1])]["commits_per_fsync"]
    return {
        "metrics": {"writers": per_writers, "peak_commits_per_fsync": peak},
        "latencies": latencies,
    }


# ---------------------------------------------------------------------------
# Phase 2: durability crash sweep
# ---------------------------------------------------------------------------
def _run_crash_workload(
    path: Path,
    dataset: list[Rect],
    fault: Fault | None,
    *,
    seed: int,
    segment_bytes: int,
    checkpoint_every: int,
) -> tuple[list[tuple[int, Rect]], bool, dict[str, int]]:
    """Insert ``dataset`` one logged commit at a time until done or crashed.

    Returns the acknowledged ``(record_id, rect)`` list, whether the run
    crashed, and the disk's per-op counters (for sweep planning).
    """
    acked: list[tuple[int, Rect]] = []
    engine = None
    disk: Any = None
    crashed = False
    try:
        tree, disk, wal, manager = _open_stack(
            path,
            fsync_delay=0.0,
            segment_bytes=segment_bytes,
            faults=(fault,) if fault is not None else (),
            seed=seed,
        )
        engine = ConcurrentIndex(tree, storage=manager)
        for i, rect in enumerate(dataset):
            record_id = engine.insert(rect)
            acked.append((record_id, rect))
            if (i + 1) % checkpoint_every == 0:
                manager.checkpoint()
    except StorageError:
        # SimulatedCrashError / TornWalAppend / broken-log follow-ups all
        # derive from StorageError: the simulated process is dead.
        crashed = True
    else:
        _close_stack(engine, manager, wal, disk)
    op_counts = dict(getattr(disk, "op_counts", {}) or {})
    return acked, crashed, op_counts


def _verify_acked(path: Path, acked: list[tuple[int, Rect]]) -> tuple[int, int]:
    """Recover the store and count acked commits missing from the tree."""
    disk = FileDisk(path)
    try:
        tree, _ = recover_tree(disk)
    finally:
        disk.close(sync=False)
    missing = 0
    for record_id, rect in acked:
        if record_id not in {rid for rid, _ in tree.search(rect)}:
            missing += 1
    return missing, len(tree)


def _bench_durability(
    base: Path,
    dataset: list[Rect],
    sweep_points: int,
    seed: int,
    segment_bytes: int,
    checkpoint_every: int,
) -> dict[str, Any]:
    # Dry run (no faults) to learn how many times each WAL boundary is
    # crossed by this workload; the sweep samples crash positions from
    # that range.
    dry_path = _fresh_store(base, "sweep-dry")
    _, _, op_counts = _run_crash_workload(
        dry_path,
        dataset,
        Fault("transient", op="read", at=10**9),  # inert: forces the fault wrapper on
        seed=seed,
        segment_bytes=segment_bytes,
        checkpoint_every=checkpoint_every,
    )

    by_op: dict[str, dict[str, int]] = {}
    crashes = 0
    acked_total = 0
    missing_total = 0
    point = 0
    for op, kind in SWEEP_BOUNDARIES:
        total_ops = op_counts.get(op, 0)
        if not total_ops:
            continue
        positions = sorted(
            {1 + (k * (total_ops - 1)) // max(1, sweep_points - 1) for k in range(sweep_points)}
        )
        op_missing = 0
        op_crashes = 0
        for at in positions:
            point += 1
            path = _fresh_store(base, f"sweep-{point:03d}-{op}-{kind}-{at}")
            acked, crashed, _ = _run_crash_workload(
                path,
                dataset,
                Fault(kind, op=op, at=at),
                seed=seed + point,
                segment_bytes=segment_bytes,
                checkpoint_every=checkpoint_every,
            )
            missing, _ = _verify_acked(path, acked)
            op_crashes += int(crashed)
            op_missing += missing
            acked_total += len(acked)
        crashes += op_crashes
        missing_total += op_missing
        key = f"{op}/{kind}"
        by_op[key] = {
            "points": len(positions),
            "crashes": op_crashes,
            "acked_missing": op_missing,
        }
    return {
        "sweep_points": point,
        "crashes": crashes,
        "acked_commits_checked": acked_total,
        "acked_missing": missing_total,
        "by_boundary": by_op,
    }


# ---------------------------------------------------------------------------
# Phase 3: recovery time vs. WAL length
# ---------------------------------------------------------------------------
def _bench_recovery(
    base: Path,
    dataset: list[Rect],
    replay_lengths: Sequence[int],
    segment_bytes: int,
) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for length in replay_lengths:
        path = _fresh_store(base, f"recovery-{length}")
        tree, disk, wal, manager = _open_stack(
            path, fsync_delay=0.0, segment_bytes=segment_bytes
        )
        for rect in dataset[:length]:
            tree.insert(rect)
            manager.wait_durable(manager.commit_write())
        # Crash without a checkpoint: recovery must replay the whole tail.
        manager.detach()
        wal.abort()
        disk.abort()
        wal_bytes = scan_wal(wal_directory_for(path)).bytes_scanned
        reopened = FileDisk(path)
        try:
            start = time.perf_counter()
            recovered, replay = recover_tree(reopened)
            recovery_seconds = time.perf_counter() - start
        finally:
            reopened.close(sync=False)
        rows.append(
            {
                "commits": length,
                "wal_bytes": wal_bytes,
                "records_replayed": replay.records_applied,
                "recovery_seconds": recovery_seconds,
                "recovered_size": len(recovered),
            }
        )
    return rows


def run_wal_bench(
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
    report_dir: str | None = None,
) -> dict:
    """Run the WAL benchmark; returns the report document.

    Args:
        commits: Transactions committed per writer-count run (group
            commit phase).
        records: Inserts in the crash-sweep workload (durability phase).
        writer_counts: Concurrent writer thread counts to compare.
        fsync_delay: Simulated device-sync latency (group commit phase);
            this is what makes batching measurable.
        segment_bytes: WAL segment roll threshold.
        sweep_points: Crash positions sampled per WAL boundary.
        checkpoint_every: Checkpoint cadence in the sweep workload (so
            ``wal_truncate`` boundaries exist to crash on).
        replay_lengths: WAL lengths (commits) for the recovery timing.
        seed: Dataset / fault-injection seed.
        store_dir: Where store files live (a temp dir when ``None``,
            removed afterwards; a named dir is kept for ``repro fsck``).
        report_dir: When set, ``BENCH_wal.json`` is written there.
    """
    base = Path(store_dir) if store_dir else Path(tempfile.mkdtemp(prefix="walbench-"))
    base.mkdir(parents=True, exist_ok=True)
    largest = max(commits, records, max(replay_lengths, default=0))
    dataset = dataset_R1(largest, seed=seed)
    wall_start = time.perf_counter()
    try:
        group = _bench_group_commit(
            base, dataset[:commits], writer_counts, fsync_delay, segment_bytes
        )
        durability = _bench_durability(
            base, dataset[:records], sweep_points, seed, segment_bytes, checkpoint_every
        )
        recovery = _bench_recovery(base, dataset, replay_lengths, segment_bytes)
    finally:
        if store_dir is None:
            shutil.rmtree(base, ignore_errors=True)
    wall_seconds = time.perf_counter() - wall_start

    doc = build_report(
        "wal",
        config={
            "commits": commits,
            "records": records,
            "writer_counts": list(writer_counts),
            "fsync_delay": fsync_delay,
            "segment_bytes": segment_bytes,
            "sweep_points": sweep_points,
            "checkpoint_every": checkpoint_every,
            "replay_lengths": list(replay_lengths),
            "seed": seed,
            "dataset": "R1",
        },
        wall_seconds=wall_seconds,
        metrics={
            "group_commit": group["metrics"],
            "durability": durability,
            "recovery": {str(row["commits"]): row for row in recovery},
        },
        latencies=group["latencies"],
    )
    if report_dir:
        write_report(doc, report_dir)
    return doc


def format_wal_report(doc: dict) -> str:
    """Fixed-width summary of a ``BENCH_wal.json`` document."""
    cfg = doc["config"]
    metrics = doc["metrics"]
    group = metrics["group_commit"]
    durability = metrics["durability"]
    lines = [
        f"wal bench  (commits={cfg['commits']}, "
        f"fsync_delay={cfg['fsync_delay'] * 1e3:.1f}ms, "
        f"segment={cfg['segment_bytes'] // 1024}KB, dataset={cfg['dataset']})",
        f"{'writers':>8}{'commits/s':>12}{'fsyncs':>8}{'commits/fsync':>15}",
    ]
    for writers in cfg["writer_counts"]:
        row = group["writers"][str(writers)]
        lines.append(
            f"{writers:>8}{row['commits_per_second']:>12.1f}"
            f"{row['fsyncs']:>8}{row['commits_per_fsync']:>15.2f}"
        )
    lines.append(
        f"peak commits/fsync: {group['peak_commits_per_fsync']:.2f} "
        f"(bar: > 1 at {cfg['writer_counts'][-1]} writers)"
    )
    lines.append(
        f"crash sweep: {durability['sweep_points']} points, "
        f"{durability['crashes']} crashes, "
        f"{durability['acked_commits_checked']} acked commits checked, "
        f"{durability['acked_missing']} missing after recovery"
    )
    for boundary, row in sorted(durability.get("by_boundary", {}).items()):
        lines.append(
            f"  {boundary:<24} points={row['points']} crashes={row['crashes']} "
            f"missing={row['acked_missing']}"
        )
    lines.append("recovery time vs WAL length:")
    for commits_key, row in sorted(
        metrics["recovery"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(
            f"  {commits_key:>6} commits  {row['wal_bytes']:>9} B  "
            f"{row['records_replayed']:>6} records  "
            f"{row['recovery_seconds'] * 1e3:>8.1f} ms  "
            f"(size={row['recovered_size']})"
        )
    return "\n".join(lines)
