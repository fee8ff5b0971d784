"""Opening a store: the one composition of disk, log, pool and engine
(DESIGN §3.2, "Opening a store").  The CLI, the stress harness and the
shard workers all go through :func:`open_store`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .concurrency.engine import ConcurrentIndex
from .core.rtree import RTree
from .core.srtree import SRTree
from .exceptions import StorageError
from .obs.tracer import Tracer
from .storage.pager import StorageManager, recover_tree
from .storage.wal import WalReplayResult, WriteAheadLog

__all__ = ["Store", "open_store"]


@dataclass
class Store:
    """An open store: the serving ``engine`` over the ``manager`` of its
    pages.  As a context manager it closes on the way out — or, with an
    exception in flight, stops as a crash would (nothing is synced over
    state that may be inconsistent)."""

    engine: ConcurrentIndex
    manager: StorageManager
    #: What WAL replay did at open; ``None``: attached, not recovered.
    replay: WalReplayResult | None
    #: ``(pages, bytes)`` unreachable from the root, freed at open.
    swept: tuple[int, int]

    def _stop(self, how: str) -> None:
        # Detach, then the log, then the disk: nothing may reach a page once
        # its disk is gone, and the disk must not sync a page table whose
        # log records are not down yet.
        self.manager.detach()
        for part in (self.manager.wal, self.manager.disk):
            stop = getattr(part, how, None)  # no log; an in-memory disk has neither
            if stop is not None:
                stop()

    def close(self) -> None:
        """Detach and close log and disk; the disk syncs its page table."""
        self._stop("close")

    def crash(self) -> None:
        """Stop as a killed process would: nothing flushed or synced —
        only what the log made durable survives."""
        self._stop("abort")

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._stop("close" if exc_type is None else "abort")


def open_store(
    disk: Any,
    wal: WriteAheadLog | None = None,
    *,
    tree: RTree | None = None,
    buffer_bytes: int = 64 * 1024,
    mvcc: bool = False,
    tracer: Tracer | None = None,
) -> Store:
    """Open the store on ``disk`` (and ``wal``) and serve it.

    A disk that holds a checkpoint, or a log that holds records, is
    *recovered*: the log tail is replayed, the index loaded, and the
    manager keeps the pages the loader read — nothing is allocated or
    rewritten, no checkpoint taken, so reopening never grows a store —
    and MVCC's base epoch is the last replayed commit.  An empty store
    gets ``tree`` (default: a fresh ``SRTree``) attached, which — with a
    log — writes its base checkpoint; ``tree`` for a store that already
    holds an index is an error.  Pages the index does not reach are freed.

    Writes go through the manager (logged, versioned) only when there is
    a ``wal`` or ``mvcc``; with neither the pool just counts page I/O.
    """
    replay = None
    if getattr(disk, "checkpoint_info", None) is not None or (wal is not None and wal.last_lsn):
        if tree is not None:
            raise StorageError(
                "the store already holds an index; open it without tree= to recover it"
            )
        tree, replay = recover_tree(disk, wal.directory if wal is not None else None, tracer=tracer)
    elif tree is None:
        tree = SRTree()
    manager = StorageManager(tree, buffer_bytes=buffer_bytes, disk=disk, tracer=tracer, wal=wal)
    swept = manager.free_unreachable()
    if mvcc and replay is not None:
        # Before the engine's own (then idempotent) enable_mvcc().
        manager.enable_mvcc(base_epoch=replay.last_commit_lsn)
    engine = ConcurrentIndex(
        tree, tracer, storage=manager if mvcc or wal is not None else None, mvcc=mvcc
    )
    return Store(engine, manager, replay, swept)
