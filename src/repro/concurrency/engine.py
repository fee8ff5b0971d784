"""Concurrent serving engine: a latched wrapper around the index family.

:class:`ConcurrentIndex` makes any index in the R-Tree family —
``RTree``/``SRTree``, both skeleton variants, and packed trees — safe to
call from a ``ThreadPoolExecutor``.

Protocol (one read path, one write path):

1. **Reads** hold the index latch in *shared* mode for the whole
   traversal: one acquisition and one release, whatever the tree height.
2. **Writes** — ``insert``/``delete`` take the index latch in *exclusive*
   mode (writer-preferring, so readers cannot starve writers).

Nothing finer than the index latch exists: a writer holds it exclusively
for the whole mutation, so no reader overlaps any part of a cut,
demotion, promotion, split or condense, and every node a read reaches is
linked into the tree.  Reader/reader concurrency on the buffer pool is
the pool's own mutex and in-flight table.  Each
answered read runs once, so it counts once: in the tree's
``AccessStats``, in the pool's accesses and in the latch's
``read_acquires``.

**MVCC mode** (``mvcc=True``, requires a :class:`StorageManager`) is the
other read path: writers publish copy-on-write page versions at commit
(epoch = WAL commit LSN when a log is attached), and every read opens a
:class:`~repro.concurrency.mvcc.Snapshot` that pins the latest committed
epoch and traverses the version chains with *no* latch — zero
``latch_wait`` events on the read path under arbitrary write churn.
Writers keep the exclusive index latch (single-writer), which is also
what serializes version publication and GC.

Thread-safety contract: every public method of ``ConcurrentIndex``, any
thread; the wrapped tree must not be mutated behind the wrapper's back;
``AccessStats`` counters on the tree are maintained with unsynchronized
increments and may under-count slightly under heavy read concurrency
(they are metrics, not invariants).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence, TypeVar

from ..core.geometry import Rect
from ..core.query import QuerySurface
from ..core.rtree import RTree
from ..exceptions import StorageError
from ..obs.tracer import Tracer
from .latch import RWLatch
from .mvcc import Snapshot

__all__ = ["ConcurrentIndex"]

T = TypeVar("T")


class ConcurrentIndex(QuerySurface):
    """Thread-safe facade over one index instance.

    The read methods are :class:`~repro.core.query.QuerySurface`'s; each
    query (or batch) runs once through the read funnel, against the tree
    under the latch protocol or against a fresh snapshot in MVCC mode.

    >>> from repro import SRTree, Rect
    >>> from repro.concurrency import ConcurrentIndex
    >>> index = ConcurrentIndex(SRTree())
    >>> rid = index.insert(Rect((0.0, 0.0), (2.0, 2.0)), payload="a")
    >>> [p for _, p in index.search(Rect((1.0, 1.0), (1.5, 1.5)))]
    ['a']
    """

    def __init__(
        self,
        tree: RTree,
        tracer: Tracer | None = None,
        *,
        storage: Any | None = None,
        mvcc: bool = False,
    ) -> None:
        self._tree = tree
        self.tracer: Tracer = tracer if tracer is not None else tree.tracer
        #: Optional StorageManager with an attached write-ahead log: every
        #: write is then logged under the exclusive latch and acknowledged
        #: only once its LSN is durable (after the latch is released, so
        #: the group-commit flusher can batch concurrent writers' fsyncs).
        self.storage = storage
        #: MVCC snapshot reads (see the module docstring).  Enabling it
        #: turns on copy-on-write page versioning in the storage manager;
        #: the base epoch defaults to the WAL's last LSN so recovery
        #: re-attachment lands on the epoch the replay committed.
        self.mvcc = mvcc
        if mvcc:
            if storage is None:
                raise StorageError("MVCC mode needs a StorageManager")
            storage.enable_mvcc()
        self._index_latch = RWLatch("index", tracer=self.tracer)
        self.latch_stats = self._index_latch.stats
        # Guards snapshot_reads; takes no other lock, so no ordering edge
        # can start from it.
        self._op_lock = threading.Lock()
        self.snapshot_reads = 0
        self.writes = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def tree(self) -> RTree:
        """The wrapped index (single-threaded access only once detached)."""
        return self._tree

    def detach(self) -> None:
        """Nothing to uninstall: the engine installs nothing on the tree.

        Kept, empty, only for ``perf/stacks.py`` and ``perf/layers.py``,
        which call it and are frozen; goes with them (ROADMAP item 2).
        """

    def __len__(self) -> int:
        return len(self._tree)

    # ------------------------------------------------------------------
    # MVCC snapshots
    # ------------------------------------------------------------------
    def open_snapshot(self) -> Snapshot:
        """Open a latch-free read snapshot pinning the latest commit.

        Only valid in MVCC mode.  Close the snapshot (it is a context
        manager) so version GC can reclaim what it pins.
        """
        if not self.mvcc:
            raise StorageError("open_snapshot requires mvcc=True")
        assert self.storage is not None and self.storage.versions is not None
        return Snapshot(self.storage.versions, tracer=self.tracer)

    def _read_mvcc(self, fn: Callable[[Snapshot], T]) -> T:
        snapshot = self.open_snapshot()
        try:
            result = fn(snapshot)
        finally:
            snapshot.close()
        with self._op_lock:
            self.snapshot_reads += 1
        return result

    @property
    def last_commit_epoch(self) -> "int | None":
        """Epoch published by this thread's most recent write (MVCC only)."""
        return getattr(self._local, "last_epoch", None)

    def run_version_gc(self) -> tuple[int, int]:
        """One version-cache ``trim()`` outside a commit: reclaims what a
        snapshot pinned past the last write; returns (versions, bytes)
        reclaimed.  Takes the exclusive latch (GC is a mutator)."""
        storage = self.storage
        if storage is None or storage.versions is None:
            return (0, 0)
        self._index_latch.acquire_write()
        try:
            return storage.versions.trim()
        finally:
            self._index_latch.release_write()

    # ------------------------------------------------------------------
    # Read / write funnels
    # ------------------------------------------------------------------
    def _write(
        self, fn: Callable[[], T], note_fn: "Callable[[T], Any] | None" = None
    ) -> T:
        storage = self.storage
        lsn: int | None = None
        self._index_latch.acquire_write()
        try:
            result = fn()
            if storage is not None:
                # Still under the exclusive latch: the serialized
                # images see exactly this mutation's tree state, and
                # (in MVCC mode) the commit's page versions become
                # visible to snapshots before any later write runs.
                # Had ``fn`` raised, the nodes it changed stay in the
                # tree's dirty set and the next commit carries them.
                versions = getattr(storage, "versions", None)
                note = None
                if note_fn is not None and getattr(versions, "commit_log", None) is not None:
                    # Only an armed commit log (one that has a reader)
                    # is fed: an unread one would grow forever.
                    note = note_fn(result)
                lsn = storage.commit_write(note)
                if versions is not None and versions.latest is not None:
                    self._local.last_epoch = versions.latest.epoch
        finally:
            self.writes += 1  # under the exclusive latch
            self._index_latch.release_write()
        if storage is not None:
            # Acknowledge only once durable — but wait *outside* the latch,
            # so commits appended while the flusher syncs share its next
            # fsync instead of paying one each (group commit).
            storage.wait_durable(lsn)
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def contention_snapshot(self) -> dict:
        """Latch + execution-path counters."""
        doc = self._index_latch.stats.snapshot()
        doc.update(
            optimistic_retries=0,  # read by perf/layers.py, frozen (ROADMAP item 2)
            pessimistic_reads=doc["read_acquires"],  # the same (ROADMAP item 2)
            snapshot_reads=self.snapshot_reads,
            writes=self.writes,
        )
        storage = self.storage
        if storage is not None and getattr(storage, "versions", None) is not None:
            doc["versions"] = storage.versions.stats.snapshot()
        return doc

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self._tree.config.dims

    # A latched read takes the shared latch inline, with no closure and no
    # funnel frame: a search costs the tree's own query plus two latch calls.
    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        if self.mvcc:
            return self._read_mvcc(lambda snap: snap._query(kind, rect))
        latch = self._index_latch
        latch.acquire_read()
        try:
            return self._tree._query(kind, rect)
        finally:
            latch.release_read()

    def _query_batch(self, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
        if self.mvcc:
            return self._read_mvcc(lambda snap: snap._query_batch(rects))
        latch = self._index_latch
        latch.acquire_read()
        try:
            return self._tree._query_batch(rects)
        finally:
            latch.release_read()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, payload: Any = None) -> int:
        return self._write(
            lambda: self._tree.insert(rect, payload),
            note_fn=lambda rid: ("insert", rid, rect, payload),
        )

    def delete(self, record_id: int, hint: Rect | None = None) -> int:
        return self._write(
            lambda: self._tree.delete(record_id, hint),
            note_fn=lambda removed: ("delete", record_id),
        )
