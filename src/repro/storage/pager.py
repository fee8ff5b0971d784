"""Storage manager: wires an index to the simulated disk and buffer pool.

Attaching a :class:`StorageManager` to an index makes every node access go
through a byte-budgeted LRU buffer pool, turning the paper's node-access
counts into simulated page I/O (hits, misses, evictions).  ``checkpoint``
serializes every node onto its page (stamped with a checkpoint generation
and per-page CRC) and — when the disk supports durability — commits the
result atomically; ``load_tree`` rebuilds an equivalent index from the
disk image, verifying every page's integrity header on the way.

Transient disk errors (:class:`~repro.exceptions.TransientDiskError`, e.g.
from :class:`~repro.storage.faults.FaultInjectingDisk`) are retried with
bounded exponential backoff; the backoff clock is injectable so tests
never sleep.  Retries and permanent failures are recorded in the disk's
:class:`~repro.storage.disk.DiskStats` and surfaced by :meth:`io_summary`.

Page sizes follow the node levels (1 KB leaves doubling upward by default),
so buffer-pool experiments see exactly the paged structure the paper
assumes.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Sequence, Type

from ..core.config import IndexConfig
from ..core.entry import BranchEntry, DataEntry
from ..core.node import Node
from ..core.rtree import RTree
from ..core.srtree import SRTree
from ..exceptions import (
    ConfigError,
    PageCorruptionError,
    StorageError,
    TransientDiskError,
)
from ..obs.lockgraph import TrackedCondition
from ..obs.tracer import Tracer
from .buffer import BufferPool, PageVersionCache
from .disk import SimulatedDisk
from .serializer import NodeImage, deserialize_node, entry_physical_bytes, serialize_node
from .wal import WalReplayResult, WriteAheadLog, replay_wal, wal_directory_for

__all__ = [
    "RetryPolicy",
    "StorageManager",
    "recover_tree",
]


@dataclass
class RetryPolicy:
    """Bounded exponential backoff for transient disk errors.

    ``sleep`` is injectable (tests pass a recording stub) so retry logic
    is exercised without wall-clock delays.
    """

    max_attempts: int = 4
    backoff_base: float = 0.005
    backoff_factor: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


class _PageReader:
    """Shared read path: fetch via a pool, verify, decode.

    Used by :class:`StorageManager` and by manager-less loads
    (:func:`recover_tree`).
    """

    def __init__(
        self, pool: BufferPool, retry: RetryPolicy, tracer: Tracer | None = None
    ) -> None:
        self.pool = pool
        self.retry = retry
        self.tracer = tracer
        self.corrupt_pages = 0

    def _retrying(self, what: str, fn: Callable[[], Any], attempt: int = 0) -> Any:
        """Call ``fn``, retrying transient disk errors with backoff.

        ``attempt`` counts failures of ``fn`` the caller saw — and put
        through :meth:`_backoff` — itself: the access hook tries a touch
        bare and comes here only once that has raised.
        """
        while True:
            try:
                return fn()
            except TransientDiskError:
                attempt += 1
                if not self._backoff(what, attempt):
                    raise

    def _backoff(self, what: str, attempt: int) -> bool:
        """Count an operation's ``attempt``-th transient failure and sleep
        before the retry; ``False``, having counted a failed operation
        instead, when it was the last allowed (the caller re-raises)."""
        stats = getattr(self.pool.disk, "stats", None)
        if attempt >= self.retry.max_attempts:
            if stats is not None:
                stats.failed_ops += 1
            return False
        if stats is not None:
            stats.retries += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "disk_retry", op=what, attempt=attempt,
                delay=self.retry.delay(attempt),
            )
        self.retry.sleep(self.retry.delay(attempt))
        return True

    def read_image(self, page_id: int) -> NodeImage:
        data = self._retrying(f"read page {page_id}", lambda: self.pool.read(page_id))
        try:
            return deserialize_node(data, page_id)
        except PageCorruptionError:
            self.corrupt_pages += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.event("page_corruption", page_id=page_id)
            raise


def _build_node(
    page_id: int,
    read_image: Callable[[int], NodeImage],
    payloads: dict[int, Any],
    pages: dict[int, int],
) -> Node:
    """Recursively rebuild the node on ``page_id`` (and its subtree) from
    page images, recording ``node id -> page id`` in ``pages``."""

    def entry(r: Any) -> DataEntry:
        return DataEntry(r.rect, r.record_id, payloads.get(r.record_id), r.is_remnant)

    image = read_image(page_id)
    node = Node(level=image.level)
    pages[node.node_id] = page_id
    node.data_entries = [entry(r) for r in image.data_entries]
    for b in image.branches:
        child = _build_node(b.child, read_image, payloads, pages)
        child.parent = node
        branch = BranchEntry(b.rect, child)
        branch.spanning = [entry(r) for r in b.spanning]
        node.branches.append(branch)
    return node


def _load(
    reader: _PageReader,
    root_page: int | None,
    config: IndexConfig,
    index_cls: Type[RTree],
    payloads: dict[int, Any] | None,
) -> RTree:
    """The one loader: an ``index_cls`` built from the pages reachable from
    ``root_page`` — an empty one for 0 (the emptied-tree sentinel) and for
    ``None`` (a store that never committed).

    The loader keeps what it read: the tree remembers ``(disk, {node id:
    page id})``, and a manager attached over the same disk adopts those
    pages instead of allocating a second set (DESIGN §3.2 "Opening a
    store").
    """
    tree = index_cls.__new__(index_cls)
    RTree.__init__(tree, config)
    if root_page is None:
        return tree  # no durable base yet: whoever attaches must write one
    pages: dict[int, int] = {}
    if root_page:
        tree.root = _build_node(root_page, reader.read_image, payloads or {}, pages)
        tree._height = tree.root.level + 1
        counts: dict[int, int] = {}
        for rid, _, _ in tree.items():
            counts[rid] = counts.get(rid, 0) + 1
        tree._fragment_counts = counts
        tree._size = len(counts)
        tree._next_record_id = max(counts, default=0) + 1
    tree._loaded_pages = (reader.pool.disk, pages)
    return tree


def recover_tree(
    disk: Any,
    wal_directory: Any = None,
    *,
    payloads: dict[int, Any] | None = None,
    tracer: Tracer | None = None,
) -> tuple[RTree, WalReplayResult]:
    """Crash recovery: load the last checkpoint, then redo the WAL tail.

    ``disk`` is a reopened page store (typically a
    :class:`~repro.storage.FileDisk`, whose own sidecar recovery already
    ran); ``wal_directory`` defaults to ``<disk.path>.wal``.  Replay skips
    records at or below the checkpoint's recovery LSN
    (``checkpoint_info['wal_lsn']``), stops at the first torn record, and
    applies only complete transactions — then the tree is rebuilt from
    the root page named by the last replayed COMMIT (falling back to the
    checkpoint's root page when the WAL held no commits; an empty index
    when there is neither, or the last commit emptied the tree).  Index
    class and configuration are the ones the checkpoint recorded, which
    makes a checkpointed file self-describing.

    Payloads live outside the index pages; without a ``payloads`` mapping
    the reloaded entries carry ``None`` payloads (record ids are kept).

    Recovery never writes the WAL or advances the checkpoint, so crashing
    *during* recovery and recovering again reaches the same state
    (replay is idempotent: every record is an absolute assignment).
    """
    if wal_directory is None:
        path = getattr(disk, "path", None)
        if path is None:
            raise StorageError(
                "recover_tree needs an explicit wal_directory for a disk "
                "without a file path"
            )
        wal_directory = wal_directory_for(path)
    info = getattr(disk, "checkpoint_info", None) or {}
    recovery_lsn = int(info.get("wal_lsn") or 0)
    result = replay_wal(wal_directory, disk, recovery_lsn=recovery_lsn, tracer=tracer)
    root_page = result.root_page
    if root_page is None:
        root_page = info.get("root_page")
    cfg_doc = info.get("index_config")
    return (
        _load(
            _PageReader(BufferPool(disk, 256 * 1024), RetryPolicy(), tracer),
            root_page,
            IndexConfig(**cfg_doc) if cfg_doc else IndexConfig(),
            SRTree if info.get("segment_index", True) else RTree,
            payloads,
        ),
        result,
    )


class StorageManager:
    """Simulated paged storage for one index instance.

    >>> from repro import SRTree, segment
    >>> tree = SRTree()
    >>> _ = [tree.insert(segment(i, i + 1, i)) for i in range(100)]
    >>> manager = StorageManager(tree, buffer_bytes=8 * 1024)
    >>> root_page = manager.checkpoint()
    >>> clone = manager.load_tree()
    >>> len(clone) == len(tree)
    True
    """

    def __init__(
        self,
        tree: RTree,
        buffer_bytes: int = 64 * 1024,
        disk: Any = None,
        tracer: Tracer | None = None,
        retry_policy: RetryPolicy | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.tree = tree
        needed = entry_physical_bytes(tree.dims)
        if needed > tree.config.entry_bytes:
            # The capacity accounting would promise nodes their pages
            # cannot hold: the first full one would fail to encode after
            # its insert had already changed the tree.
            raise ConfigError(
                f"a {tree.dims}-D entry takes {needed} bytes on a page, more than "
                f"entry_bytes={tree.config.entry_bytes}; storage needs "
                f"IndexConfig(entry_bytes>={needed})"
            )
        if wal is not None:
            self._refuse_predicting("be attached with a write-ahead log")
        #: Any page store with the SimulatedDisk interface works; pass a
        #: repro.storage.FileDisk for real on-disk persistence, or wrap
        #: either in a repro.storage.faults.FaultInjectingDisk for
        #: failure testing.
        self.disk = disk if disk is not None else SimulatedDisk()
        self.retry = retry_policy if retry_policy is not None else RetryPolicy()
        # Default to the tree's tracer so node accesses and the page
        # fetches they cause land in one event stream.
        self.pool = BufferPool(
            self.disk, buffer_bytes, tracer=tracer if tracer is not None else tree.tracer
        )
        self._reader = _PageReader(self.pool, self.retry, self.pool.tracer)
        #: Optional write-ahead log: when attached, writes committed via
        #: commit_write become durable between checkpoints, and checkpoints
        #: truncate the log.
        self.wal = wal
        if wal is not None and wal.fault_gate is None:
            # Route WAL boundaries through the disk's fault table when the
            # store is a FaultInjectingDisk, so one seeded fault schedule
            # drives page and log faults alike.
            gate = getattr(self.disk, "wal_fault", None)
            if gate is not None:
                wal.fault_gate = gate
        self.root_page: int | None = None
        #: node id -> page id.  A tree the loader read from this very disk,
        #: and not written since, keeps its pages; any other tree gets
        #: fresh ones below.
        source, adopted = tree._loaded_pages or (None, None)
        if source is not self.disk or tree.stats.inserts or tree.stats.deletes:
            adopted = None
        self._page_of: dict[int, int] = dict(adopted or ())
        # Skip past pages that already exist on the store: fresh ids must
        # not collide with them.
        self._next_page = max(self.disk.page_ids(), default=0) + 1
        #: Guards the node->page table and page-id allocation: concurrent
        #: readers that reach the same page-less node (a split's nodes get
        #: pages on their first read when no WAL is attached) must never
        #: double-allocate a page id.  A buffer-level lock the lock-order
        #: recorder sees: it is taken per commit and per first mapping of
        #: a page, never per read.
        self._page_lock = TrackedCondition("buffer", threading.Lock())
        #: Page allocations made since the last checkpoint/logged commit;
        #: drained into the next WAL transaction so replay can re-create
        #: pages the un-synced page table never recorded.
        self._wal_unlogged_allocs: dict[int, int] = {}
        self._payloads: dict[int, Any] = {}
        #: Copy-on-write page versions for MVCC snapshot reads; ``None``
        #: until :meth:`enable_mvcc`.
        self.versions: PageVersionCache | None = None
        #: Commit-epoch source when no WAL is attached (with a WAL, the
        #: commit LSN *is* the epoch).
        self._epoch_counter: Iterator[int] | None = None
        #: Number of checkpoints completed; stamped into page headers.
        self.generation = 0
        for node in tree.iter_nodes():
            self._ensure_page(node)
        tree._storage_hook = self._on_access
        if wal is not None:
            if adopted is None:
                self._bootstrap_wal_base()
            # Adopted pages already are the durable base: checkpoint +
            # replayed log hold them, and the log continues from last_lsn.
            tree._dirty = set()  # from this base on, the tree reports its writes

    def _refuse_predicting(self, what: str) -> None:
        """A skeleton index's prediction buffer lives outside its pages:
        no WAL commit would carry those records and no snapshot see them,
        so acknowledged inserts would vanish on recovery."""
        if getattr(self.tree, "predicting", False):
            raise ConfigError(
                f"{type(self.tree).__name__} is still buffering inserts for "
                f"distribution prediction and cannot {what}; call "
                "tree.flush() first"
            )

    def _retrying(self, what: str, fn: Callable[[], Any]) -> Any:
        return self._reader._retrying(what, fn)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def _on_access(self, nodes: Sequence[Node]) -> None:
        """Touch the pages of one read's visit, in visit order (see
        :meth:`BufferPool.touch_all`)."""
        # Unlocked probes: a dict read is atomic, and _ensure_page publishes
        # an id only once its page exists on the disk.
        page_of = self._page_of
        page_ids = []
        for node in nodes:
            page_id = page_of.get(node.node_id)
            if page_id is None:
                page_id = self._ensure_page(node)
            page_ids.append(page_id)
        self.pool.touch_all(page_ids, self._retry_touch)

    def _retry_touch(self, page_id: int, error: TransientDiskError) -> None:
        """Retry the touch of a page whose read failed transiently (attempt
        1): only a miss does I/O, so a hit never pays for the retry
        plumbing."""
        what = f"touch page {page_id}"
        if not self._reader._backoff(what, 1):
            raise error  # lint: ignore[R3] — the pool's TransientDiskError, re-raised
        self._reader._retrying(what, lambda: self.pool.touch(page_id), attempt=1)

    def _ensure_page(self, node: Node) -> int:
        with self._page_lock:
            page_id = self._page_of.get(node.node_id)
            if page_id is None:
                page_id = self._next_page
                self._next_page += 1
                size = self.tree.config.node_bytes(node.level)
                self._retrying(
                    f"allocate page {page_id}", lambda: self.disk.allocate(page_id, size)
                )
                # Published last: _on_access probes the table without
                # the lock and reads whatever id it finds.
                self._page_of[node.node_id] = page_id
                if self.wal is not None:
                    self._wal_unlogged_allocs[page_id] = size
        return page_id

    # ------------------------------------------------------------------
    # Write-ahead logging
    # ------------------------------------------------------------------
    def _bootstrap_wal_base(self) -> None:
        """Establish the durable base image the redo log applies onto:
        recovery is *checkpoint + replay*, so a tree attached with a WAL on
        freshly-invented pages is checkpointed at once (and the log
        truncated to start there) — or its first logged commits would
        reference base pages never written.  Not run for a tree that keeps
        the pages it was loaded from."""
        if hasattr(self.disk, "set_checkpoint_info") and getattr(self.disk, "sync", None):
            self.checkpoint()

    # ------------------------------------------------------------------
    # MVCC page versioning
    # ------------------------------------------------------------------
    def enable_mvcc(self, base_epoch: "int | None" = None) -> PageVersionCache:
        """Turn on copy-on-write page versioning for snapshot reads.

        Publishes the current tree as the *base commit* so snapshots can
        open immediately.  ``base_epoch`` defaults to the WAL's last LSN
        (commit LSNs double as snapshot epochs from then on) or 0 without
        a WAL (an internal counter takes over).  After recovery, pass the
        replay's ``last_commit_lsn`` so the base epoch *is* the committed
        epoch recovery landed on.  Idempotent.
        """
        if self.versions is not None:
            return self.versions
        self._refuse_predicting("serve MVCC snapshots")
        if base_epoch is None:
            base_epoch = self.wal.last_lsn if self.wal is not None else 0
        self._epoch_counter = itertools.count(base_epoch + 1)
        cache = PageVersionCache(tracer=self.pool.tracer)
        root = self.tree.root
        if root.data_entries or root.branches:
            nodes = list(self.tree.iter_nodes())
            for node in nodes:
                self._ensure_page(node)
            images = {
                self._page_of[node.node_id]: serialize_node(
                    node,
                    self.disk.page_size(self._page_of[node.node_id]),
                    self._page_of,
                    self.generation,
                )
                for node in nodes
            }
            cache.publish(
                base_epoch,
                images,
                self._page_of[root.node_id],
                payloads={
                    self._page_of[node.node_id]: self._node_payloads(node)
                    for node in nodes
                },
            )
        else:
            cache.publish(base_epoch, {}, 0)
        self.versions = cache
        if self.tree._dirty is None:
            self.tree._dirty = set()
        return cache

    @staticmethod
    def _node_payloads(node: Node) -> dict[int, Any]:
        """The non-``None`` payloads of the records on ``node`` (payloads
        live outside index pages: a page version carries its own, the
        checkpoint sidecar all of them)."""
        return {
            e.record_id: e.payload
            for e in (*node.data_entries, *(r for _, r in node.iter_spanning()))
            if e.payload is not None
        }

    def commit_write(self, note: Any = None) -> "int | None":
        """Commit what the tree reports changed; returns the commit LSN.

        The one call of the write path (DESIGN §3.2): run it after the
        mutation, while its exclusive latch is still held, so the
        serialized images are consistent.  The nodes come from the tree's
        own dirty set; a mutation that raised leaves its nodes there and
        they ride along with the next commit.  ``None`` (and a no-op) when
        neither a WAL nor MVCC page versioning is attached.

        The LSN is *not* yet durable: acknowledge the commit only after
        :meth:`wait_durable` returns for it.

        With MVCC enabled the same page images are also published as
        copy-on-write versions (epoch = commit LSN, or an internal
        counter without a WAL), making the commit visible to snapshots
        before the latch is released; the pages of the unlinked nodes go
        to the log, the pool and the version cache, which retires their
        chains (DESIGN §3.2).  ``note`` is an optional value recorded in
        the version cache's commit log, when armed, alongside the epoch
        (oracle tests use it to replay exactly the committed operations).
        """
        dirty = self.tree._dirty
        if dirty is None:
            return None
        root = self.tree.root
        # Node-id order: page ids and log contents repeat from run to run.
        live: list[Node] = []
        unlinked: list[Node] = []
        for node in sorted(dirty, key=lambda n: n.node_id):
            if node.parent is None and node is not root:
                unlinked.append(node)
            elif node is not root or node.data_entries or node.branches:
                # A linked node republishes even when emptied (a skeleton
                # cell, or a child kept for its branch's spanning records):
                # otherwise its page's stale records would survive into WAL
                # replay and MVCC snapshots.  Only an emptied root does
                # not: that is the ``root_page = 0`` sentinel.
                live.append(node)
        for node in live:
            self._ensure_page(node)
        images = {}
        for node in live:
            page_id = self._page_of[node.node_id]
            images[page_id] = serialize_node(
                node, self.disk.page_size(page_id), self._page_of, self.generation
            )
        with self._page_lock:
            allocs = dict(self._wal_unlogged_allocs)
            self._wal_unlogged_allocs.clear()
            freed = [
                self._page_of.pop(node.node_id)
                for node in unlinked
                if node.node_id in self._page_of
            ]
        root_page = self._page_of[root.node_id] if (
            root.data_entries or root.branches
        ) else 0
        lsn: "int | None" = None
        if self.wal is not None:
            lsn = self.wal.log_commit(images, allocs, freed, root_page=root_page)
        for page_id in freed:
            self._free_page(page_id)
        if self.versions is not None:
            if lsn is not None:
                epoch = lsn
            else:
                assert self._epoch_counter is not None
                epoch = next(self._epoch_counter)
            self.versions.publish(
                epoch,
                images,
                root_page,
                payloads={
                    self._page_of[node.node_id]: self._node_payloads(node)
                    for node in live
                },
                freed=freed,
                note=note,
            )
            self.versions.trim()
        dirty.clear()
        return lsn

    def _free_page(self, page_id: int) -> None:
        """Release the page of an unlinked node (its DEALLOC is logged).
        Page ids are never reused, so the versions a snapshot still pins
        stay unambiguous."""
        self.pool.drop(page_id)
        self._retrying(
            f"deallocate page {page_id}", lambda: self.disk.deallocate(page_id)
        )

    def wait_durable(self, lsn: "int | None") -> None:
        """Block until the logged commit ``lsn`` is on stable storage.

        Run this *after* releasing the write latch: the group-commit
        flusher batches every commit appended while it syncs, so holding
        the latch through the wait would serialize commits one fsync each.
        """
        if lsn is None or self.wal is None:
            return
        self.wal.commit(lsn)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Serialize every node to its page; returns the root's page id.

        Pages carry the new checkpoint generation and a CRC32.  On disks
        with a durability boundary (``sync``), the checkpoint is committed
        atomically: the page table only advances once every page write
        succeeded, so a crash mid-checkpoint leaves the previous
        generation intact and recoverable.

        Payloads are kept in a sidecar heap (a real system would store
        tuple identifiers in the index and the tuples in a heap file).
        """
        generation = self.generation + 1
        with self.pool.tracer.span("checkpoint") as span:
            root_page = self._checkpoint(generation)
            span.set(pages=len(self._page_of), generation=generation)
        return root_page

    def _checkpoint(self, generation: int) -> int:
        # Everything appended up to here is covered by the pages this
        # checkpoint writes; record it as the recovery LSN so replay
        # skips records the checkpoint already made durable.  Captured
        # before serializing: the caller must be quiesced (no concurrent
        # logged writes), which checkpointing already requires.
        wal_lsn = self.wal.last_lsn if self.wal is not None else None
        self._payloads = {}
        page_of: dict[int, int] = {}
        root = self.tree.root
        # An empty tree has no page image: it is root page 0, in a
        # checkpoint as in a COMMIT.
        nodes = list(self.tree.iter_nodes()) if root.data_entries or root.branches else []
        for node in nodes:
            page_of[node.node_id] = self._ensure_page(node)
            self._payloads.update(self._node_payloads(node))
        for node in nodes:
            page_id = page_of[node.node_id]
            image = serialize_node(
                node, self.disk.page_size(page_id), page_of, generation
            )
            self._retrying(
                f"write page {page_id}",
                lambda pid=page_id, image=image: self.pool.write(pid, image),
            )
        self._retrying("flush buffer pool", self.pool.flush)
        root_page = page_of.get(root.node_id, 0)
        self.root_page = root_page
        if hasattr(self.disk, "set_checkpoint_info"):
            self.disk.set_checkpoint_info(
                root_page=self.root_page,
                index_config=asdict(self.tree.config),
                segment_index=bool(getattr(self.tree, "segment_index", False)),
                generation=generation,
                **({} if wal_lsn is None else {"wal_lsn": wal_lsn}),
            )
        sync = getattr(self.disk, "sync", None)
        if sync is not None:
            self._retrying("sync", sync)
        self.generation = generation
        if self.wal is not None and wal_lsn is not None:
            # The checkpoint (with its recovery LSN) is durable; the log's
            # records are now redundant.  Order matters: truncating first
            # would lose the only copy of post-checkpoint commits.  A crash
            # between the sync above and here leaves stale segments whose
            # records replay as no-ops (lsn <= recovery LSN).
            self.wal.truncate(wal_lsn)
            with self._page_lock:
                self._wal_unlogged_allocs.clear()
        return root_page

    def load_tree(self, index_cls: Type[RTree] | None = None) -> RTree:
        """Rebuild an index object from the last checkpoint.

        Skeleton-specific state (assigned regions, prediction buffers) is
        not persisted; a reloaded skeleton index behaves like the plain
        index of the same family from then on, which is safe because the
        skeleton only influences how the tree *grew*.
        """
        if self.root_page is None:
            raise StorageError("no checkpoint to load")
        if index_cls is None:
            index_cls = SRTree if self.tree.segment_index else RTree
        return _load(
            self._reader, self.root_page, self.tree.config, index_cls, self._payloads
        )

    def free_unreachable(self) -> tuple[int, int]:
        """Free every page on the disk that no node of the tree maps to;
        returns ``(pages, bytes)`` freed.  For a disk that holds this one
        index, right after attaching and before serving: the map then
        covers every reachable page, so the rest is garbage — copies leaked
        by opens that gave every node a second page, pages a crash
        allocated and no commit ever named."""
        garbage = sorted(set(self.disk.page_ids()) - set(self._page_of.values()))
        freed_bytes = sum(self.disk.page_size(page_id) for page_id in garbage)
        for page_id in garbage:
            self._free_page(page_id)
        return len(garbage), freed_bytes

    def detach(self) -> None:
        """Stop instrumenting the index (keeps disk contents).

        Unhooks only itself: when the tree has since been attached to
        another manager, that one's hook and dirty set stay.
        """
        if self.tree._storage_hook == self._on_access:
            self.tree._storage_hook = None
            self.tree._dirty = None

    def set_tracer(self, tracer: Tracer) -> None:
        """Point the index and the buffer pool at one tracer."""
        self.tree.tracer = tracer
        self.pool.tracer = tracer
        self._reader.tracer = tracer

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def io_summary(self) -> dict:
        stats = self.disk.stats
        return {
            "buffer_hits": self.pool.stats.hits,
            "buffer_misses": self.pool.stats.misses,
            "hit_ratio": self.pool.stats.hit_ratio,
            "evictions": self.pool.stats.evictions,
            "disk_reads": stats.reads,
            "disk_writes": stats.writes,
            "allocated_pages": self.disk.allocated_pages,
            "allocated_bytes": self.disk.allocated_bytes,
            "transient_errors": stats.transient_errors,
            "retries": stats.retries,
            "failed_ops": stats.failed_ops,
            "corrupt_pages": self._reader.corrupt_pages,
            "checkpoint_generation": self.generation,
            **(
                {"wal": self.wal.stats.snapshot()} if self.wal is not None else {}
            ),
            **(
                {"versions": self.versions.stats.snapshot()}
                if self.versions is not None
                else {}
            ),
        }
