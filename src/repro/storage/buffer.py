"""Thread-safe LRU buffer pool over the simulated disk.

Models the "only a small portion of the index may reside in main memory at
a given time" premise of the paper's introduction.  The pool is sized in
bytes (pages have level-dependent sizes, so a page count would be
misleading) and evicts least-recently-used unpinned pages, writing dirty
pages back to the simulated disk.

Thread-safety contract
----------------------
Every public method may be called from any thread.  One internal mutex
guards the frame table, the LRU order, pin accounting, and the statistics;
a condition variable on the same mutex coordinates two kinds of waiting:

* **pin waits** — when every resident page is pinned, :meth:`fetch` waits
  for some other thread to :meth:`release` a pin instead of raising.  If
  every outstanding pin belongs to the *calling* thread, no other thread
  can ever unpin, so the pool raises :class:`StorageError` immediately
  (the single-threaded behaviour, and a self-deadlock guard);
* **load waits** — a page being read from disk by another thread is in the
  in-flight table; a second fetcher of the same page waits for the first
  read to land rather than issuing a duplicate read.

Disk reads happen *outside* the mutex (real buffer managers never hold a
latch across I/O); that is what lets concurrent readers overlap their
page-fault latency.  Dirty-victim writebacks during eviction do run under
the mutex — evictions are rare on the read-heavy paths the concurrency
layer serves, and holding the latch keeps the "page is either on disk or
resident-dirty" invariant trivially crash-safe (see PR 2).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..exceptions import StorageError
from ..obs.lockgraph import TrackedCondition
from ..obs.tracer import NULL_TRACER, Tracer
from .disk import SimulatedDisk
from .page import Page, PageId

__all__ = [
    "BufferStats",
    "BufferPool",
    "CommitPoint",
    "PageVersion",
    "PinnedEpoch",
    "VersionStats",
    "PageVersionCache",
]


@dataclass
class BufferStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    #: Times a fetch had to wait for another thread to release a pin.
    pin_waits: int = 0
    #: Times a fetch waited for another thread's in-flight read of the
    #: same page instead of issuing a duplicate disk read.
    load_waits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """A plain-dict copy for reports and the metrics registry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "accesses": self.accesses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "dirty_writebacks": self.dirty_writebacks,
            "pin_waits": self.pin_waits,
            "load_waits": self.load_waits,
        }


class BufferPool:
    """Byte-budgeted LRU cache of pages, safe for concurrent callers.

    >>> disk = SimulatedDisk()
    >>> disk.allocate(1, 1024)
    >>> pool = BufferPool(disk, capacity_bytes=4096)
    >>> page = pool.fetch(1)
    >>> pool.release(1)
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity_bytes: int,
        tracer: Tracer | None = None,
        pin_wait_timeout: float = 10.0,
    ) -> None:
        if capacity_bytes <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.disk = disk
        self.capacity_bytes = capacity_bytes
        self.stats = BufferStats()
        #: Observability: ``page_fetch``/``eviction`` events flow here.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Upper bound on one fetch's total wait for a pin to be released
        #: when the pool is saturated with other threads' pins.
        self.pin_wait_timeout = pin_wait_timeout
        self._frames: "OrderedDict[PageId, Page]" = OrderedDict()
        self._resident_bytes = 0
        # One re-entrant mutex doubling as the condition variable; the
        # TrackedCondition reports to `repro racecheck`'s lock-order
        # recorder when one is installed (level "buffer", rank 2).
        self._cond = TrackedCondition("buffer", threading.RLock())
        self._lock = self._cond
        #: Pages currently being read from disk (reads happen unlatched).
        self._loading: set[PageId] = set()
        #: Pages dropped while their unlatched read was in flight; the
        #: loading thread discards its frame instead of resurrecting the
        #: deallocated page in the pool.
        self._dropped_while_loading: set[PageId] = set()
        #: Outstanding pins per thread id; lets a saturated fetch tell a
        #: recoverable wait from a self-deadlock.
        self._pins_by_thread: dict[int, int] = {}

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # Pin bookkeeping (callers hold self._lock)
    # ------------------------------------------------------------------
    def _pin(self, frame: Page) -> None:
        frame.pin()
        tid = threading.get_ident()
        self._pins_by_thread[tid] = self._pins_by_thread.get(tid, 0) + 1

    def _unpin(self, frame: Page) -> None:
        frame.unpin()
        tid = threading.get_ident()
        remaining = self._pins_by_thread.get(tid, 0) - 1
        if remaining > 0:
            self._pins_by_thread[tid] = remaining
        else:
            self._pins_by_thread.pop(tid, None)

    def _only_own_pins(self) -> bool:
        """True when every outstanding pin belongs to the calling thread."""
        tid = threading.get_ident()
        return all(owner == tid for owner in self._pins_by_thread)

    # ------------------------------------------------------------------
    # Fetch / release
    # ------------------------------------------------------------------
    def fetch(self, page_id: PageId) -> Page:
        """Pin the page in memory, reading from disk on a miss."""
        with self._cond:
            while True:
                frame = self._frames.get(page_id)
                if frame is not None:
                    self.stats.hits += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "page_fetch", page_id=page_id, hit=True, page_bytes=frame.size
                        )
                    self._frames.move_to_end(page_id)
                    self._pin(frame)
                    return frame
                if page_id in self._loading:
                    # Another thread is reading this page right now; wait
                    # for its frame to land instead of re-reading.
                    self.stats.load_waits += 1
                    self._cond.wait()
                    continue
                self.stats.misses += 1
                self._loading.add(page_id)
                break
        # read_ns = time *blocked* on the unlatched I/O: wall time minus
        # the thread CPU charged inside the window (syscall / timer
        # accounting), so a latency decomposition can add read_ns to a
        # thread-CPU measurement without double counting.
        read_start = time.monotonic_ns() if self.tracer.enabled else 0
        cpu_start = time.thread_time_ns() if self.tracer.enabled else 0
        try:
            data = self.disk.read_page(page_id)  # unlatched I/O
        except BaseException:
            with self._cond:
                self._loading.discard(page_id)
                self._dropped_while_loading.discard(page_id)
                self._cond.notify_all()
            raise
        read_ns = 0
        if self.tracer.enabled:
            read_ns = max(
                0,
                (time.monotonic_ns() - read_start)
                - (time.thread_time_ns() - cpu_start),
            )
        frame = Page(page_id, len(data), bytearray(data))
        with self._cond:
            # page_id stays in the in-flight table until the frame is
            # actually inserted: _make_room can release the mutex while
            # waiting for a pin, and a concurrent fetch of the same page
            # must keep waiting rather than issue a duplicate read and
            # insert a second frame over this one.
            try:
                if page_id in self._dropped_while_loading:
                    raise StorageError(f"page {page_id} was dropped during fetch")
                self._make_room(frame.size)
                if page_id in self._dropped_while_loading:
                    raise StorageError(f"page {page_id} was dropped during fetch")
                if self.tracer.enabled:
                    self.tracer.event(
                        "page_fetch",
                        page_id=page_id,
                        hit=False,
                        page_bytes=frame.size,
                        read_ns=read_ns,
                    )
                self._frames[page_id] = frame
                self._resident_bytes += frame.size
                self._pin(frame)
            finally:
                self._loading.discard(page_id)
                self._dropped_while_loading.discard(page_id)
                self._cond.notify_all()
        return frame

    def release(self, page_id: PageId, dirty: bool = False) -> None:
        """Unpin a fetched page, optionally marking it dirty."""
        with self._cond:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} is not resident")
            if dirty:
                frame.dirty = True
            self._unpin(frame)
            self._cond.notify_all()

    def touch(self, page_id: PageId, dirty: bool = False) -> None:
        """Convenience: fetch + immediate release (one logical access)."""
        self.fetch(page_id)
        self.release(page_id, dirty)

    def flush(self) -> None:
        """Write back every dirty resident page."""
        with self._lock:
            for frame in self._frames.values():
                if frame.dirty:
                    self.disk.write_page(frame.page_id, bytes(frame.data))
                    frame.dirty = False
                    self.stats.dirty_writebacks += 1

    def drop(self, page_id: PageId) -> None:
        """Remove a page from the pool without writing it back (the caller
        deallocated it).

        Dropping a pinned page is an error: some caller still holds the
        frame, and silently unframing it would corrupt pin accounting the
        moment that caller releases.  Dropping a page whose disk read is
        still in flight invalidates the load — that fetch raises
        :class:`StorageError` instead of resurrecting the dropped page.
        """
        with self._cond:
            if page_id in self._loading:
                # An unlatched disk read of this page is in flight; mark it
                # so the loader discards its frame instead of resurrecting
                # the deallocated page in the pool.
                self._dropped_while_loading.add(page_id)
                return
            frame = self._frames.get(page_id)
            if frame is None:
                return
            if frame.pin_count:
                raise StorageError(
                    f"cannot drop page {page_id}: {frame.pin_count} pin(s) held"
                )
            del self._frames[page_id]
            self._resident_bytes -= frame.size
            # A dropped page id may be re-allocated later; the stale frame
            # must not leak its dirty flag into that new life.
            frame.dirty = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Accounting invariants (the stress harness and the hypothesis
    # oracle both call this after every run)
    # ------------------------------------------------------------------
    def verify_accounting(self, expect_unpinned: bool = False) -> None:
        """Raise :class:`StorageError` on any internal inconsistency.

        Checks ``resident_bytes`` == sum of frame sizes, resident page
        count, pin balance (frame pin counts vs. per-thread ledger), and
        basic stats sanity.  With ``expect_unpinned`` (a quiescent pool)
        every pin count must be zero.
        """
        with self._lock:
            actual_bytes = sum(f.size for f in self._frames.values())
            if actual_bytes != self._resident_bytes:
                raise StorageError(
                    f"resident_bytes {self._resident_bytes} != "
                    f"sum of frame sizes {actual_bytes}"
                )
            if self._resident_bytes > self.capacity_bytes:
                raise StorageError(
                    f"resident_bytes {self._resident_bytes} exceeds capacity "
                    f"{self.capacity_bytes}"
                )
            total_pins = sum(f.pin_count for f in self._frames.values())
            ledger = sum(self._pins_by_thread.values())
            if total_pins != ledger:
                raise StorageError(
                    f"pin counts unbalanced: frames hold {total_pins}, "
                    f"thread ledger holds {ledger}"
                )
            if expect_unpinned and total_pins:
                raise StorageError(f"{total_pins} pin(s) outstanding on a quiescent pool")
            if any(f.pin_count < 0 for f in self._frames.values()):
                raise StorageError("negative pin count")
            if self.stats.hits + self.stats.misses != self.stats.accesses:
                raise StorageError("hit/miss accounting inconsistent")

    # ------------------------------------------------------------------
    # Eviction (callers hold self._lock)
    # ------------------------------------------------------------------
    def _make_room(self, needed: int) -> None:
        if needed > self.capacity_bytes:
            raise StorageError(
                f"page of {needed} bytes exceeds pool capacity "
                f"{self.capacity_bytes}"
            )
        deadline: float | None = None
        while self._resident_bytes + needed > self.capacity_bytes:
            victim_id = self._pick_victim()
            if victim_id is None:
                # Every resident page is pinned.  If any pin belongs to
                # another thread, wait for a release; if they are all ours
                # nobody can ever unpin and waiting would self-deadlock.
                if self._only_own_pins():
                    raise StorageError(
                        "buffer pool exhausted: every resident page is pinned"
                    )
                # Wall-clock deadline: cond waits wake early on every
                # notify (releases, load completions, drops), so counting
                # nominal steps would exhaust the timeout after far less
                # real waiting.
                now = time.monotonic()
                if deadline is None:
                    deadline = now + self.pin_wait_timeout
                if now >= deadline:
                    raise StorageError(
                        "buffer pool exhausted: every resident page is pinned "
                        f"(waited {self.pin_wait_timeout:.1f}s for a release)"
                    )
                self.stats.pin_waits += 1
                self._cond.wait(timeout=min(0.5, deadline - now))
                continue
            victim = self._frames[victim_id]
            was_dirty = victim.dirty
            if victim.dirty:
                # Write back while the frame is still resident: if the
                # write raises (e.g. an injected transient fault) the
                # dirty page survives in the pool and a retried fetch
                # re-attempts the writeback instead of losing the data.
                self.disk.write_page(victim.page_id, bytes(victim.data))
                victim.dirty = False
                self.stats.dirty_writebacks += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "eviction",
                    page_id=victim.page_id,
                    dirty=was_dirty,
                    page_bytes=victim.size,
                )
            del self._frames[victim_id]
            self._resident_bytes -= victim.size
            self.stats.evictions += 1

    def _pick_victim(self) -> PageId | None:
        for page_id, frame in self._frames.items():  # LRU order
            if frame.pin_count == 0:
                return page_id
        return None


# ---------------------------------------------------------------------------
# Copy-on-write page versioning (MVCC snapshot reads)
# ---------------------------------------------------------------------------
class PageVersion:
    """One immutable page version in a copy-on-write chain.

    ``epoch`` is the commit epoch (the WAL commit LSN when a log is
    attached) that published this version; ``prev`` links to the version
    it superseded.  ``data`` never changes after publication, so readers
    may hold a version across arbitrary writer activity.  ``image`` is a
    lazily-attached decode cache (the deserialized node); setting it is a
    benign race — every decoder produces an equivalent immutable value.
    """

    __slots__ = ("epoch", "data", "prev", "image")

    def __init__(self, epoch: int, data: bytes, prev: "PageVersion | None") -> None:
        self.epoch = epoch
        self.data = data
        self.prev = prev
        self.image: Any = None


class CommitPoint:
    """An immutable (epoch, root page) pair: one published commit."""

    __slots__ = ("epoch", "root_page")

    def __init__(self, epoch: int, root_page: PageId) -> None:
        self.epoch = epoch
        self.root_page = root_page


@dataclass(frozen=True)
class PinnedEpoch:
    """A reader's pin on one commit (returned by :meth:`PageVersionCache.pin`)."""

    token: int
    epoch: int
    root_page: PageId


@dataclass
class VersionStats:
    """Counters for the version cache's publish / reclaim paths."""

    versions_published: int = 0
    versions_reclaimed: int = 0
    #: Bytes of page images currently resident across all version chains.
    version_bytes: int = 0
    peak_version_bytes: int = 0
    gc_runs: int = 0
    snapshots_opened: int = 0
    snapshots_closed: int = 0
    #: Times a pin raced a concurrent reclamation and re-pinned (see the
    #: announced-floor protocol in :class:`PageVersionCache`).
    pin_retries: int = 0

    def snapshot(self) -> dict:
        return {
            "versions_published": self.versions_published,
            "versions_reclaimed": self.versions_reclaimed,
            "version_bytes": self.version_bytes,
            "peak_version_bytes": self.peak_version_bytes,
            "gc_runs": self.gc_runs,
            "snapshots_opened": self.snapshots_opened,
            "snapshots_closed": self.snapshots_closed,
            "pin_retries": self.pin_retries,
        }


class PageVersionCache:
    """Copy-on-write page versions with epoch-pinned, latch-free readers.

    Writers never mutate a published page in place: each commit publishes
    fresh page images as new :class:`PageVersion` heads and then swings
    ``latest`` to the commit's :class:`CommitPoint`.  A reader pins the
    latest commit epoch and traverses the chains entirely latch-free —
    every structure a reader touches is either immutable (versions,
    commit points) or mutated only through single-bytecode dict/attribute
    operations that the GIL makes atomic.

    Thread-safety contract
    ----------------------
    * :meth:`publish`, :meth:`trim`, :meth:`mark_sweep` — **single
      mutator**: callers must hold the engine's exclusive write latch (or
      otherwise serialize).  They take no locks of their own.
    * :meth:`pin`, :meth:`unpin`, :meth:`read`, :attr:`latest` — any
      thread, latch-free.  The read path acquires nothing and can never
      emit a ``latch_wait`` event.

    Pin / GC coordination (the announced-floor protocol)
    ----------------------------------------------------
    A reclaimer first *announces* its intended floor (the latest epoch)
    by an atomic attribute write, then scans the pin table and reclaims
    only below ``min(pinned epochs, latest)``.  A reader pins by writing
    its epoch into the pin table and *then* checking the announced floor:
    if the floor has moved past its epoch, a reclaimer may have scanned
    the table before the pin landed, so the reader retries against the
    (necessarily newer) latest commit.  Once the check passes, any later
    reclaimer's scan happens after the pin is visible and therefore
    bounds its horizon by it — pinned versions are never reclaimed.
    """

    def __init__(
        self,
        decode: "Callable[[bytes], Any] | None" = None,
        tracer: Tracer | None = None,
    ) -> None:
        #: Decodes a page image into a node image exposing ``branches``
        #: (with ``child`` / ``spanning``) and ``data_entries`` — used by
        #: :meth:`mark_sweep` to walk reachability and collect live
        #: record ids.  ``None`` disables mark-sweep (trim still works).
        self.decode = decode
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = VersionStats()
        #: Chain heads: page id -> newest published version.
        self._heads: dict[PageId, PageVersion] = {}
        #: Chains that currently hold more than one version (trim targets).
        self._multi: set[PageId] = set()
        #: The newest published commit; readers pin this.
        self._latest: "CommitPoint | None" = None
        #: Root page per published epoch, for mark-sweep anchors.
        self._roots: dict[int, PageId] = {}
        #: Live reader pins: token -> pinned epoch (GIL-atomic dict ops).
        self._pins: dict[int, int] = {}
        #: Highest floor any reclaimer has announced (see class docstring).
        self._announced_floor = 0
        #: ``itertools.count`` hands out tokens without a lock (C-level).
        self._tokens = itertools.count(1)
        #: Record payloads (payloads live outside index pages).  A record
        #: id is never reused and its payload never changes, so readers
        #: may consult this map for any record their snapshot can see.
        self._payloads: dict[int, Any] = {}
        #: Committed (epoch, note) pairs, appended *before* the commit
        #: point is swung: a reader that sees ``latest.epoch == E`` also
        #: sees every note with epoch <= E.  Notes are opt-in (oracle
        #: tests and benches); ``None`` notes are not recorded.
        self.commit_log: list[tuple[int, Any]] = []

    # -- introspection --------------------------------------------------
    @property
    def latest(self) -> "CommitPoint | None":
        """The newest published commit (atomic attribute read)."""
        return self._latest

    @property
    def chains(self) -> int:
        return len(self._heads)

    @property
    def version_count(self) -> int:
        count = 0
        for head in list(self._heads.values()):
            version: "PageVersion | None" = head
            while version is not None:
                count += 1
                version = version.prev
        return count

    @property
    def pinned_epochs(self) -> list[int]:
        """Currently pinned epochs (a snapshot copy; mutator-safe)."""
        while True:
            try:
                return sorted(self._pins.values())
            except RuntimeError:  # pin table resized mid-iteration
                continue

    # -- publish (single mutator) ---------------------------------------
    def publish(
        self,
        epoch: int,
        images: Mapping[PageId, bytes],
        root_page: PageId,
        payloads: "Mapping[int, Any] | None" = None,
        note: Any = None,
    ) -> None:
        """Publish one commit's copy-on-write page versions.

        Must run under the writer's exclusive latch, *after* the commit's
        WAL append (so ``epoch`` is the commit LSN when a log is
        attached) and before the latch is released — the new commit
        becomes visible to snapshots the moment ``latest`` is swung,
        which is the last step here.
        """
        latest = self._latest
        if latest is not None and epoch <= latest.epoch:
            raise StorageError(
                f"commit epoch {epoch} is not newer than published epoch "
                f"{latest.epoch}"
            )
        for page_id, data in images.items():
            prev = self._heads.get(page_id)
            version = PageVersion(epoch, bytes(data), prev)
            self._heads[page_id] = version
            if prev is not None:
                self._multi.add(page_id)
            self.stats.versions_published += 1
            self.stats.version_bytes += len(version.data)
        if self.stats.version_bytes > self.stats.peak_version_bytes:
            self.stats.peak_version_bytes = self.stats.version_bytes
        if payloads:
            self._payloads.update(payloads)
        self._roots[epoch] = root_page
        if note is not None:
            self.commit_log.append((epoch, note))
        # The publication point: after this assignment the commit is
        # visible to every subsequently-opened snapshot.
        self._latest = CommitPoint(epoch, root_page)

    # -- reader pinning (latch-free) ------------------------------------
    def pin(self) -> PinnedEpoch:
        """Pin the latest commit; see the announced-floor protocol above."""
        token = next(self._tokens)
        while True:
            commit = self._latest
            if commit is None:
                raise StorageError("no commit published yet (cache is empty)")
            self._pins[token] = commit.epoch
            if self._announced_floor <= commit.epoch:
                self.stats.snapshots_opened += 1
                return PinnedEpoch(token, commit.epoch, commit.root_page)
            # A reclaimer announced a floor past our epoch after we read
            # ``latest`` — it may have scanned the pin table before our
            # pin landed.  Drop the pin and retry against the newer
            # commit (``latest`` is always >= the announced floor).
            del self._pins[token]
            self.stats.pin_retries += 1

    def unpin(self, pin: PinnedEpoch) -> None:
        """Release a reader's pin (idempotent)."""
        if self._pins.pop(pin.token, None) is not None:
            self.stats.snapshots_closed += 1

    def read(self, page_id: PageId, epoch: int) -> "PageVersion | None":
        """The newest version of ``page_id`` visible at ``epoch``.

        Latch-free: one atomic dict read, then a walk over immutable
        links.  ``None`` when the page has no version at or below the
        epoch (e.g. it was first allocated by a later commit).
        """
        version = self._heads.get(page_id)
        while version is not None and version.epoch > epoch:
            version = version.prev
        return version

    # -- reclamation (single mutator) -----------------------------------
    def _begin_gc(self) -> int:
        """Announce reclamation intent, then compute the safe horizon."""
        latest = self._latest
        if latest is None:
            return 0
        # Announce FIRST (atomic attribute write): readers that pin after
        # this observe the floor and retry; readers that pinned before
        # are seen by the scan below.
        if latest.epoch > self._announced_floor:
            self._announced_floor = latest.epoch
        while True:
            try:
                pinned = min(self._pins.values(), default=latest.epoch)
            except RuntimeError:  # a reader resized the table mid-scan
                continue
            return min(pinned, latest.epoch)

    def trim(self) -> tuple[int, int]:
        """Cut superseded versions below the horizon from multi-version
        chains; returns ``(versions_reclaimed, bytes_reclaimed)``.

        Cheap incremental GC: visits only chains that actually hold more
        than one version.  A version is reclaimable when a newer version
        of the same page exists at or below the horizon — no live or
        future snapshot can ever reach it.  Unreferenced chains (pages
        whose node was condemned) are :meth:`mark_sweep`'s job.
        """
        horizon = self._begin_gc()
        reclaimed = 0
        freed = 0
        for page_id in list(self._multi):
            head = self._heads.get(page_id)
            if head is None:
                self._multi.discard(page_id)
                continue
            # Find the newest version at or below the horizon; everything
            # older is invisible to every possible snapshot.
            keeper: PageVersion = head
            while keeper.epoch > horizon and keeper.prev is not None:
                keeper = keeper.prev
            dropped = keeper.prev
            keeper.prev = None  # atomic; readers never walk past keeper
            while dropped is not None:
                reclaimed += 1
                freed += len(dropped.data)
                dropped = dropped.prev
            if head.prev is None:
                self._multi.discard(page_id)
        self._finish_gc("trim", horizon, reclaimed, freed)
        return reclaimed, freed

    def mark_sweep(self) -> tuple[int, int]:
        """Full reachability GC: keep exactly the versions some live or
        future snapshot can reach; returns ``(versions, bytes)`` freed.

        Anchors are the latest commit plus every pinned commit.  For each
        anchor the reachable (page, version) pairs are marked by walking
        child-page references out of the decoded images; everything
        unmarked — superseded versions *and* whole chains of condemned
        pages — is swept.  Payloads of records no longer reachable from
        any anchor are dropped with them.  Requires a ``decode`` hook.
        """
        if self.decode is None:
            raise StorageError("mark_sweep needs a decode hook")
        latest = self._latest
        if latest is None:
            return 0, 0
        horizon = self._begin_gc()
        anchors: dict[int, PageId] = {latest.epoch: latest.root_page}
        for epoch in self.pinned_epochs:
            root = self._roots.get(epoch)
            if root is None:
                raise StorageError(f"pinned epoch {epoch} has no recorded root")
            anchors[epoch] = root
        marked: set[int] = set()
        live_records: set[int] = set()
        for epoch, root in anchors.items():
            if not root:
                continue  # root page 0: the empty-tree sentinel
            # Page ids are stable across republishes, so the same parent
            # version can resolve to *different* child versions at
            # different epochs — each anchor walks its tree in full.
            visited: set[PageId] = set()
            stack = [root]
            while stack:
                page_id = stack.pop()
                if page_id in visited:
                    continue
                visited.add(page_id)
                version = self.read(page_id, epoch)
                if version is None:
                    raise StorageError(
                        f"page {page_id} unreachable at anchored epoch {epoch}"
                    )
                marked.add(id(version))
                image = version.image
                if image is None:
                    image = self.decode(version.data)
                    version.image = image
                for record in image.data_entries:
                    live_records.add(record.record_id)
                for branch in image.branches:
                    for record in branch.spanning:
                        live_records.add(record.record_id)
                    stack.append(branch.child)
        reclaimed = 0
        freed = 0
        for page_id in list(self._heads):
            head = self._heads[page_id]
            kept: list[PageVersion] = []
            version: "PageVersion | None" = head
            while version is not None:
                if id(version) in marked:
                    kept.append(version)
                else:
                    reclaimed += 1
                    freed += len(version.data)
                version = version.prev
            if not kept:
                del self._heads[page_id]
                self._multi.discard(page_id)
                continue
            if len(kept) < self._chain_length(head) or kept[0] is not head:
                # Relink the surviving versions newest-first.  The new
                # head is swung atomically; readers mid-walk on the old
                # chain stay safe because old links are never redirected
                # to different versions, only dropped.
                for newer, older in zip(kept, kept[1:]):
                    newer.prev = older
                kept[-1].prev = None
                self._heads[page_id] = kept[0]
            if len(kept) > 1:
                self._multi.add(page_id)
            else:
                self._multi.discard(page_id)
        # Roots of epochs below the horizon can never anchor a snapshot
        # again (pins are >= horizon, future pins are >= latest).
        for epoch in [e for e in self._roots if e < horizon]:
            del self._roots[epoch]
        dead_payloads = [rid for rid in self._payloads if rid not in live_records]
        for rid in dead_payloads:
            del self._payloads[rid]
        self._finish_gc("mark_sweep", horizon, reclaimed, freed)
        return reclaimed, freed

    @staticmethod
    def _chain_length(head: PageVersion) -> int:
        length = 0
        version: "PageVersion | None" = head
        while version is not None:
            length += 1
            version = version.prev
        return length

    def _finish_gc(self, mode: str, horizon: int, reclaimed: int, freed: int) -> None:
        self.stats.gc_runs += 1
        self.stats.versions_reclaimed += reclaimed
        self.stats.version_bytes -= freed
        if self.tracer.enabled:
            self.tracer.event(
                "version_gc",
                reclaimed_versions=reclaimed,
                reclaimed_bytes=freed,
                mode=mode,
                horizon=horizon,
            )

    # -- payloads --------------------------------------------------------
    def payload(self, record_id: int) -> Any:
        """The payload stored for ``record_id`` (``None`` when absent)."""
        return self._payloads.get(record_id)

    # -- invariants ------------------------------------------------------
    def verify_accounting(self) -> None:
        """Raise :class:`StorageError` on any internal inconsistency."""
        actual = 0
        count = 0
        for head in self._heads.values():
            version: "PageVersion | None" = head
            prior = None
            while version is not None:
                actual += len(version.data)
                count += 1
                if prior is not None and version.epoch >= prior:
                    raise StorageError(
                        f"version chain epochs out of order ({version.epoch} "
                        f"after {prior})"
                    )
                prior = version.epoch
                version = version.prev
        if actual != self.stats.version_bytes:
            raise StorageError(
                f"version_bytes {self.stats.version_bytes} != "
                f"sum of resident versions {actual}"
            )
        published = self.stats.versions_published
        reclaimed = self.stats.versions_reclaimed
        if count != published - reclaimed:
            raise StorageError(
                f"{count} resident versions != {published} published - "
                f"{reclaimed} reclaimed"
            )
