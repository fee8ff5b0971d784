"""Thread-safe LRU buffer pool over the simulated disk.

Models the "only a small portion of the index may reside in main memory at
a given time" premise of the paper's introduction.  The pool is sized in
bytes (pages have level-dependent sizes, so a page count would be
misleading) and evicts least-recently-used pages, writing dirty pages back
to the simulated disk.

Thread-safety contract
----------------------
Every public method may be called from any thread.  One internal mutex
guards the frame table, the LRU order and the statistics.  The pool lends
no frames: a frame's bytes are immutable, so :meth:`read` hands them out
and :meth:`write` swaps a whole new image in, each inside the pool's own
critical sections; no caller ever holds a frame and any resident page may
be evicted.  A condition variable on the same mutex coordinates the one
kind of waiting — a page being read from disk by another thread is in the
in-flight table, and a second accessor of the same page waits for the
first read to land rather than issuing a duplicate read.

:meth:`touch` is an access that moves no bytes: a hit is a single
critical section, a miss one more after its disk read.  :meth:`touch_all`
is the storage hook's call per read: the same touches, with a run of
resident pages in one section and each miss installed in the section
that counts the run after it — k + 1 sections for k misses.

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
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..exceptions import StorageError, TransientDiskError
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
    #: Times an access waited for another thread's in-flight read of the
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
        """A plain-dict copy for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "accesses": self.accesses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "dirty_writebacks": self.dirty_writebacks,
            "load_waits": self.load_waits,
        }


class BufferPool:
    """Byte-budgeted LRU cache of pages, safe for concurrent callers.

    >>> disk = SimulatedDisk()
    >>> disk.allocate(1, 1024)
    >>> pool = BufferPool(disk, capacity_bytes=4096)
    >>> pool.write(1, b"x" * 1024)
    >>> pool.read(1)[:2]
    b'xx'
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity_bytes: int,
        tracer: Tracer | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.disk = disk
        self.capacity_bytes = capacity_bytes
        self.stats = BufferStats()
        #: Observability: ``page_fetch``/``eviction`` events flow here.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
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
        #: Threads waiting in :meth:`_probe` for an in-flight read to land;
        #: an install wakes them only when there are some.
        self._load_waiters = 0

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # Whole-page read / write
    # ------------------------------------------------------------------
    def read(self, page_id: PageId) -> bytes:
        """One access that returns the page's bytes, reading it in on a miss."""
        with self._cond:
            frame = self._probe(page_id)
            if frame is not None:
                return frame.data
        return self._miss(page_id).data

    def write(self, page_id: PageId, image: bytes) -> None:
        """One access that overwrites the page with ``image`` and marks it
        dirty.  A miss reads the page in first, as any access does, and
        installs the frame already written.  An image that is not exactly
        the page's size is refused before anything changes, as the disk
        would refuse it."""
        size = self.disk.page_size(page_id)
        if len(image) != size:
            raise StorageError(
                f"page {page_id}: write of {len(image)} bytes != page size {size}"
            )
        image = bytes(image)
        with self._cond:
            frame = self._probe(page_id)
            if frame is not None:
                frame.data = image
                frame.dirty = True
                return
        self._miss(page_id, image)

    def touch(self, page_id: PageId) -> None:
        """One logical access that moves no bytes.

        A hit is one critical section: count it, trace it, move the page
        to the MRU end.  A miss is one more, after the unlatched disk
        read, to install the frame (:meth:`_miss`).
        """
        with self._cond:
            if self._probe(page_id) is not None:
                return
        self._miss(page_id)

    def touch_all(
        self,
        page_ids: Sequence[PageId],
        retry: Callable[[PageId, TransientDiskError], None],
    ) -> None:
        """:meth:`touch` each page in order, in one critical section per
        miss plus one: a section counts a run of resident pages and probes
        the miss that ends it; that page is read outside the mutex, and the
        next section installs it before it counts the run after it.  A
        visit with k misses takes k + 1 sections, and its accesses, LRU
        order, evictions and events are those of one :meth:`touch` per
        page.  A miss whose read raises :class:`TransientDiskError` —
        attempt 1 — is handed to ``retry`` outside the handler; the
        touches resume after it."""
        frames = self._frames
        move = frames.move_to_end
        tracer = self.tracer if self.tracer.enabled else None
        stats = self.stats
        start = 0
        loaded: "tuple[Page, int] | None" = None
        while True:
            with self._cond:
                if loaded is not None:
                    self._install(*loaded)
                # The run of resident pages from ``start``: each a hit,
                # traced and moved to the MRU end, in order.
                end = start
                for page_id in itertools.islice(page_ids, start, None) if start else page_ids:
                    try:
                        move(page_id)
                    except KeyError:
                        break
                    if tracer is not None:
                        tracer.event(
                            "page_fetch", page_id=page_id, hit=True, page_bytes=frames[page_id].size
                        )
                    end += 1
                stats.hits += end - start
                if end == len(page_ids):
                    return
                page_id = page_ids[end]
                frame = self._probe(page_id)
            start = end + 1
            loaded = None
            if frame is not None:
                continue  # another thread's read of it landed meanwhile
            try:
                loaded = self._load(page_id)
                continue
            except TransientDiskError as exc:
                error = exc
            retry(page_id, error)

    # ------------------------------------------------------------------
    # The parts of an access
    # ------------------------------------------------------------------
    def _probe(self, page_id: PageId) -> "Page | None":
        """Under the mutex: the resident frame, counted as a hit and moved
        to the MRU end — or ``None`` once the access is counted as a miss
        and the page marked in flight, which obliges the caller to
        :meth:`_load` it."""
        while True:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.stats.hits += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "page_fetch", page_id=page_id, hit=True, page_bytes=frame.size
                    )
                self._frames.move_to_end(page_id)
                return frame
            if page_id not in self._loading:
                self.stats.misses += 1
                self._loading.add(page_id)
                return None
            # Another thread is reading this page right now; wait for its
            # frame to land instead of re-reading.
            self.stats.load_waits += 1
            self._load_waiters += 1
            try:
                self._cond.wait()
            finally:
                self._load_waiters -= 1

    def _miss(self, page_id: PageId, image: "bytes | None" = None) -> Page:
        """Read in-flight ``page_id`` and install it in one section."""
        loaded = self._load(page_id, image)
        with self._cond:
            self._install(*loaded)
        return loaded[0]

    def _load(self, page_id: PageId, image: "bytes | None" = None) -> "tuple[Page, int]":
        """Outside the mutex: read in-flight ``page_id`` from disk into a
        frame — holding ``image``, dirty, when given — and return it with
        the ns the read blocked (0 untraced).  A read that raises takes the
        page out of flight first."""
        # read_ns = time *blocked* on the unlatched I/O: wall time minus
        # the thread CPU charged inside the window (syscall / timer
        # accounting), so a latency decomposition can add read_ns to a
        # thread-CPU measurement without double counting.
        tracing = self.tracer.enabled
        if tracing:
            read_start = time.monotonic_ns()
            cpu_start = time.thread_time_ns()
        try:
            data = self.disk.read_page(page_id)  # unlatched I/O
        except BaseException:
            with self._cond:
                self._loading.discard(page_id)
                self._dropped_while_loading.discard(page_id)
                if self._load_waiters:
                    self._cond.notify_all()
            raise
        read_ns = 0
        if tracing:
            read_ns = max(
                0,
                (time.monotonic_ns() - read_start) - (time.thread_time_ns() - cpu_start),
            )
        if image is None:
            return Page.frame(page_id, data), read_ns
        return Page.frame(page_id, image, dirty=True), read_ns

    def _install(self, frame: Page, read_ns: int) -> None:
        """Under the mutex: make room for a frame :meth:`_load` read and
        install it at the MRU end; its page leaves the in-flight table
        here, installed or not, and any load waiter is woken."""
        page_id = frame.page_id
        try:
            if page_id in self._dropped_while_loading:
                raise StorageError(f"page {page_id} was dropped during fetch")
            size = frame.size
            if self._resident_bytes + size > self.capacity_bytes:
                self._make_room(size)
            if self.tracer.enabled:
                self.tracer.event(
                    "page_fetch",
                    page_id=page_id,
                    hit=False,
                    page_bytes=size,
                    read_ns=read_ns,
                )
            self._frames[page_id] = frame
            self._resident_bytes += size
        finally:
            self._loading.discard(page_id)
            self._dropped_while_loading.discard(page_id)
            if self._load_waiters:
                self._cond.notify_all()

    def flush(self) -> None:
        """Write back every dirty resident page."""
        with self._lock:
            for frame in self._frames.values():
                if frame.dirty:
                    self.disk.write_page(frame.page_id, frame.data)
                    frame.dirty = False
                    self.stats.dirty_writebacks += 1

    def drop(self, page_id: PageId) -> None:
        """Remove a page from the pool without writing it back (the caller
        deallocated it).

        Dropping a page whose disk read is still in flight invalidates the
        load — that access raises :class:`StorageError` instead of
        resurrecting the dropped page.
        """
        with self._cond:
            if page_id in self._loading:
                self._dropped_while_loading.add(page_id)
                return
            frame = self._frames.pop(page_id, None)
            if frame is None:
                return
            self._resident_bytes -= frame.size
            # A dropped page id may be re-allocated later; the stale frame
            # must not leak its dirty flag into that new life.
            frame.dirty = False

    # ------------------------------------------------------------------
    # Accounting invariants (the stress harness and the hypothesis
    # oracle both call this after every run)
    # ------------------------------------------------------------------
    def verify_accounting(self) -> None:
        """Raise :class:`StorageError` on any internal inconsistency:
        ``resident_bytes`` against the frame sizes and the capacity, and
        basic stats sanity."""
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
        while self._resident_bytes + needed > self.capacity_bytes:
            victim = next(iter(self._frames.values()))  # the LRU head
            was_dirty = victim.dirty
            if victim.dirty:
                # Write back while the frame is still resident: if the
                # write raises (e.g. an injected transient fault) the
                # dirty page survives in the pool and a retried access
                # re-attempts the writeback instead of losing the data.
                self.disk.write_page(victim.page_id, victim.data)
                victim.dirty = False
                self.stats.dirty_writebacks += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "eviction",
                    page_id=victim.page_id,
                    dirty=was_dirty,
                    page_bytes=victim.size,
                )
            del self._frames[victim.page_id]
            self._resident_bytes -= victim.size
            self.stats.evictions += 1


# ---------------------------------------------------------------------------
# Copy-on-write page versioning (MVCC snapshot reads)
# ---------------------------------------------------------------------------
class PageVersion:
    """One immutable page version in a copy-on-write chain.

    ``epoch`` is the commit epoch (the WAL commit LSN when a log is
    attached) that published this version; ``prev`` links to the version
    it superseded.  ``data`` never changes after publication, so readers
    may hold a version across arbitrary writer activity.  ``payloads``
    holds the non-``None`` payloads of the records on the page (payloads
    are not in the image), so a payload lives exactly as long as the
    version that shows it.  ``image`` is a lazily-attached decode cache
    (the deserialized node); setting it is a benign race — every decoder
    produces an equivalent immutable value.
    """

    __slots__ = ("epoch", "data", "prev", "payloads", "image")

    def __init__(
        self,
        epoch: int,
        data: bytes,
        prev: "PageVersion | None",
        payloads: "Mapping[int, Any] | None",
    ) -> None:
        self.epoch = epoch
        self.data = data
        self.prev = prev
        self.payloads = payloads
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
    * :meth:`publish`, :meth:`trim` — **single mutator**: callers must
      hold the engine's exclusive write latch (or otherwise serialize).
      They take no locks of their own.
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

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = VersionStats()
        #: Chain heads: page id -> newest published version.
        self._heads: dict[PageId, PageVersion] = {}
        #: Chains that currently hold more than one version (trim targets).
        self._multi: set[PageId] = set()
        #: Pages whose node a commit unlinked -> the epoch of that commit,
        #: in epoch order.  No snapshot at or above it can reach the page.
        self._dead: dict[PageId, int] = {}
        #: The newest published commit; readers pin this.
        self._latest: "CommitPoint | None" = None
        #: Live reader pins: token -> pinned epoch (GIL-atomic dict ops).
        self._pins: dict[int, int] = {}
        #: Highest floor any reclaimer has announced (see class docstring).
        self._announced_floor = 0
        #: ``itertools.count`` hands out tokens without a lock (C-level).
        self._tokens = itertools.count(1)
        #: Committed (epoch, note) pairs, appended *before* the commit
        #: point is swung: a reader that sees ``latest.epoch == E`` also
        #: sees every note with epoch <= E.  ``None`` until a reader
        #: (oracle tests and benches) arms it with ``commit_log = []``;
        #: ``None`` notes are not recorded.
        self.commit_log: "list[tuple[int, Any]] | None" = None

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
        payloads: "Mapping[PageId, Mapping[int, Any]] | None" = None,
        freed: Iterable[PageId] = (),
        note: Any = None,
    ) -> None:
        """Publish one commit's copy-on-write page versions.

        Must run under the writer's exclusive latch, *after* the commit's
        WAL append (so ``epoch`` is the commit LSN when a log is
        attached) and before the latch is released — the new commit
        becomes visible to snapshots the moment ``latest`` is swung,
        which is the last step here.

        ``payloads`` gives, per page, the non-``None`` payloads of its
        records.  ``freed`` names the pages whose nodes this commit
        unlinked: their parents are republished without the branch in
        this same commit, so the pages die at ``epoch`` and :meth:`trim`
        drops their whole chains once the horizon reaches it.  A freed
        page that was never published is a no-op; ``root_page`` 0 (the
        emptied tree) kills every chain.
        """
        latest = self._latest
        if latest is not None and epoch <= latest.epoch:
            raise StorageError(
                f"commit epoch {epoch} is not newer than published epoch "
                f"{latest.epoch}"
            )
        for page_id, data in images.items():
            prev = self._heads.get(page_id)
            version = PageVersion(
                epoch, bytes(data), prev, payloads.get(page_id) if payloads else None
            )
            self._heads[page_id] = version
            if prev is not None:
                self._multi.add(page_id)
                # Page ids are never reused, so only the root of a tree
                # that emptied and refilled comes back from the dead.
                self._dead.pop(page_id, None)
            self.stats.versions_published += 1
            self.stats.version_bytes += len(version.data)
        if self.stats.version_bytes > self.stats.peak_version_bytes:
            self.stats.peak_version_bytes = self.stats.version_bytes
        for page_id in freed if root_page else list(self._heads):
            if page_id in self._heads:
                self._dead.setdefault(page_id, epoch)
        if note is not None and self.commit_log is not None:
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
        """Reclaim every version no live or future snapshot can reach;
        returns ``(versions_reclaimed, bytes_reclaimed)``.

        Runs on every commit and visits only what can shrink: the whole
        chain of a dead page goes once the horizon has reached the epoch
        it died at (see :meth:`publish`), and a multi-version chain
        keeps its newest version at or below the horizon and loses every
        older one — a newer version of the same page shadows them for
        every possible snapshot.
        """
        horizon = self._begin_gc()
        doomed = []
        for page_id, died in self._dead.items():  # epoch order
            if died > horizon:
                break
            doomed.append(page_id)
        cut: list[PageVersion | None] = []
        for page_id in doomed:
            del self._dead[page_id]
            self._multi.discard(page_id)
            cut.append(self._heads.pop(page_id))
        for page_id in list(self._multi):
            head = self._heads[page_id]
            keeper: PageVersion = head
            while keeper.epoch > horizon and keeper.prev is not None:
                keeper = keeper.prev
            cut.append(keeper.prev)
            keeper.prev = None  # atomic; readers never walk past keeper
            if head.prev is None:
                self._multi.discard(page_id)
        reclaimed = 0
        freed = 0
        for dropped in cut:
            while dropped is not None:
                reclaimed += 1
                freed += len(dropped.data)
                dropped = dropped.prev
        self.stats.gc_runs += 1
        self.stats.versions_reclaimed += reclaimed
        self.stats.version_bytes -= freed
        if self.tracer.enabled:
            self.tracer.event(
                "version_gc",
                reclaimed_versions=reclaimed,
                reclaimed_bytes=freed,
                horizon=horizon,
            )
        return reclaimed, freed

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
