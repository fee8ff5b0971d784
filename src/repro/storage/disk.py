"""Simulated disk: a page-addressed file with I/O accounting.

The paper reports machine-independent node accesses; the physical-I/O side
of a paged index (reads, writes, transfer volume) is reproduced here as a
deterministic simulation so the buffer-pool benchmarks (experiment P1 in
DESIGN.md) can study locality without real hardware.

:class:`LatencyDisk` wraps any page store and charges a fixed wall-clock
delay per read/write, turning node accesses into realistic page-fault
stalls; because the buffer pool performs reads outside its mutex, those
stalls overlap across threads — which is what ``repro bench concurrent``
measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..exceptions import StorageError
from .page import PageId

__all__ = ["DiskStats", "SimulatedDisk", "LatencyDisk"]


@dataclass
class DiskStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Transient I/O errors observed (injected or real) across all ops.
    transient_errors: int = 0
    #: Retry attempts the storage manager made after transient errors.
    retries: int = 0
    #: Operations that failed permanently after exhausting retries.
    failed_ops: int = 0
    #: Durability barriers completed (FileDisk.sync / WAL segment syncs).
    fsyncs: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy for reports and the metrics registry."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "transient_errors": self.transient_errors,
            "retries": self.retries,
            "failed_ops": self.failed_ops,
            "fsyncs": self.fsyncs,
        }


class SimulatedDisk:
    """A byte store addressed by page id, with per-page sizes.

    Pages are allocated explicitly (the pager decides sizes by node level);
    reading an unallocated page is an error, mirroring a real storage
    manager's behaviour.
    """

    def __init__(self) -> None:
        self._pages: dict[PageId, bytes] = {}
        self._sizes: dict[PageId, int] = {}
        self.stats = DiskStats()

    def allocate(self, page_id: PageId, size: int) -> None:
        if page_id in self._sizes:
            raise StorageError(f"page {page_id} already allocated")
        if size <= 0:
            raise StorageError(f"invalid page size {size}")
        self._sizes[page_id] = size
        self._pages[page_id] = bytes(size)

    def deallocate(self, page_id: PageId) -> None:
        if page_id not in self._sizes:
            raise StorageError(f"page {page_id} not allocated")
        del self._sizes[page_id]
        del self._pages[page_id]

    def page_size(self, page_id: PageId) -> int:
        try:
            return self._sizes[page_id]
        except KeyError:
            raise StorageError(f"page {page_id} not allocated") from None

    def read_page(self, page_id: PageId) -> bytes:
        data = self._pages.get(page_id)
        if data is None:
            raise StorageError(f"page {page_id} not allocated")
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data

    def write_page(self, page_id: PageId, data: bytes) -> None:
        size = self.page_size(page_id)
        if len(data) != size:
            raise StorageError(
                f"page {page_id}: write of {len(data)} bytes != page size {size}"
            )
        self._pages[page_id] = bytes(data)
        self.stats.writes += 1
        self.stats.bytes_written += size

    def page_ids(self) -> list[PageId]:
        """Currently allocated page ids, sorted (for scans like fsck)."""
        return sorted(self._sizes)

    @property
    def allocated_pages(self) -> int:
        return len(self._sizes)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._sizes.values())


class LatencyDisk:
    """A page store that charges wall-clock latency per I/O.

    Wraps any disk with the :class:`SimulatedDisk` interface (including
    :class:`~repro.storage.filedisk.FileDisk` and the fault injector) and
    sleeps ``read_delay``/``write_delay`` seconds around each page
    transfer.  The sleep happens *inside* the wrapped call's caller —
    i.e. wherever the buffer pool performs its unlatched I/O — so
    concurrent fetches overlap their stalls exactly like real disk reads.

    Everything else (allocation, checkpoint metadata, stats) delegates to
    the wrapped store.
    """

    def __init__(
        self,
        inner: SimulatedDisk | None = None,
        read_delay: float = 0.0002,
        write_delay: float = 0.0002,
    ) -> None:
        if read_delay < 0 or write_delay < 0:
            raise StorageError("I/O delays must be non-negative")
        self.inner = inner if inner is not None else SimulatedDisk()
        self.read_delay = read_delay
        self.write_delay = write_delay

    def read_page(self, page_id: PageId) -> bytes:
        if self.read_delay:
            time.sleep(self.read_delay)
        return self.inner.read_page(page_id)

    def write_page(self, page_id: PageId, data: bytes) -> None:
        if self.write_delay:
            time.sleep(self.write_delay)
        self.inner.write_page(page_id, data)

    def allocate(self, page_id: PageId, size: int) -> None:
        self.inner.allocate(page_id, size)

    def deallocate(self, page_id: PageId) -> None:
        self.inner.deallocate(page_id)

    def page_size(self, page_id: PageId) -> int:
        return self.inner.page_size(page_id)

    def page_ids(self) -> list[PageId]:
        return self.inner.page_ids()

    @property
    def stats(self) -> DiskStats:
        return self.inner.stats

    @property
    def allocated_pages(self) -> int:
        return self.inner.allocated_pages

    @property
    def allocated_bytes(self) -> int:
        return self.inner.allocated_bytes

    def __getattr__(self, name: str) -> Any:
        # Optional capabilities (sync, checkpoint_info, ...) pass through
        # only when the wrapped store provides them, preserving the
        # hasattr-based feature probes in the storage manager.
        return getattr(self.inner, name)
