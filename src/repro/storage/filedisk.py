"""File-backed page store: crash-safe persistence for the paged index.

Drop-in replacement for :class:`~repro.storage.disk.SimulatedDisk` that
keeps page contents in an ordinary file.  The page table (page id ->
offset, size) lives in a checksummed JSON sidecar next to the data file
and is committed *atomically* on :meth:`sync`:

* each sync writes a new **generation** of the sidecar via temp file +
  ``fsync`` + ``os.replace``, and keeps the previous generation as
  ``<path>.meta.prev``;
* page writes after a sync are **copy-on-write**: an offset referenced by
  a durable generation is never overwritten in place, so a crash anywhere
  in the next checkpoint cannot damage the last committed one;
* on open, recovery loads the newest sidecar generation whose checksum
  verifies (falling back to ``.meta.prev``), so a torn sidecar write
  loses at most the uncommitted generation;
* superseded offsets are recycled through a free list once no surviving
  generation references them, bounding file growth to about three index
  footprints.

Opening an existing data file whose sidecars are missing or unreadable
raises :class:`~repro.exceptions.StorageError` rather than silently
truncating the store.

>>> import tempfile
>>> from repro import SRTree, segment
>>> from repro.storage import FileDisk, StorageManager
>>> with tempfile.TemporaryDirectory() as tmp:
...     path = tmp + "/index.db"
...     tree = SRTree()
...     _ = [tree.insert(segment(i, i + 1, i), payload=i) for i in range(200)]
...     manager = StorageManager(tree, disk=FileDisk(path))
...     root_page = manager.checkpoint()
...     manager.disk.close()
...     reopened = FileDisk(path)                   # new process, same file
...     ok = reopened.page_size(root_page) >= 1024
...     reopened.close()
>>> ok
True
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any

from ..exceptions import StorageError
from ..obs.tracer import NULL_TRACER, Tracer
from .disk import DiskStats
from .page import PageId

__all__ = ["FileDisk", "META_MAGIC", "fsync_directory"]

#: Identifies (and versions) the sidecar layout.
META_MAGIC = "repro.filedisk/v2"


def fsync_directory(directory: "str | os.PathLike[str]") -> None:
    """Make the entries of ``directory`` durable: a rename, a new file
    (best effort where a directory cannot be opened or synced)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _meta_crc(doc: dict) -> int:
    """Checksum of the sidecar document minus its own ``crc`` field."""
    payload = {k: v for k, v in doc.items() if k != "crc"}
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode())


class FileDisk:
    """A page-addressed store persisted in a regular file.

    Args:
        path: Data file location; ``<path>.meta`` / ``<path>.meta.prev``
            hold the two newest page-table generations.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; recovery from a
            damaged sidecar emits a ``meta_recovery`` event.
    """

    def __init__(self, path: str | os.PathLike, tracer: Tracer | None = None) -> None:
        self.path = Path(path)
        self.meta_path = Path(str(path) + ".meta")
        self.prev_meta_path = Path(str(path) + ".meta.prev")
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = DiskStats()
        self._offsets: dict[PageId, int] = {}
        self._sizes: dict[PageId, int] = {}
        self._end = 0
        self._closed = False
        self._write_failed = False
        #: Writes go through the one buffered handle, which has one file
        #: position: each seek and the write it positions must not
        #: interleave with another thread's, and neither may the flush a
        #: read makes of the bytes a write left in the handle's buffer.
        #: Reads are positional (``os.pread``) and take it only for that
        #: flush, so concurrent readers share nothing.  It takes no other
        #: lock, so no ordering edge can start from it.
        self._io_lock = threading.Lock()
        #: Set by a write, cleared by the flush of the next read: whether
        #: the handle's buffer may hold bytes a read must not miss.
        self._unflushed = False
        #: Last durably committed sidecar generation (0 = never synced).
        self.generation = 0
        #: Which sidecar recovery used on open: "meta", "prev" or "fresh".
        self.recovered_from = "fresh"
        self._checkpoint_info: dict | None = None
        # Copy-on-write bookkeeping: pages whose current offset is
        # referenced by a durable generation (never overwritten in place),
        # offsets retired per epoch (awaiting both referencing generations
        # to age out), and recycled offsets keyed by exact size.
        self._protected: set[PageId] = set()
        self._retired: dict[int, list[tuple[int, int]]] = {}
        self._free: dict[int, list[int]] = {}
        if self.path.exists():
            self._recover()
            self._file = open(self.path, "r+b")
        else:
            self._file = open(self.path, "w+b")
        self._fd = self._file.fileno()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Load the newest sidecar generation that verifies."""
        errors: list[str] = []
        for label, candidate in (("meta", self.meta_path), ("prev", self.prev_meta_path)):
            doc = self._try_load_meta(candidate, errors)
            if doc is None:
                continue
            self._offsets = {int(k): v for k, v in doc["offsets"].items()}
            self._sizes = {int(k): v for k, v in doc["sizes"].items()}
            self._end = doc["end"]
            self.generation = doc["generation"]
            self._checkpoint_info = doc.get("checkpoint")
            self._retired = {
                int(epoch): [(o, s) for o, s in entries]
                for epoch, entries in doc.get("retired", {}).items()
            }
            self._free = {
                int(size): list(offs) for size, offs in doc.get("free", {}).items()
            }
            self._protected = set(self._offsets)
            self.recovered_from = label
            if label != "meta":
                # Promote the good generation to the primary slot right
                # away: the torn .meta must not be rotated over this file
                # (the only valid sidecar) by the next sync.
                os.replace(candidate, self.meta_path)
                if self.tracer.enabled:
                    self.tracer.event(
                        "meta_recovery",
                        path=str(self.path),
                        generation=self.generation,
                        fallback=label,
                    )
            return
        raise StorageError(
            f"page store {self.path} exists but no page-table generation could "
            f"be recovered ({'; '.join(errors)}); refusing to truncate it"
        )

    def _try_load_meta(self, candidate: Path, errors: list[str]) -> dict | None:
        if not candidate.exists():
            errors.append(f"{candidate.name}: missing")
            return None
        try:
            doc = json.loads(candidate.read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"{candidate.name}: unreadable ({exc})")
            return None
        if not isinstance(doc, dict) or doc.get("magic") != META_MAGIC:
            errors.append(f"{candidate.name}: bad magic")
            return None
        if doc.get("crc") != _meta_crc(doc):
            errors.append(f"{candidate.name}: checksum mismatch")
            return None
        return doc

    # ------------------------------------------------------------------
    # Disk interface (mirrors SimulatedDisk)
    # ------------------------------------------------------------------
    def allocate(self, page_id: PageId, size: int) -> None:
        self._check_open()
        if page_id in self._sizes:
            raise StorageError(f"page {page_id} already allocated")
        if size <= 0:
            raise StorageError(f"invalid page size {size}")
        offset = self._claim_space(size)
        try:
            with self._io_lock:
                self._file.seek(offset)
                self._file.write(bytes(size))
                self._unflushed = True
        except Exception:
            self._write_failed = True
            raise
        self._offsets[page_id] = offset
        self._sizes[page_id] = size

    def deallocate(self, page_id: PageId) -> None:
        """Drop the page from the table.  Its space is recycled once no
        surviving sidecar generation references it."""
        self._check_open()
        if page_id not in self._sizes:
            raise StorageError(f"page {page_id} not allocated")
        self._release_offset(page_id)
        del self._sizes[page_id]
        del self._offsets[page_id]

    def page_size(self, page_id: PageId) -> int:
        try:
            return self._sizes[page_id]
        except KeyError:
            raise StorageError(f"page {page_id} not allocated") from None

    def page_ids(self) -> list[PageId]:
        """Currently allocated page ids, sorted (for scans like fsck)."""
        return sorted(self._sizes)

    def read_page(self, page_id: PageId) -> bytes:
        """The page's bytes, by one positional read at its offset."""
        self._check_open()
        size = self.page_size(page_id)
        if self._unflushed:
            self._flush_writes()
        data = os.pread(self._fd, size, self._offsets[page_id])
        if len(data) != size:
            raise StorageError(f"short read on page {page_id}")
        self.stats.reads += 1
        self.stats.bytes_read += size
        return data

    def write_page(self, page_id: PageId, data: bytes) -> None:
        self._check_open()
        size = self.page_size(page_id)
        if len(data) != size:
            raise StorageError(
                f"page {page_id}: write of {len(data)} bytes != page size {size}"
            )
        if page_id in self._protected:
            # Copy-on-write: this offset belongs to a committed checkpoint;
            # redirect the page to fresh space so a crash mid-checkpoint
            # leaves the committed generation intact.
            self._release_offset(page_id)
            self._offsets[page_id] = self._claim_space(size)
            self._protected.discard(page_id)
        try:
            with self._io_lock:
                self._file.seek(self._offsets[page_id])
                self._file.write(data)
                self._unflushed = True
        except Exception:
            self._write_failed = True
            raise
        self.stats.writes += 1
        self.stats.bytes_written += size

    def _flush_writes(self) -> None:
        """Hand the bytes earlier writes left in the handle's buffer to the
        OS, so a positional read sees them."""
        try:
            with self._io_lock:
                if self._unflushed:
                    self._file.flush()
                    self._unflushed = False
        except Exception:
            self._write_failed = True
            raise

    @property
    def allocated_pages(self) -> int:
        return len(self._sizes)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._sizes.values())

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------
    def _claim_space(self, size: int) -> int:
        """An offset of ``size`` bytes: recycled when available, else EOF."""
        bucket = self._free.get(size)
        if bucket:
            return bucket.pop()
        offset = self._end
        self._end += size
        return offset

    def _release_offset(self, page_id: PageId) -> None:
        """Queue the page's current offset for recycling.

        A protected offset is referenced by the current (and possibly the
        previous) sidecar generation, so it must survive until both have
        aged out; an unprotected one was never committed and can be reused
        immediately.
        """
        offset, size = self._offsets[page_id], self._sizes[page_id]
        if page_id in self._protected:
            self._retired.setdefault(self.generation + 1, []).append((offset, size))
            self._protected.discard(page_id)
        else:
            self._free.setdefault(size, []).append(offset)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def set_checkpoint_info(self, **info: Any) -> None:
        """Attach checkpoint metadata (root page, index config...) to be
        committed with the next :meth:`sync`; ``repro fsck`` and
        :func:`~repro.storage.pager.recover_tree` consume it."""
        self._checkpoint_info = dict(info)

    @property
    def checkpoint_info(self) -> dict | None:
        """Checkpoint metadata recovered from (or queued for) the sidecar."""
        return self._checkpoint_info

    def sync(self) -> None:
        """Flush data and atomically commit a new page-table generation."""
        self._check_open()
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
        except Exception:
            self._write_failed = True
            raise
        new_gen = self.generation + 1
        doc = {
            "magic": META_MAGIC,
            "generation": new_gen,
            "offsets": {str(k): v for k, v in self._offsets.items()},
            "sizes": {str(k): v for k, v in self._sizes.items()},
            "end": self._end,
            "retired": {str(e): v for e, v in self._retired.items()},
            "free": {str(s): v for s, v in self._free.items()},
        }
        if self._checkpoint_info is not None:
            doc["checkpoint"] = self._checkpoint_info
        doc["crc"] = _meta_crc(doc)
        tmp = Path(str(self.meta_path) + ".tmp")
        try:
            with tmp.open("w") as fh:
                json.dump(doc, fh)
                fh.flush()
                os.fsync(fh.fileno())
            # Keep the old generation as the fallback, then promote the new
            # one; os.replace is atomic, so a crash between (or during)
            # these steps always leaves at least one valid sidecar.
            if self.meta_path.exists():
                os.replace(self.meta_path, self.prev_meta_path)
            os.replace(tmp, self.meta_path)
            fsync_directory(self.path.parent)
        except Exception:
            self._write_failed = True
            # The .tmp is not a valid sidecar generation; leaving it behind
            # after a failed write would shadow the real sidecars on the
            # next open's directory listing and confuse manual inspection.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        self.stats.fsyncs += 1
        self.generation = new_gen
        self._protected = set(self._offsets)
        # Offsets retired before the just-replaced .meta generation are no
        # longer referenced by any surviving sidecar: recycle them.
        for epoch in [e for e in self._retired if e <= new_gen - 1]:
            for offset, size in self._retired.pop(epoch):
                self._free.setdefault(size, []).append(offset)

    def close(self, sync: bool | None = None) -> None:
        """Close the store, syncing first unless a write already failed.

        ``sync=True``/``False`` forces the choice; the default skips the
        sync after a failed write or sync so the original error is not
        masked (and no half-written state is committed).  Idempotent: a
        second close is a no-op even if the first one's sync raised.
        """
        if self._closed:
            return
        do_sync = sync if sync is not None else not self._write_failed
        try:
            if do_sync:
                self.sync()
        finally:
            self._closed = True
            self._file.close()

    def abort(self) -> None:
        """Simulate a crash: drop the handle without flushing or syncing.

        Nothing after the last :meth:`sync` is committed; reopening the
        path runs recovery exactly as after a real crash.  Closing the
        raw descriptor under the buffered handle drops what the handle
        still buffers (the last page write), as a power loss would.
        """
        if not self._closed:
            self._closed = True
            self._write_failed = True
            try:
                self._file.raw.close()
            except OSError:
                pass

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("disk is closed")

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # With an exception in flight, never sync: a failed sync would mask
        # the original error, and the in-memory state may be inconsistent.
        self.close(sync=False if exc_type is not None else None)
