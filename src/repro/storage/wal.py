"""Write-ahead log with group commit: durable incremental commits.

Between checkpoints, every committed index mutation is recorded as a
transaction in an append-only **redo log** so a crash loses only work
that was never acknowledged — not everything since the last full
checkpoint (see ``storage/disk.py``; the checkpoint remains the
compaction mechanism, the WAL is what makes commits durable *between*
checkpoints).

Log format
----------

The log is a directory of **segment files** (``wal-<first_lsn>.seg``).
Each record is CRC-framed the same way a page image is (compare the
12-byte page header in :mod:`repro.storage.serializer`): a fixed header
of magic ``WAL1`` + CRC32, followed by the CRC-covered fields — LSN,
page id, record type, payload length — and the payload::

    <4s magic> <I crc32> <Q lsn> <Q page_id> <I rtype> <I length> <payload>

Record types: ``ALLOC`` (page id + size), ``PAGE_IMAGE`` (full page
image), ``PAGE_DELTA`` (byte-range overwrite against the previously
logged image), ``DEALLOC``, and ``COMMIT`` (carries the root page id;
``0`` encodes an empty tree).  LSNs increase by one per record and are
**never reset**, even across truncations, so replay can always tell
pre-checkpoint records from live ones.

Torn-tail semantics
-------------------

Appends are buffered writes; a crash can tear the last record (or lose
it entirely).  Replay stops cleanly at the first CRC-invalid, truncated,
or out-of-order frame, and page records are buffered per transaction and
applied **only when their COMMIT record is reached** — so a torn tail
discards unacknowledged work only, and a torn record is never applied.

Group commit
------------

:meth:`WriteAheadLog.commit` implements condition-variable group commit:
the first committer whose LSN is not yet durable becomes the *flusher*
and syncs the segment once for everything appended so far; concurrent
committers wait on the CV and are acknowledged by that single fsync.
``commits_per_fsync`` (in :class:`WalStats`) measures the batching.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, IO, Mapping, Sequence

from ..exceptions import SimulatedCrashError, StorageError, TornWalAppend
from ..obs.lockgraph import TrackedCondition
from ..obs.tracer import NULL_TRACER, Tracer
from .page import PageId

__all__ = [
    "WAL_MAGIC",
    "WAL_FRAME_BYTES",
    "REC_ALLOC",
    "REC_PAGE_IMAGE",
    "REC_PAGE_DELTA",
    "REC_DEALLOC",
    "REC_COMMIT",
    "TornWalAppend",
    "WalRecord",
    "WalStats",
    "WalScanInfo",
    "WalReplayResult",
    "WriteAheadLog",
    "replay_wal",
    "scan_wal",
    "wal_directory_for",
]

#: First bytes of every WAL frame ("write-ahead log, layout 1").
WAL_MAGIC = b"WAL1"

#: magic, crc32, lsn, page_id, rtype, payload length.
_FRAME = struct.Struct("<4sIQQII")
WAL_FRAME_BYTES = _FRAME.size
#: The part of a frame header the CRC covers (everything after the CRC).
_COVERED = struct.Struct("<QQII")

#: Sanity bound on a single payload (a page image is at most a few KB).
_MAX_PAYLOAD = 1 << 28

REC_ALLOC = 1
REC_PAGE_IMAGE = 2
REC_PAGE_DELTA = 3
REC_DEALLOC = 4
REC_COMMIT = 5

_REC_TYPES = frozenset(
    (REC_ALLOC, REC_PAGE_IMAGE, REC_PAGE_DELTA, REC_DEALLOC, REC_COMMIT)
)

_ALLOC_PAYLOAD = struct.Struct("<Q")
_COMMIT_PAYLOAD = struct.Struct("<Q")
_DELTA_PREFIX = struct.Struct("<I")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"

#: A fault gate: callable(op, payload) -> possibly-corrupted payload, or
#: raises.  ``FaultInjectingDisk.wal_fault`` implements this protocol.
FaultGate = Callable[[str, "bytes | None"], "bytes | None"]


#: Step of the delta scan's slice compares (bytes).
_SCAN_CHUNK = 64


def _changed_range(previous: bytes, image: bytes) -> tuple[int, int]:
    """The smallest ``[lo, hi)`` outside which two equal-length images
    agree; ``(len, len)`` when they are identical (a delete re-logs
    ancestors whose images did not change).

    Whole chunks are compared as slices (one ``memcmp`` each) and only
    the chunk holding each boundary is walked byte by byte.
    """
    n = len(image)
    if previous == image:
        return n, n
    # Some byte differs, so both forward loops stop at or before it.
    lo = 0
    while previous[lo : lo + _SCAN_CHUNK] == image[lo : lo + _SCAN_CHUNK]:
        lo += _SCAN_CHUNK
    while previous[lo] == image[lo]:
        lo += 1
    hi = n
    while hi - _SCAN_CHUNK >= lo and (
        previous[hi - _SCAN_CHUNK : hi] == image[hi - _SCAN_CHUNK : hi]
    ):
        hi -= _SCAN_CHUNK
    # Byte ``lo`` differs, so this stops with hi > lo.
    while previous[hi - 1] == image[hi - 1]:
        hi -= 1
    return lo, hi


def wal_directory_for(path: "str | os.PathLike[str]") -> Path:
    """The conventional WAL directory for a :class:`FileDisk` data file."""
    return Path(str(path) + ".wal")


def _segment_name(first_lsn: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_lsn:020d}{_SEGMENT_SUFFIX}"


def _segment_first_lsn(path: Path) -> "int | None":
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def list_wal_segments(directory: "str | os.PathLike[str]") -> list[Path]:
    """Segment files in LSN order (missing directory = no segments)."""
    base = Path(directory)
    if not base.is_dir():
        return []
    segments = [p for p in base.iterdir() if _segment_first_lsn(p) is not None]
    return sorted(segments, key=lambda p: _segment_first_lsn(p) or 0)


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    rtype: int
    page_id: PageId
    payload: bytes


def _frame(lsn: int, rtype: int, page_id: PageId, payload: bytes) -> bytes:
    """Encode one record with its CRC frame."""
    covered = _COVERED.pack(lsn, page_id, rtype, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(covered))
    return _FRAME.pack(WAL_MAGIC, crc, lsn, page_id, rtype, len(payload)) + payload


def _parse_frame(data: bytes, offset: int) -> "tuple[WalRecord, int] | None":
    """Decode the frame at ``offset``; ``None`` when torn or invalid."""
    if offset + _FRAME.size > len(data):
        return None
    magic, crc, lsn, page_id, rtype, length = _FRAME.unpack_from(data, offset)
    if magic != WAL_MAGIC or rtype not in _REC_TYPES or length > _MAX_PAYLOAD:
        return None
    end = offset + _FRAME.size + length
    if end > len(data):
        return None
    payload = data[offset + _FRAME.size : end]
    covered = data[offset + 8 : offset + _FRAME.size]
    if zlib.crc32(payload, zlib.crc32(covered)) != crc:
        return None
    return WalRecord(lsn, rtype, page_id, payload), end


@dataclass
class WalStats:
    """Counters for the log's write and durability paths."""

    #: Transactions appended (one ``log_commit`` call each).
    appends: int = 0
    records: int = 0
    bytes_appended: int = 0
    #: ``commit()`` calls acknowledged as durable.
    commits_acked: int = 0
    fsyncs: int = 0
    full_images: int = 0
    deltas: int = 0
    truncations: int = 0
    segments_created: int = 0

    @property
    def commits_per_fsync(self) -> float:
        """Mean commits acknowledged per fsync (group-commit batching)."""
        return self.commits_acked / self.fsyncs if self.fsyncs else 0.0

    def snapshot(self) -> dict:
        return {
            "appends": self.appends,
            "records": self.records,
            "bytes_appended": self.bytes_appended,
            "commits_acked": self.commits_acked,
            "fsyncs": self.fsyncs,
            "commits_per_fsync": self.commits_per_fsync,
            "full_images": self.full_images,
            "deltas": self.deltas,
            "truncations": self.truncations,
            "segments_created": self.segments_created,
        }


@dataclass
class WalScanInfo:
    """What a read-only scan of a WAL directory found (``repro fsck``)."""

    segments: int = 0
    records: int = 0
    commits: int = 0
    bytes_scanned: int = 0
    first_lsn: int = 0
    last_lsn: int = 0
    #: The scan stopped before the end of the log (CRC-invalid, truncated
    #: or out-of-order frame): everything after is an unapplied torn tail.
    torn_tail: bool = False


@dataclass
class WalReplayResult:
    """Outcome of :func:`replay_wal`."""

    records_scanned: int = 0
    #: Complete transactions whose page records were applied.
    commits_applied: int = 0
    records_applied: int = 0
    #: Records skipped because their LSN predates the recovery LSN.
    skipped: int = 0
    #: Root page carried by the last applied COMMIT (``None`` when no
    #: commit was replayed; ``0`` encodes an empty tree).
    root_page: "PageId | None" = None
    #: LSN of the last record consumed by the scan.
    stop_lsn: int = 0
    torn_tail: bool = False
    #: LSN of the last *applied* COMMIT — the committed epoch recovery
    #: landed on (0 when no commit was replayed).  MVCC re-attachment
    #: uses this as the base snapshot epoch.
    last_commit_lsn: int = 0


class WriteAheadLog:
    """Append-only redo log over segment files, with group commit.

    Thread-safety: every public method may be called from any thread.
    Appends serialize on an internal condition variable; the fsync in
    :meth:`commit` runs *outside* the mutex so concurrent committers can
    keep appending while the flusher syncs (that overlap is what group
    commit batches).

    Args:
        directory: Segment directory (created if missing).  Reopening a
            directory with existing segments resumes after the last
            COMMIT and trims what follows it — a torn record, an
            uncommitted transaction — so new appends stay reachable.
        segment_bytes: Soft bound on a segment file; appends roll to a
            new segment once the current one exceeds it.
        fsync_delay: Simulated device-sync latency in seconds, charged
            inside each fsync (the WAL analogue of
            :class:`~repro.storage.disk.LatencyDisk` stalls) — this is
            what makes group-commit batching measurable on hardware
            where a real fsync is nearly free.
        fault_gate: Optional fault-injection hook with the
            ``FaultInjectingDisk.wal_fault`` protocol, consulted before
            every append/fsync/segment-truncation.
        tracer: Optional tracer for ``wal_append``/``wal_fsync``/
            ``wal_truncate`` events.
        delta_cache_pages: Last-logged images kept for delta encoding;
            pages beyond the cap fall back to full images.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        segment_bytes: int = 256 * 1024,
        fsync_delay: float = 0.0,
        fault_gate: "FaultGate | None" = None,
        tracer: "Tracer | None" = None,
        delta_cache_pages: int = 512,
    ) -> None:
        if segment_bytes <= 0:
            raise StorageError("segment_bytes must be positive")
        if fsync_delay < 0:
            raise StorageError("fsync_delay must be non-negative")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync_delay = fsync_delay
        self.fault_gate = fault_gate
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.delta_cache_pages = delta_cache_pages
        self.stats = WalStats()
        # Commit mutex + group-commit CV; reports to `repro racecheck`'s
        # lock-order recorder when one is installed (level "wal", rank 3).
        self._cv = TrackedCondition("wal")
        self._appended_lsn = 0
        self._durable_lsn = 0
        self._flusher_active = False
        self._broken: "BaseException | None" = None
        self._closed = False
        self._last_images: dict[PageId, bytes] = {}
        self._file: IO[bytes]
        self._seg_bytes = 0
        self._open_segments()

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def _open_segments(self) -> None:
        segments = list_wal_segments(self.directory)
        if not segments:
            self._start_segment(1)
            return
        tail = segments[-1]
        first = _segment_first_lsn(tail) or 1
        data = tail.read_bytes()
        offset, last_lsn = 0, first - 1
        # Where the last whole transaction ends (segments start on one).
        end, end_lsn = offset, last_lsn
        while True:
            parsed = _parse_frame(data, offset)
            if parsed is None:
                break
            record, offset = parsed
            if record.lsn <= last_lsn:
                break  # out-of-order frame: treat like a torn tail
            last_lsn = record.lsn
            if record.rtype == REC_COMMIT:
                end, end_lsn = offset, last_lsn
        if end < len(data):
            # Trim the torn tail and the records of a transaction whose
            # COMMIT never made it: new appends must not hide behind an
            # unparseable frame, nor the next COMMIT adopt those records.
            with tail.open("r+b") as fh:
                fh.truncate(end)
        self._appended_lsn = end_lsn
        self._durable_lsn = end_lsn
        self._file = tail.open("ab")
        self._seg_bytes = end

    def _start_segment(self, first_lsn: int) -> None:
        path = self.directory / _segment_name(first_lsn)
        self._file = path.open("ab")
        self._seg_bytes = 0
        self.stats.segments_created += 1

    def _maybe_roll_locked(self) -> None:
        """Roll to a fresh segment once the current one is full.

        Deferred while a flusher holds the file handle for its fsync;
        the segment limit is a soft bound, not an invariant.
        """
        if self._seg_bytes < self.segment_bytes or self._flusher_active:
            return
        self._fsync_file(self._file)
        self._durable_lsn = self._appended_lsn
        self.stats.fsyncs += 1
        self._file.close()
        self._start_segment(self._appended_lsn + 1)

    # ------------------------------------------------------------------
    # Fault plumbing
    # ------------------------------------------------------------------
    def _gate(self, op: str, payload: "bytes | None" = None) -> "bytes | None":
        if self.fault_gate is None:
            return payload
        out = self.fault_gate(op, payload)
        return payload if out is None else out

    def _check_usable(self) -> None:
        if self._broken is not None:
            raise StorageError(f"write-ahead log failed earlier: {self._broken}")
        if self._closed:
            raise StorageError("write-ahead log is closed")

    def _fsync_file(self, fh: IO[bytes]) -> None:
        """Flush + fsync one segment handle (with the simulated delay)."""
        self._gate("wal_fsync", None)
        if self.fsync_delay:
            time.sleep(self.fsync_delay)
        fh.flush()
        os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """Highest LSN appended so far (durable or not)."""
        return self._appended_lsn

    @property
    def durable_lsn(self) -> int:
        """Highest LSN known to be on stable storage."""
        return self._durable_lsn

    def _encode_page_locked(self, page_id: PageId, image: bytes) -> tuple[int, bytes]:
        """Full image or byte-range delta against the last logged image."""
        previous = self._last_images.get(page_id)
        delta_payload: "bytes | None" = None
        if previous is not None and len(previous) == len(image):
            lo, hi = _changed_range(previous, image)
            candidate = _DELTA_PREFIX.pack(lo) + image[lo:hi]
            if len(candidate) < len(image):
                delta_payload = candidate
        if len(self._last_images) >= self.delta_cache_pages and (
            page_id not in self._last_images
        ):
            # Cache full: evict an arbitrary entry (its next write simply
            # falls back to a full image).
            self._last_images.pop(next(iter(self._last_images)))
        self._last_images[page_id] = image
        if delta_payload is not None:
            self.stats.deltas += 1
            return REC_PAGE_DELTA, delta_payload
        self.stats.full_images += 1
        return REC_PAGE_IMAGE, image

    def log_commit(
        self,
        images: Mapping[PageId, bytes],
        allocs: "Mapping[PageId, int] | None" = None,
        deallocs: Sequence[PageId] = (),
        *,
        root_page: PageId,
    ) -> int:
        """Append one transaction (page records + COMMIT); returns the
        commit LSN.  The transaction is *not* durable until
        :meth:`commit` returns for that LSN."""
        with self._cv:
            self._check_usable()
            lsn = self._appended_lsn
            frames = bytearray()
            records = 0
            for page_id, size in sorted((allocs or {}).items()):
                lsn += 1
                frames += _frame(lsn, REC_ALLOC, page_id, _ALLOC_PAYLOAD.pack(size))
                records += 1
            for page_id in deallocs:
                lsn += 1
                frames += _frame(lsn, REC_DEALLOC, page_id, b"")
                records += 1
                self._last_images.pop(page_id, None)
            for page_id, image in sorted(images.items()):
                lsn += 1
                rtype, payload = self._encode_page_locked(page_id, image)
                frames += _frame(lsn, rtype, page_id, payload)
                records += 1
            lsn += 1
            frames += _frame(lsn, REC_COMMIT, 0, _COMMIT_PAYLOAD.pack(root_page))
            records += 1
            data = bytes(frames)
            try:
                data = self._gate("wal_append", data) or data
            except TornWalAppend as torn:
                # Power loss mid-append: persist the torn prefix exactly as
                # the device would have, then die.  Replay stops at the
                # torn frame, losing only this unacknowledged transaction.
                self._file.write(torn.prefix)
                try:
                    self._file.flush()
                except OSError:
                    pass
                self._broken = torn
                raise
            except StorageError as exc:
                # Any other gate failure (crash, transient device error)
                # leaves the tail position untrustworthy: mark the log
                # broken rather than risk appending at a wrong offset.
                self._broken = exc
                raise
            self._file.write(data)
            self._seg_bytes += len(data)
            self._appended_lsn = lsn
            self.stats.appends += 1
            self.stats.records += records
            self.stats.bytes_appended += len(data)
            if self.tracer.enabled:
                self.tracer.event(
                    "wal_append", lsn=lsn, records=records, bytes=len(data)
                )
            self._maybe_roll_locked()
            return lsn

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    def commit(self, lsn: int) -> None:
        """Block until everything up to ``lsn`` is durable.

        The first arriving committer becomes the flusher and syncs the
        segment once for *all* LSNs appended so far; committers that
        arrive while the flusher is syncing wait on the CV and are
        acknowledged by the next batch — one fsync per batch, however
        many commits joined it.
        """
        while True:
            do_flush = False
            target = 0
            with self._cv:
                self._check_usable()
                if self._durable_lsn >= lsn:
                    self.stats.commits_acked += 1
                    break
                if self._flusher_active:
                    self._cv.wait()
                    continue
                self._flusher_active = True
                target = self._appended_lsn
                fh = self._file
                do_flush = True
            if do_flush:
                try:
                    self._fsync_file(fh)
                except StorageError as exc:
                    # The flusher must never die silently: waiters would
                    # block on the CV forever.  Mark the log broken and
                    # wake everyone (their next _check_usable raises).
                    with self._cv:
                        self._flusher_active = False
                        self._broken = exc
                        self._cv.notify_all()
                    raise
                with self._cv:
                    self._durable_lsn = max(self._durable_lsn, target)
                    self._flusher_active = False
                    self.stats.fsyncs += 1
                    if self.tracer.enabled:
                        self.tracer.event("wal_fsync", lsn=self._durable_lsn)
                    self._cv.notify_all()

    # ------------------------------------------------------------------
    # Truncation (checkpoint handshake)
    # ------------------------------------------------------------------
    def truncate(self, up_to_lsn: int) -> int:
        """Drop every segment after a checkpoint covering ``up_to_lsn``.

        The caller must be quiesced (no concurrent appends/commits) —
        the same requirement a checkpoint already imposes.  Deletes
        segments oldest-first, so a crash mid-truncation leaves a
        *suffix* of segments whose records replay as no-ops (their LSNs
        predate the recovery LSN in ``checkpoint_info``).  Returns the
        number of segments deleted.
        """
        with self._cv:
            self._check_usable()
            while self._flusher_active:
                self._cv.wait()
            if up_to_lsn < self._appended_lsn:
                raise StorageError(
                    f"cannot truncate WAL at LSN {up_to_lsn}: records up to "
                    f"{self._appended_lsn} are already appended (quiesce first)"
                )
            self._file.close()
            deleted = 0
            try:
                for path in list_wal_segments(self.directory):
                    self._gate("wal_truncate", None)
                    path.unlink()
                    deleted += 1
            except StorageError as exc:
                self._broken = exc
                raise
            self._start_segment(self._appended_lsn + 1)
            self._last_images.clear()
            self._durable_lsn = self._appended_lsn
            self.stats.truncations += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "wal_truncate", up_to_lsn=up_to_lsn, segments_deleted=deleted
                )
            return deleted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the current segment.  Idempotent; after a
        fault (``_broken``) the handle is dropped without syncing, so
        the on-disk state stays exactly as the fault left it."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            try:
                if self._broken is None:
                    self._file.flush()
                    os.fsync(self._file.fileno())
            finally:
                try:
                    self._file.close()
                except OSError:
                    pass

    def abort(self) -> None:
        """Simulate a crash: drop the handle without flushing."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._broken = SimulatedCrashError("write-ahead log aborted")
            try:
                self._file.close()
            except OSError:
                pass

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Scanning and replay
# ---------------------------------------------------------------------------
def _scan_directory(
    directory: "str | os.PathLike[str]",
) -> tuple[list[WalRecord], bool, int]:
    """All valid records in LSN order, the torn-tail flag, bytes scanned.

    Stops at the first CRC-invalid, truncated, or out-of-order frame;
    anything after it (including later segments) is the torn tail.
    """
    records: list[WalRecord] = []
    torn = False
    total_bytes = 0
    last_lsn = 0
    segments = list_wal_segments(directory)
    for seg_index, path in enumerate(segments):
        data = path.read_bytes()
        total_bytes += len(data)
        offset = 0
        while True:
            parsed = _parse_frame(data, offset)
            if parsed is None:
                if offset < len(data):
                    torn = True
                break
            record, offset = parsed
            if last_lsn and record.lsn != last_lsn + 1:
                torn = True
                break
            last_lsn = record.lsn
            records.append(record)
        if torn:
            if seg_index + 1 < len(segments):
                torn = True  # later segments are unreachable past the tear
            break
    return records, torn, total_bytes


def scan_wal(directory: "str | os.PathLike[str]") -> WalScanInfo:
    """Read-only integrity scan of a WAL directory (``repro fsck``)."""
    records, torn, total_bytes = _scan_directory(directory)
    info = WalScanInfo(
        segments=len(list_wal_segments(directory)),
        records=len(records),
        commits=sum(1 for r in records if r.rtype == REC_COMMIT),
        bytes_scanned=total_bytes,
        torn_tail=torn,
    )
    if records:
        info.first_lsn = records[0].lsn
        info.last_lsn = records[-1].lsn
    return info


def _apply_record(store: Any, record: WalRecord) -> None:
    """Apply one page record to a page store, idempotently.

    Every operation is an absolute assignment (allocate-to-size, full
    image, byte-range overwrite), so re-applying a replayed prefix after
    a crash *during* recovery converges to the same state.
    """
    page_id = record.page_id
    if record.rtype == REC_ALLOC:
        (size,) = _ALLOC_PAYLOAD.unpack(record.payload)
        _ensure_allocated(store, page_id, size)
    elif record.rtype == REC_DEALLOC:
        try:
            store.deallocate(page_id)
        except StorageError:
            pass  # already gone: a replayed prefix deallocated it
    elif record.rtype == REC_PAGE_IMAGE:
        _ensure_allocated(store, page_id, len(record.payload))
        store.write_page(page_id, record.payload)
    elif record.rtype == REC_PAGE_DELTA:
        (offset,) = _DELTA_PREFIX.unpack_from(record.payload, 0)
        body = record.payload[_DELTA_PREFIX.size :]
        current = bytearray(store.read_page(page_id))
        if offset + len(body) > len(current):
            raise StorageError(
                f"WAL delta for page {page_id} at LSN {record.lsn} exceeds "
                f"the page ({offset}+{len(body)} > {len(current)})"
            )
        current[offset : offset + len(body)] = body
        store.write_page(page_id, bytes(current))
    else:
        raise StorageError(f"unexpected WAL record type {record.rtype} in apply")


def _ensure_allocated(store: Any, page_id: PageId, size: int) -> None:
    try:
        existing = store.page_size(page_id)
    except StorageError:
        existing = None
    if existing == size:
        return
    if existing is not None:
        store.deallocate(page_id)
    store.allocate(page_id, size)


def replay_wal(
    directory: "str | os.PathLike[str]",
    store: Any,
    *,
    recovery_lsn: int = 0,
    tracer: "Tracer | None" = None,
) -> WalReplayResult:
    """Redo the WAL tail onto ``store`` (any SimulatedDisk-interface page
    store, typically a reopened :class:`~repro.storage.FileDisk`).

    Records with LSN <= ``recovery_lsn`` (already covered by the
    checkpoint, per ``checkpoint_info['wal_lsn']``) are skipped.  Page
    records are buffered per transaction and applied only when their
    COMMIT record is reached, so neither a torn tail nor a trailing
    uncommitted transaction is ever partially applied.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    records, torn, _ = _scan_directory(directory)
    result = WalReplayResult(records_scanned=len(records), torn_tail=torn)
    pending: list[WalRecord] = []
    for record in records:
        result.stop_lsn = record.lsn
        if record.lsn <= recovery_lsn:
            result.skipped += 1
            continue
        if record.rtype == REC_COMMIT:
            for page_record in pending:
                _apply_record(store, page_record)
            result.records_applied += len(pending) + 1
            result.commits_applied += 1
            result.last_commit_lsn = record.lsn
            (root_page,) = _COMMIT_PAYLOAD.unpack(record.payload)
            result.root_page = root_page
            pending.clear()
        else:
            pending.append(record)
    # ``pending`` now holds a trailing transaction without a COMMIT (torn
    # tail or crash between append and fsync): unacknowledged, discarded.
    if tracer.enabled:
        tracer.event(
            "wal_replay",
            records=result.records_scanned,
            commits=result.commits_applied,
            torn_tail=result.torn_tail,
            stop_lsn=result.stop_lsn,
            skipped=result.skipped,
        )
    return result
