"""Reader-writer latches with contention accounting.

The serving engine's latching protocol (see DESIGN.md):

* one **index-level** :class:`RWLatch` serializes writers against each
  other and against readers, which hold it shared for their whole
  traversal;
* the shard router's topology latch is a second instance of the same
  class, one level above.

Each latch keeps its acquisition/wait counts in its own
:class:`LatchStats` (the engine reports its index latch's through
``contention_snapshot()``); waits and grants are also emitted as
``latch_wait`` / ``latch_acquire`` trace events when tracing is on.

An uncontended shared acquisition is one section on the latch's mutex,
and so is its release: the writer-preference check and the counters sit
inside it, and a release wakes anyone only when a writer waits.  With a
tracer enabled or a lock-order recorder installed, every acquisition
takes the full path, which reports to both.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..exceptions import ConcurrencyError
from ..obs import lockgraph
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = ["LatchStats", "RWLatch"]


class LatchStats:
    """Contention counters of one latch.

    The latch updates them under its own mutex, acquires before waits,
    so they need no lock of their own.  ``snapshot`` reads waits before
    acquires: a snapshot taken mid-traffic never shows more waits than
    acquires.
    """

    __slots__ = (
        "read_acquires",
        "write_acquires",
        "read_waits",
        "write_waits",
        "wait_seconds",
    )

    def __init__(self) -> None:
        self.read_acquires = 0
        self.write_acquires = 0
        self.read_waits = 0
        self.write_waits = 0
        self.wait_seconds = 0.0

    def record_acquire(self, mode: str, waited: float | None) -> None:
        """Count one grant; the caller holds the latch's mutex."""
        if mode == "read":
            self.read_acquires += 1
            if waited is not None:
                self.read_waits += 1
        else:
            self.write_acquires += 1
            if waited is not None:
                self.write_waits += 1
        if waited is not None:
            self.wait_seconds += waited

    @property
    def contended_acquires(self) -> int:
        return self.read_waits + self.write_waits

    def snapshot(self) -> dict:
        """A plain-dict copy for reports."""
        read_waits, write_waits = self.read_waits, self.write_waits
        return {
            "read_acquires": self.read_acquires,
            "write_acquires": self.write_acquires,
            "read_waits": read_waits,
            "write_waits": write_waits,
            "contended_acquires": read_waits + write_waits,
            "wait_seconds": self.wait_seconds,
        }


class RWLatch:
    """A writer-preferring reader-writer latch.

    Readers share; a writer excludes everyone.  Waiting writers block new
    readers so a steady read stream cannot starve writes.  ``name`` is the
    latch's lock level and tags its trace events (``"index"`` for the
    engine latch).
    """

    __slots__ = ("name", "stats", "tracer", "_mutex", "_cond", "_readers",
                 "_writer", "_waiting_writers")

    def __init__(self, name: str = "latch", tracer: Tracer | None = None) -> None:
        self.name = name
        self.stats = LatchStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Sections take the raw mutex (a ``with`` on the condition adds a
        #: Python-level call each way); the condition shares it to wait.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writer: Optional[int] = None
        self._waiting_writers = 0

    # ------------------------------------------------------------------
    # Trace plumbing
    # ------------------------------------------------------------------
    def _trace_wait(self, mode: str) -> None:
        if self.tracer.enabled:
            self.tracer.event("latch_wait", latch=self.name, mode=mode)

    def _trace_acquire(self, mode: str, waited: float | None) -> None:
        # Contended grants carry the measured wait so span joins can
        # attribute latency to latch time (repro.obs.latency.span_breakdown).
        # R1 requires explicit keywords at call sites, hence the branches.
        if not self.tracer.enabled:
            return
        if waited is None:
            self.tracer.event(
                "latch_acquire", latch=self.name, mode=mode, waited=False
            )
        else:
            self.tracer.event(
                "latch_acquire",
                latch=self.name,
                mode=mode,
                waited=True,
                wait_seconds=waited,
            )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def acquire_read(self, timeout: float | None = None) -> None:
        if lockgraph._ACTIVE is None and not self.tracer.enabled:
            with self._mutex:
                if self._writer is None and not self._waiting_writers:
                    self._readers += 1
                    self.stats.read_acquires += 1
                    return
        self._acquire_read(timeout)

    def _acquire_read(self, timeout: float | None) -> None:
        """The full path: it waits, and reports to the recorder and the
        tracer."""
        recorder = lockgraph.active_recorder()
        if recorder is not None:
            recorder.record_attempt(self.name, "read", self)
        started: float | None = None
        deadline: float | None = None
        with self._mutex:
            while self._writer is not None or self._waiting_writers:
                if started is None:
                    started = time.perf_counter()
                    if timeout is not None:
                        # One deadline for the whole acquisition: each
                        # wakeup (e.g. readers draining one by one) must
                        # not restart the clock.
                        deadline = started + timeout
                    self._trace_wait("read")
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise ConcurrencyError(
                            f"timed out acquiring read latch {self.name!r}"
                        )
                    self._cond.wait(timeout=remaining)
            self._readers += 1
            waited = None if started is None else time.perf_counter() - started
            self.stats.record_acquire("read", waited)
        if recorder is not None:
            recorder.record_acquired(self.name, "read", self)
        self._trace_acquire("read", waited)

    def release_read(self) -> None:
        with self._mutex:
            readers = self._readers
            if readers <= 0:
                raise ConcurrencyError(
                    f"read latch {self.name!r} released more than acquired"
                )
            self._readers = readers - 1
            # Only a writer waits for the readers to drain.
            if readers == 1 and self._waiting_writers:
                self._cond.notify_all()
        recorder = lockgraph._ACTIVE
        if recorder is not None:
            recorder.record_release(self.name, self)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def acquire_write(self, timeout: float | None = None) -> None:
        recorder = lockgraph.active_recorder()
        if recorder is not None:
            recorder.record_attempt(self.name, "write", self)
        me = threading.get_ident()
        started: float | None = None
        deadline: float | None = None
        with self._mutex:
            if self._writer == me:
                raise ConcurrencyError(
                    f"write latch {self.name!r} is not reentrant"
                )
            self._waiting_writers += 1
            try:
                while self._readers or self._writer is not None:
                    if started is None:
                        started = time.perf_counter()
                        if timeout is not None:
                            deadline = started + timeout
                        self._trace_wait("write")
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            # Readers that queued behind this waiter are
                            # excluded by nothing once it gives up.
                            self._cond.notify_all()
                            raise ConcurrencyError(
                                f"timed out acquiring write latch {self.name!r}"
                            )
                        self._cond.wait(timeout=remaining)
            finally:
                self._waiting_writers -= 1
            self._writer = me
            waited = None if started is None else time.perf_counter() - started
            self.stats.record_acquire("write", waited)
        if recorder is not None:
            recorder.record_acquired(self.name, "write", self)
        self._trace_acquire("write", waited)

    def release_write(self) -> None:
        with self._mutex:
            if self._writer != threading.get_ident():
                raise ConcurrencyError(
                    f"write latch {self.name!r} released by a non-holder"
                )
            self._writer = None
            self._cond.notify_all()
        recorder = lockgraph.active_recorder()
        if recorder is not None:
            recorder.record_release(self.name, self)

    # ------------------------------------------------------------------
    # Context managers
    # ------------------------------------------------------------------
    def read(self) -> "_LatchGuard":
        return _LatchGuard(self.acquire_read, self.release_read)

    def write(self) -> "_LatchGuard":
        return _LatchGuard(self.acquire_write, self.release_write)


class _LatchGuard:
    """``with latch.read(): ...`` / ``with latch.write(): ...``"""

    __slots__ = ("_acquire", "_release")

    def __init__(
        self, acquire: Callable[[], None], release: Callable[[], None]
    ) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> "_LatchGuard":
        self._acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._release()
