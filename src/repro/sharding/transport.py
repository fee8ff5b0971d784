"""Shard client transports: how the router reaches a worker.

Three interchangeable transports, all speaking the same
:mod:`~repro.sharding.wire` protocol:

* :class:`LocalShardClient` — calls :meth:`ShardWorker.handle` inline.
  No concurrency, no timeouts; the differential-oracle tests use it so
  hypothesis can interleave thousands of ops per second.
* :class:`ThreadShardClient` — the worker runs on its own thread behind
  a request queue, so calls can genuinely time out (the timeout unit
  tests inject a worker delay and assert ``ShardTimeoutError``).
* :class:`ProcessShardClient` — the worker is a separate OS process on
  a :class:`multiprocessing` pipe: its own GIL, tree, buffer pool and
  simulated disk.  This is the serving configuration
  (``repro bench shard`` / ``repro serve``).

The local and thread transports serialize their requests; the process
transport **pipelines** — any number of calls in flight at once, served
by the worker's thread pool — so concurrency comes both from the router
fanning out over shards and from overlapping calls into one shard.
Replies are matched to requests by sequence number, so a reply that
arrives after its caller timed out is discarded instead of being
returned to a later caller.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from typing import Any, Protocol

from ..exceptions import ShardError, ShardTimeoutError
from . import wire
from .wire import Reply, Request, raise_reply_error
from .worker import ShardSpec, ShardWorker, worker_main

__all__ = [
    "ShardClient",
    "LocalShardClient",
    "ThreadShardClient",
    "ProcessShardClient",
]


class ShardClient(Protocol):
    """What the router needs from a transport."""

    shard_id: int

    def call(
        self, op: str, args: tuple[Any, ...] = (), timeout: float | None = None
    ) -> Any: ...

    def close(self) -> None: ...


def _unwrap(reply: Reply, shard_id: int) -> Any:
    if reply.ok:
        return reply.value
    raise_reply_error(reply, shard_id)
    raise ShardError("unreachable")  # raise_reply_error always raises


class LocalShardClient:
    """Inline transport: the worker lives in the caller's thread."""

    def __init__(self, spec: ShardSpec) -> None:
        self.shard_id = spec.shard_id
        self.worker = ShardWorker(spec)
        self._seq = 0

    def call(
        self, op: str, args: tuple[Any, ...] = (), timeout: float | None = None
    ) -> Any:
        self._seq += 1
        return _unwrap(self.worker.handle(Request(op, args, self._seq)), self.shard_id)

    def close(self) -> None:
        self.worker.close()


class _Slot:
    """One in-flight call's reply mailbox (slot-per-call: no stale reads)."""

    __slots__ = ("event", "reply")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: Reply | None = None


class ThreadShardClient:
    """Worker on a dedicated thread behind a request queue.

    In-process, so it shares the GIL with the router — useful for tests
    and the racecheck workload (lock acquisitions stay observable), not
    for scaling.  Timeouts abandon the slot; the worker thread still
    completes the operation and sets the event, but nobody is waiting.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.shard_id = spec.shard_id
        self.worker = ShardWorker(spec)
        self._requests: queue.Queue[tuple[Request, _Slot] | None] = queue.Queue()
        self._seq = 0
        self._seq_gate = threading.Lock()
        self._thread = threading.Thread(
            target=self._serve, name=f"shard-{spec.shard_id}", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while True:
            item = self._requests.get()
            if item is None:
                break
            request, slot = item
            slot.reply = self.worker.handle(request)
            slot.event.set()
        self.worker.close()

    def call(
        self, op: str, args: tuple[Any, ...] = (), timeout: float | None = None
    ) -> Any:
        with self._seq_gate:
            self._seq += 1
            seq = self._seq
        slot = _Slot()
        self._requests.put((Request(op, args, seq), slot))
        if not slot.event.wait(timeout):
            raise ShardTimeoutError(
                f"shard {self.shard_id}: no reply to {op!r} within {timeout}s",
                (self.shard_id,),
            )
        reply = slot.reply
        if reply is None:
            raise ShardError(f"shard {self.shard_id}: worker thread died")
        return _unwrap(reply, self.shard_id)

    def close(self) -> None:
        self._requests.put(None)
        self._thread.join(timeout=5.0)


#: The router-side end of every live process shard's pipe.  A forked
#: worker is born holding a copy of each of them — its own shard's and
#: every earlier shard's — and while any copy stays open no worker sees
#: EOF when the router dies.
_ROUTER_ENDS: set[Any] = set()


def _process_worker(conn: Any, spec: ShardSpec) -> None:
    """Subprocess target: drop the inherited router-side pipe ends, then
    serve.  (Nothing is inherited under ``spawn``: the set is empty.)"""
    for end in _ROUTER_ENDS:
        end.close()
    worker_main(conn, spec)


class ProcessShardClient:
    """Worker in a subprocess on a :class:`multiprocessing` pipe.

    Calls are **pipelined**: any number may be in flight at once (the
    worker handles them on its own thread pool), so concurrent router
    threads hitting the same shard overlap their stalls instead of
    queueing behind one another.  Sends serialize under ``_send_gate``;
    a dedicated receiver thread matches replies to waiting callers by
    sequence number, and a reply whose caller already timed out finds no
    mailbox and is discarded.
    """

    def __init__(self, spec: ShardSpec, *, start_method: str | None = None) -> None:
        self.shard_id = spec.shard_id
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._conn, child = ctx.Pipe()
        _ROUTER_ENDS.add(self._conn)
        self._proc = ctx.Process(
            target=_process_worker,
            args=(child, spec),
            name=f"shard-{spec.shard_id}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._seq = 0
        self._send_gate = threading.Lock()
        self._slots_gate = threading.Lock()
        self._slots: dict[int, _Slot] = {}
        self._dead = False
        self._receiver = threading.Thread(
            target=self._receive, name=f"shard-{spec.shard_id}-recv", daemon=True
        )
        self._receiver.start()

    def _receive(self) -> None:
        """Pump the pipe, waking whichever caller each reply belongs to."""
        while True:
            try:
                reply: Reply = self._conn.recv()
            except (EOFError, OSError):
                break
            with self._slots_gate:
                slot = self._slots.pop(reply.seq, None)
            if slot is not None:  # None: the caller timed out — stale, drop
                slot.reply = reply
                slot.event.set()
        # Worker gone: fail every caller still waiting.
        with self._slots_gate:
            self._dead = True
            pending = list(self._slots.values())
            self._slots.clear()
        for slot in pending:
            slot.event.set()

    def call(
        self, op: str, args: tuple[Any, ...] = (), timeout: float | None = None
    ) -> Any:
        slot = _Slot()
        with self._slots_gate:
            if self._dead:
                raise ShardError(f"shard {self.shard_id}: worker process gone")
            self._seq += 1
            seq = self._seq
            self._slots[seq] = slot
        try:
            with self._send_gate:
                self._conn.send(Request(op, args, seq))
        except (EOFError, OSError) as exc:
            with self._slots_gate:
                self._slots.pop(seq, None)
            raise ShardError(
                f"shard {self.shard_id}: worker process gone ({exc})"
            ) from exc
        if not slot.event.wait(timeout):
            with self._slots_gate:
                self._slots.pop(seq, None)  # late reply becomes stale
            raise ShardTimeoutError(
                f"shard {self.shard_id}: no reply to {op!r} within {timeout}s",
                (self.shard_id,),
            )
        if slot.reply is None:
            raise ShardError(f"shard {self.shard_id}: worker process gone")
        return _unwrap(slot.reply, self.shard_id)

    def close(self) -> None:
        try:
            self.call(wire.OP_SHUTDOWN, (), timeout=5.0)
        except ShardError:
            pass  # already dead/stuck is an acceptable way to be shut down
        _ROUTER_ENDS.discard(self._conn)
        try:
            self._conn.close()
        except OSError:
            pass  # receiver may have observed EOF and closed first
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._receiver.join(timeout=5.0)
