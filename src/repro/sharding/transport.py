"""Shard client transports: how the router reaches a worker.

Two interchangeable transports, both speaking the same
:mod:`~repro.sharding.wire` protocol:

* :class:`LocalShardClient` — calls :meth:`ShardWorker.handle` inline.
  No concurrency, no timeouts; the differential-oracle tests use it so
  hypothesis can interleave thousands of ops per second.
* :class:`ProcessShardClient` — the worker is a separate OS process on
  a :class:`multiprocessing` pipe: its own GIL, tree, buffer pool and
  simulated disk.  This is the serving configuration (``repro serve``).

One primitive: ``submit(op, args)`` sends a request from the calling
thread and returns a future of the reply's value (or of the exception it
carried); ``call`` is ``submit`` plus a bounded wait.  The process
transport **pipelines** — any number of calls in flight at once, which
the worker overlaps whenever a request can stall
(:attr:`ShardWorker.may_block`).  Replies are matched to futures by
sequence number, so a reply that arrives after its caller gave up finds
no future and is discarded instead of being returned to a later caller.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any

from ..exceptions import ShardError, ShardTimeoutError
from . import wire
from .wire import Reply, Request
from .worker import ShardSpec, ShardWorker, worker_main

__all__ = [
    "ShardClient",
    "LocalShardClient",
    "ProcessShardClient",
]


class ShardClient:
    """What the router needs from a transport: the calls in flight, and
    the one way a reply reaches its caller.  A transport says how a
    request travels (``_send``) and feeds the replies to ``_deliver``."""

    def __init__(self, spec: ShardSpec) -> None:
        self.shard_id = spec.shard_id
        self._seq = 0
        self._calls_gate = threading.Lock()
        #: seq -> (op, future) of every call still owed a reply.  Whoever
        #: pops an entry — its reply, a timeout, a lost worker — is the
        #: one that resolves the future.
        self._calls: dict[int, tuple[str, "Future[Any]"]] = {}

    def _send(self, request: Request) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def submit(self, op: str, args: tuple[Any, ...] = ()) -> "Future[Any]":
        """Send one request from this thread.  Never raises: a worker that
        is gone is a future that has already failed."""
        future: "Future[Any]" = Future()
        future.set_running_or_notify_cancel()  # an awaiter's cancel stops here
        with self._calls_gate:
            self._seq += 1
            seq = self._seq
            self._calls[seq] = (op, future)
        try:
            self._send(Request(op, args, seq))
        except (EOFError, OSError) as exc:
            if self._take(seq) is not None:
                future.set_exception(
                    ShardError(f"shard {self.shard_id}: worker gone ({exc})")
                )
        return future

    def _take(self, seq: int) -> "tuple[str, Future[Any]] | None":
        with self._calls_gate:
            return self._calls.pop(seq, None)

    def _deliver(self, reply: Reply) -> None:
        """Every reply comes through here, on whichever thread pumps."""
        call = self._take(reply.seq)
        if call is None:
            return  # its caller timed out: stale, drop
        if reply.ok:
            call[1].set_result(reply.value)
        else:
            call[1].set_exception(wire.reply_error(reply, self.shard_id))

    def _lost(self) -> None:
        """Worker gone: fail every caller still waiting (a later caller's
        send fails by itself)."""
        with self._calls_gate:
            pending = list(self._calls.values())
            self._calls.clear()
        for _op, future in pending:
            future.set_exception(ShardError(f"shard {self.shard_id}: worker gone"))

    def expire(self, future: "Future[Any]", timeout: float | None) -> None:
        """Give up on a call: it fails with ``ShardTimeoutError`` and its
        slot goes, so the late reply is stale.  A no-op once resolved."""
        with self._calls_gate:
            seq = next((s for s, c in self._calls.items() if c[1] is future), None)
            call = None if seq is None else self._calls.pop(seq)
        if call is not None:
            future.set_exception(
                ShardTimeoutError(
                    f"shard {self.shard_id}: no reply to {call[0]!r} within {timeout}s",
                    (self.shard_id,),
                )
            )

    def call(
        self, op: str, args: tuple[Any, ...] = (), timeout: float | None = None
    ) -> Any:
        future = self.submit(op, args)
        try:
            return future.result(timeout)
        except FutureTimeout:
            self.expire(future, timeout)
            return future.result()  # the timeout just set, or a reply that raced it

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Only a pipe needs a pump; the inline worker answers on the
        caller's thread."""


class LocalShardClient(ShardClient):
    """Inline transport: the worker lives in the caller's thread."""

    def __init__(self, spec: ShardSpec) -> None:
        super().__init__(spec)
        self.worker = ShardWorker(spec)

    def _send(self, request: Request) -> None:
        self._deliver(self.worker.handle(request))

    def close(self) -> None:
        self.worker.close()


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


class ProcessShardClient(ShardClient):
    """Worker in a subprocess on a :class:`multiprocessing` pipe.

    Calls are **pipelined**: any number may be in flight at once, so
    concurrent callers hitting the same shard overlap their stalls
    instead of queueing behind one another.  Sends serialize under
    ``_send_gate``, on the caller's thread.  Exactly one thing pumps the
    pipe, chosen once: the event loop the client was attached to (a
    reader callback, no thread), else the ``shard-N-recv`` thread the
    first call starts.  Never both: a thread parked in ``recv_bytes()``
    would steal the replies the loop was woken for.
    """

    def __init__(self, spec: ShardSpec) -> None:
        super().__init__(spec)
        self._conn, child = multiprocessing.Pipe()
        _ROUTER_ENDS.add(self._conn)
        self._proc = multiprocessing.Process(
            target=_process_worker,
            args=(child, spec),
            name=f"shard-{spec.shard_id}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._send_gate = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._receiver: threading.Thread | None = None

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        with self._send_gate:  # from any thread: the loop registers the reader itself
            if self._loop is None and self._receiver is None:
                self._loop = loop
                loop.call_soon_threadsafe(loop.add_reader, self._conn.fileno(), self._pump, False)

    def _pump(self, forever: bool = True) -> None:
        """Deliver replies: every one until EOF on the receiver thread, one
        per wake-up on a loop (a second, already in the pipe, wakes it again)."""
        try:
            self._deliver(wire.decode(Reply, self._conn.recv_bytes()))
            while forever:
                self._deliver(wire.decode(Reply, self._conn.recv_bytes()))
        except (EOFError, OSError):
            if self._loop is not None:
                self._loop.remove_reader(self._conn.fileno())
            self._lost()

    def _send(self, request: Request) -> None:
        frame = wire.encode(request)
        with self._send_gate:
            if self._loop is None and self._receiver is None:
                self._receiver = threading.Thread(
                    target=self._pump, name=f"shard-{self.shard_id}-recv", daemon=True
                )
                self._receiver.start()
            self._conn.send_bytes(frame)

    def close(self) -> None:
        # The worker drains its in-flight work, answers and exits; nobody
        # needs that answer (and a stopped loop would never read it).
        self.submit(wire.OP_SHUTDOWN)
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        if self._receiver is not None:
            self._receiver.join(timeout=5.0)  # saw EOF when the worker went
        elif self._loop is not None and not self._loop.is_closed():
            self._loop.remove_reader(self._conn.fileno())
        _ROUTER_ENDS.discard(self._conn)
        self._conn.close()
