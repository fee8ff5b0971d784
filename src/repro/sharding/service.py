"""Asyncio front-end for the shard router: in-process and over TCP.

:class:`ShardedService` serves decoded frames from a
:class:`~repro.sharding.router.ShardRouter`: the loop that read a frame
sends its shard calls and awaits their futures
(:meth:`~repro.sharding.router.ShardRouter.run_async` — a slow shard is
an unresolved future, so it never stalls the loop), and only what really
blocks runs on the default executor.  :func:`serve` exposes it as a
line-delimited JSON TCP protocol::

    -> {"op": "insert", "lows": [0, 0], "highs": [1, 1], "payload": "a"}
    <- {"ok": true, "value": 0}
    -> {"op": "search", "lows": [0, 0], "highs": [2, 2]}
    <- {"ok": true, "value": [[0, "a"]]}
    -> {"op": "stats"}
    <- {"ok": true, "value": {"shards": 4, ...}}

Failures come back as ``{"ok": false, "error_type": ..., "error": ...}``
on the same connection; only malformed frames close it.  The protocol is
for the ``repro serve`` CLI and integration smoke tests — it is not a
security boundary and binds to localhost by default.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable

from ..core.geometry import Rect
from ..exceptions import ConfigError, ReproError
from .router import Plan, ShardRouter

__all__ = ["ShardedService", "serve"]

#: The longest frame a connection may send (the stream reader's limit).
MAX_FRAME_BYTES = 64 * 1024


def _rect(frame: dict) -> Rect:
    return Rect(frame["lows"], frame["highs"])


def _error(exc: Exception) -> dict:
    return {"ok": False, "error_type": type(exc).__name__, "error": str(exc)}


#: Frame op -> the router plan that serves it, awaited on the loop.
_ROUTED: dict[str, Callable[[ShardRouter, dict], Plan]] = {
    "insert": lambda router, frame: router.plan_insert(_rect(frame), frame.get("payload")),
    "delete": lambda router, frame: router.plan_delete(frame["record_id"]),
    "search": lambda router, frame: router.plan_query("search", _rect(frame)),
    "search_within": lambda router, frame: router.plan_query("search_within", _rect(frame)),
    "search_containing": lambda router, frame: router.plan_query(
        "search_containing", _rect(frame)
    ),
    "stab": lambda router, frame: router.plan_query(
        "stab", Rect(frame["coords"], frame["coords"])
    ),
}


class ShardedService:
    """Async facade over a router; one instance per server, on one loop."""

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        #: Whether routed frames are awaited on the loop; the first frame
        #: decides (the ``local`` transport's worker is the calling
        #: thread, which must not be the loop).
        self._on_loop: bool | None = None
        #: Routed frames in flight on the loop, and the gate a ``split``
        #: shuts while it waits for them to finish.
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._open = asyncio.Event()
        self._open.set()

    async def handle_frame(self, frame: dict) -> dict:
        """Execute one decoded JSON request; never raises for repro errors."""
        loop = asyncio.get_running_loop()
        if self._on_loop is None:
            self._on_loop = self.router.attach(loop)
        try:
            op = frame.get("op")
            if op in _ROUTED:
                plan = _ROUTED[op](self.router, frame)
                if self._on_loop:
                    value = await self._routed(plan)
                else:
                    value = await loop.run_in_executor(None, self.router.run, plan)
            elif op == "split":
                value = await self._split(loop, frame["shard_id"])
            elif op == "stats":
                value = await loop.run_in_executor(None, self.router.stats)
            elif op == "ping":
                value = "pong"
            else:
                raise ConfigError(f"unknown op {op!r}")
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            # The RPC boundary: protocol and engine errors become error
            # frames on the wire instead of dropping the connection.
            return _error(exc)
        return {"ok": True, "value": value}

    async def _routed(self, plan: Plan) -> Any:
        await self._open.wait()
        self._in_flight += 1
        try:
            return await self.router.run_async(plan)
        finally:
            self._in_flight -= 1
            self._idle.set()  # a waiting split looks again

    async def _split(self, loop: asyncio.AbstractEventLoop, shard_id: int) -> int | None:
        """The loop never waits for the topology latch: hold new routed
        frames out, let the ones in flight finish, and only then let
        ``split_shard`` (on the executor: it blocks) ask for it."""
        await self._open.wait()
        self._open.clear()
        try:
            while self._in_flight:
                self._idle.clear()
                await self._idle.wait()
            return await loop.run_in_executor(None, self.router.split_shard, shard_id)
        finally:
            self._open.set()


async def _reply(writer: asyncio.StreamWriter, reply: dict) -> None:
    writer.write(json.dumps(reply).encode() + b"\n")
    await writer.drain()


async def _handle_connection(
    service: ShardedService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # over the reader's limit: say so once, then hang up
                limit = ConfigError(f"frame longer than {MAX_FRAME_BYTES} bytes")
                await _reply(writer, _error(limit))
                break
            try:
                frame = json.loads(line)
            except ValueError:  # EOF, bad JSON, bytes that are not UTF-8
                break  # not speaking our protocol; hang up
            if not isinstance(frame, dict):
                break
            await _reply(writer, await service.handle_frame(frame))
    finally:
        writer.close()


async def serve(
    router: ShardRouter,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve ``router`` over newline-delimited JSON until cancelled.

    With ``port=0`` the OS picks a free port; the bound address is
    printed (and ``ready`` set, for tests) once listening.
    """
    service = ShardedService(router)
    #: The task serving each open connection, and that connection's reader.
    connections: dict[asyncio.Task, asyncio.StreamReader] = {}

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        connections[task] = reader
        try:
            await _handle_connection(service, reader, writer)
        finally:
            del connections[task]

    server = await asyncio.start_server(on_connect, host, port, limit=MAX_FRAME_BYTES)
    sockets = server.sockets or []
    for sock in sockets:
        addr = sock.getsockname()
        print(f"serving {len(router.shard_ids)} shard(s) on {addr[0]}:{addr[1]}")
    if ready is not None:
        ready.set()
    try:
        await asyncio.get_running_loop().create_future()  # until cancelled
    finally:
        server.close()
        # End each open connection's input: its handler answers the frames
        # it has read, then returns.  A handler cancelled mid-read instead
        # makes asyncio's connection callback log a CancelledError traceback
        # (Python 3.11), and a server with an open connection never closes
        # (3.12).
        for reader in connections.values():
            reader.feed_eof()
        await asyncio.gather(*connections, return_exceptions=True)
        await server.wait_closed()
