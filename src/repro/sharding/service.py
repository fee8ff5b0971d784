"""Asyncio front-end for the shard router: in-process and over TCP.

:class:`ShardedService` serves decoded frames from a
:class:`~repro.sharding.router.ShardRouter` (the blocking scatter-gather
runs on the event loop's default executor, so one slow shard never stalls
the loop), and :func:`serve` exposes it as a line-delimited JSON TCP protocol::

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
from .router import ShardRouter

__all__ = ["ShardedService", "serve"]


def _rect(frame: dict) -> Rect:
    return Rect(frame["lows"], frame["highs"])


#: Frame op -> the blocking router call that serves it.
_FRAME_OPS: dict[str, Callable[[ShardRouter, dict], Any]] = {
    "insert": lambda router, frame: router.insert(_rect(frame), frame.get("payload")),
    "delete": lambda router, frame: router.delete(frame["record_id"]),
    "search": lambda router, frame: router.search(_rect(frame)),
    "search_within": lambda router, frame: router.search_within(_rect(frame)),
    "search_containing": lambda router, frame: router.search_containing(_rect(frame)),
    "stab": lambda router, frame: router.stab(*frame["coords"]),
    "split": lambda router, frame: router.split_shard(frame["shard_id"]),
    "stats": lambda router, frame: router.stats(),
    "ping": lambda router, frame: "pong",
}


class ShardedService:
    """Async facade over a router; one instance per server."""

    def __init__(self, router: ShardRouter) -> None:
        self.router = router

    async def handle_frame(self, frame: dict) -> dict:
        """Execute one decoded JSON request; never raises for repro errors.

        The blocking router call runs on the event loop's default
        executor, so one slow shard never stalls the loop.
        """
        try:
            op = frame.get("op")
            call = _FRAME_OPS.get(op)
            if call is None:
                raise ConfigError(f"unknown op {op!r}")
            value = await asyncio.get_running_loop().run_in_executor(
                None, call, self.router, frame
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            # The RPC boundary: protocol and engine errors become error
            # frames on the wire instead of dropping the connection.
            return {
                "ok": False,
                "error_type": type(exc).__name__,
                "error": str(exc),
            }
        return {"ok": True, "value": value}


async def _handle_connection(
    service: ShardedService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                frame = json.loads(line)
            except json.JSONDecodeError:
                break  # not speaking our protocol; hang up
            if not isinstance(frame, dict):
                break
            reply = await service.handle_frame(frame)
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
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

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    server = await asyncio.start_server(on_connect, host, port)
    sockets = server.sockets or []
    for sock in sockets:
        addr = sock.getsockname()
        print(f"serving {len(router.shard_ids)} shard(s) on {addr[0]}:{addr[1]}")
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()
