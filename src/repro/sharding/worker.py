"""One shard: a private tree + buffer pool behind the wire protocol.

A :class:`ShardWorker` owns everything a single-process serving engine
owns — an :class:`~repro.core.rtree.RTree`, a
:class:`~repro.storage.pager.StorageManager` buffer pool over an
in-memory disk, with no log yet (ROADMAP item 4) — and speaks
only :class:`~repro.sharding.wire.Request`/:class:`~repro.sharding.wire.Reply`.
Record ids are assigned globally by the router; the worker keeps the
global<->local translation maps plus each record's rectangle, which is
what lets it answer the rebalance ops (``suggest_split`` /
``extract`` / ``ingest``) by curve key without asking anyone.

:func:`worker_main` is the subprocess entry point: a blocking
request/reply loop over one :class:`multiprocessing.connection.Connection`.
The in-process transports in :mod:`repro.sharding.transport` drive
:meth:`ShardWorker.handle` directly.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

from ..concurrency.engine import ConcurrentIndex
from ..core import query
from ..core.geometry import Rect
from ..core.rtree import RTree
from ..exceptions import ConfigError
from ..storage.disk import SimulatedDisk
from ..storage.pager import StorageManager
from ..store import open_store
from . import wire
from .partition import curve_key
from .wire import Reply, Request

__all__ = ["ShardSpec", "ShardWorker", "worker_main"]

#: Threads of a subprocess worker whose requests can stall: concurrent
#: requests share the engine's index latch and overlap their stalls (a
#: configured request delay today; a durable shard's log fsync later).
WORKER_THREADS = 8

#: One migrated record on the wire: (rid, lows, highs, payload).
MovedRecord = tuple[int, tuple[float, ...], tuple[float, ...], Any]


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to build one shard worker (pickles to a subprocess).

    ``bounds_lows``/``bounds_highs`` are the partitioner's domain bounds
    — every worker must quantize curve keys against the *same* bounds as
    the router (at :data:`~repro.sharding.partition.CURVE_ORDER`), or a
    record's key would change on migration.  ``buffer_bytes`` sizes the
    worker's buffer pool; every worker has one.
    """

    shard_id: int
    bounds_lows: tuple[float, ...]
    bounds_highs: tuple[float, ...]
    buffer_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.buffer_bytes <= 0:
            raise ConfigError("buffer bytes must be positive")

    def bounds(self) -> Rect:
        return Rect(self.bounds_lows, self.bounds_highs)


class ShardWorker:
    """Request handler for one shard (transport-agnostic)."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self._bounds = spec.bounds()
        self.tree = RTree()
        #: The worker serves requests through the concurrency engine, so
        #: a multi-threaded transport loop gets real reader-reader
        #: overlap under the shared index latch.
        # In memory, no log: a durable shard is ROADMAP item 4(b)-(d).
        store = open_store(SimulatedDisk(), tree=self.tree, buffer_bytes=spec.buffer_bytes)
        self.engine: ConcurrentIndex = store.engine
        self.storage: StorageManager = store.manager
        #: global rid -> local tree record id, and the reverse.
        self._to_local: dict[int, int] = {}
        self._to_global: dict[int, int] = {}
        #: global rid -> (rect, payload): curve keys for rebalancing and
        #: payload round-tripping for extract/ingest.
        self._records: dict[int, tuple[Rect, Any]] = {}
        #: Artificial per-request delay (seconds); the timeout tests'
        #: fault hook, set over the wire via ``configure``.
        self._delay_s = 0.0
        self._ops = {
            wire.OP_INSERT: self._op_insert,
            wire.OP_DELETE: self._op_delete,
            # The query ops are the surface's kinds: one handler each way.
            **{kind: partial(self._op_query, kind) for kind in query.KINDS},
            wire.OP_BATCH_SEARCH: self._op_batch_search,
            wire.OP_EXTRACT: self._op_extract,
            wire.OP_INGEST: self._op_ingest,
            wire.OP_SUGGEST_SPLIT: self._op_suggest_split,
            wire.OP_COUNT: self._op_count,
            wire.OP_STATS: self._op_stats,
            wire.OP_CONFIGURE: self._op_configure,
            wire.OP_PING: self._op_ping,
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Reply:
        """Execute one request; failures become error replies.

        This is the RPC boundary: any exception must cross the wire as a
        ``(error_type, error)`` pair and be rebuilt client-side by
        :func:`~repro.sharding.wire.reply_error` — a worker that
        died on a bad request would take its whole shard down instead.
        """
        if self._delay_s:
            time.sleep(self._delay_s)
        try:
            handler = self._ops.get(request.op)
            if handler is None:
                raise ConfigError(f"unknown shard op {request.op!r}")
            return Reply(request.seq, True, handler(*request.args))
        except Exception as exc:  # serialized into the Reply, re-raised client-side
            return Reply(request.seq, False, None, type(exc).__name__, str(exc))

    @property
    def may_block(self) -> bool:
        """Whether a request can stall the thread that runs it: a request
        delay (and, once a shard is durable, its log's fsync).  Observed
        per request, not set: ``configure`` changes it at run time.  When
        false a request is pure CPU under one GIL, and a second thread
        could only add a hand-off."""
        return bool(self._delay_s)

    def close(self) -> None:
        self.storage.detach()

    # ------------------------------------------------------------------
    # Serving ops
    # ------------------------------------------------------------------
    def _op_insert(
        self,
        rid: int,
        lows: Sequence[float],
        highs: Sequence[float],
        payload: Any,
    ) -> int:
        rect = Rect(tuple(lows), tuple(highs))
        local = self.engine.insert(rect, payload)
        self._to_local[rid] = local
        self._to_global[local] = rid
        self._records[rid] = (rect, payload)
        return 1

    def _op_delete(self, rid: int) -> int:
        local, record = self._to_local.get(rid), self._records.get(rid)
        if local is None or record is None:
            return 0
        # Forget the record only once the tree has let go of it: a delete
        # that raises leaves it searchable, counted and deletable on retry.
        removed = self.engine.delete(local, hint=record[0])
        self._to_local.pop(rid, None)
        self._to_global.pop(local, None)
        self._records.pop(rid, None)
        return removed

    def _globalize(self, hits: list[tuple[int, Any]]) -> list[tuple[int, Any]]:
        to_global = self._to_global
        # ``get``, not ``[]``: under a multi-threaded transport a delete
        # can land between the engine's read and this translation; the
        # vanished record linearizes after that delete and is dropped.
        out = []
        for local, payload in hits:
            rid = to_global.get(local)
            if rid is not None:
                out.append((rid, payload))
        return out

    def _op_query(self, kind: str, *bounds: Sequence[float]) -> list[tuple[int, Any]]:
        """Any single-rectangle query: ``bounds`` is ``(lows, highs)``, or
        the one point of a stab."""
        rect = Rect(bounds[0], bounds[-1])
        return self._globalize(self.engine.query(kind, rect))

    def _op_batch_search(
        self, rects: Sequence[tuple[Sequence[float], Sequence[float]]]
    ) -> list[list[tuple[int, Any]]]:
        queries = [Rect(lo, hi) for lo, hi in rects]
        return [self._globalize(hits) for hits in self.engine.batch_search(queries)]

    # ------------------------------------------------------------------
    # Rebalance ops
    # ------------------------------------------------------------------
    def _key(self, rect: Rect) -> int:
        return curve_key(rect, self._bounds)

    def _op_suggest_split(self) -> int | None:
        """Median resident curve key, or ``None`` when a split can't help.

        ``None`` means fewer than two records, or every record below the
        median shares one key (splitting there would move everything or
        nothing).
        """
        keys = sorted(self._key(rect) for rect, _ in self._records.values())
        if len(keys) < 2:
            return None
        median = keys[len(keys) // 2]
        if median > keys[0]:
            return median
        # All keys at or below the median collide; the first larger key
        # (if any) still yields a non-empty, non-total split.
        for k in keys:
            if k > median:
                return k
        return None

    def _op_extract(self, split_key: int) -> list[MovedRecord]:
        """Remove and return every record with curve key >= ``split_key``."""
        moved: list[MovedRecord] = []
        for rid in [
            rid
            for rid, (rect, _) in self._records.items()
            if self._key(rect) >= split_key
        ]:
            rect, payload = self._records[rid]
            self._op_delete(rid)
            moved.append((rid, rect.lows, rect.highs, payload))
        return moved

    def _op_ingest(self, items: Sequence[MovedRecord]) -> int:
        for rid, lows, highs, payload in items:
            self._op_insert(rid, lows, highs, payload)
        return len(items)

    # ------------------------------------------------------------------
    # Introspection ops
    # ------------------------------------------------------------------
    def _op_count(self) -> int:
        return len(self._records)

    def _op_stats(self) -> dict[str, Any]:
        return {
            "shard_id": self.spec.shard_id,
            "records": len(self._records),
            "tree_height": self.tree.height,
            "buffer_hits": self.storage.pool.stats.hits,
            "buffer_misses": self.storage.pool.stats.misses,
        }

    def _op_configure(self, delay_s: float) -> None:
        """A per-request handling delay: the timeout tests' fault hook."""
        if delay_s < 0:
            raise ConfigError("delay_s must be non-negative")
        self._delay_s = delay_s

    def _op_ping(self) -> str:
        return "pong"


def worker_main(conn: Any, spec: ShardSpec) -> None:
    """Subprocess entry point: serve one pipe until shutdown or EOF.

    A request that cannot stall is answered on the thread that read it.
    One that can (:attr:`ShardWorker.may_block`) goes to a small thread
    pool so concurrent reads overlap their buffer-miss stalls under the
    engine's shared index latch — the pipe stays ordered-by-completion,
    and the client matches replies to requests by sequence number.
    """
    worker = ShardWorker(spec)
    send_gate = threading.Lock()

    def run(request: Request) -> None:
        frame = wire.encode(worker.handle(request))
        with send_gate:
            try:
                conn.send_bytes(frame)
            except (EOFError, OSError):
                pass  # client hung up mid-flight; nobody to reply to

    # Threads start with the first submit: a worker that never stalls has one.
    pool = ThreadPoolExecutor(max_workers=WORKER_THREADS, thread_name_prefix="shard-op")
    try:
        while True:
            try:
                request = wire.decode(Request, conn.recv_bytes())
            except (EOFError, OSError):
                break  # router side closed; nothing left to reply to
            if request.op == wire.OP_SHUTDOWN:
                pool.shutdown(wait=True)  # drain in-flight work first
                with send_gate:
                    conn.send_bytes(wire.encode(Reply(request.seq, True, None)))
                break
            if worker.may_block:
                pool.submit(run, request)
            else:
                run(request)
    finally:
        pool.shutdown(wait=True)
        worker.close()
        conn.close()
