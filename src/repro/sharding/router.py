"""Scatter-gather shard router: one logical index over N shard workers.

The router presents the :class:`~repro.concurrency.engine.ConcurrentIndex`
serving surface (the :class:`~repro.core.query.QuerySurface` reads plus
``insert`` / ``delete``) over a set of shard clients, each owning a contiguous curve-key range
(:class:`~repro.sharding.partition.CurveRangePartitioner`):

* **writes** route to exactly one shard by the record's curve key; the
  router assigns global record ids in insertion order, so result sets
  are byte-identical to a single index fed the same operations (the
  differential oracle's contract);
* **reads** scatter to every shard whose *observed bounds* — the union
  of rectangles ever inserted there, never shrunk on delete, so always
  conservative — can intersect the query, and gather the replies into
  one rid-sorted result.  A shard that misses the gather deadline
  raises :class:`~repro.exceptions.ShardTimeoutError`; partial results
  are never returned silently;
* **admission control** bounds each shard's router-side in-flight count
  (:class:`~repro.sharding.admission.AdmissionController`) with
  shed-and-retry before an operation fails over to
  :class:`~repro.exceptions.ShardOverloadError`;
* **rebalance** (:meth:`ShardRouter.split_shard`) quiesces traffic via
  the exclusive topology latch, splits the hot shard's curve range at
  its median resident key, migrates the upper half's records to a new
  worker, and updates the partitioner + rid map in the same critical
  section — no lost or duplicated records, ever observable.

The topology latch (``router``, rank 0 of the canonical lock hierarchy
— see ``repro.analysis.lockspec``) is held shared by every operation
and exclusively by rebalances only, so scatter-gather traffic proceeds
fully in parallel between splits.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..concurrency.latch import RWLatch
from ..core.geometry import Rect
from ..core.query import QuerySurface
from ..exceptions import ConfigError, ShardError, ShardTimeoutError
from ..obs.latency import LatencySeries
from ..obs.tracer import NULL_TRACER, Tracer
from . import wire
from .admission import AdmissionController
from .partition import CurveRangePartitioner
from .transport import (
    LocalShardClient,
    ProcessShardClient,
    ShardClient,
    ThreadShardClient,
)
from .worker import ShardSpec

__all__ = ["ShardRouter", "build_router", "TRANSPORTS"]

#: Transport name -> client class, for :func:`build_router`.
TRANSPORTS: Mapping[str, Callable[[ShardSpec], ShardClient]] = {
    "local": LocalShardClient,
    "thread": ThreadShardClient,
    "process": ProcessShardClient,
}


def _coords(rect: Rect) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return (rect.lows, rect.highs)


#: Which shards a query kind must visit, as a test of the shard's
#: conservative bounds against the query.  A record within the query also
#: intersects it; a record containing the query (or the point of a stab,
#: a degenerate rectangle) forces the shard's bounds to contain it too —
#: a strictly sharper prune.
_PRUNE: Mapping[str, Callable[[Rect, Rect], bool]] = {
    wire.OP_SEARCH: Rect.intersects,
    wire.OP_WITHIN: Rect.intersects,
    wire.OP_CONTAINING: Rect.contains,
    wire.OP_STAB: Rect.contains,
}


class ShardRouter(QuerySurface):
    """Routes one logical index's traffic across shard workers."""

    def __init__(
        self,
        clients: Mapping[int, ShardClient],
        partitioner: CurveRangePartitioner,
        *,
        spawn: Callable[[int], ShardClient] | None = None,
        tracer: Tracer | None = None,
        timeout_s: float | None = 5.0,
        admission: AdmissionController | None = None,
    ) -> None:
        if not clients:
            raise ConfigError("a router needs at least one shard client")
        if set(clients) != set(partitioner.shard_ids):
            raise ConfigError(
                f"clients {sorted(clients)} do not match partitioner "
                f"shards {sorted(partitioner.shard_ids)}"
            )
        self._clients: dict[int, ShardClient] = dict(clients)
        self._partitioner = partitioner
        self._spawn = spawn
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.timeout_s = timeout_s
        self.admission = admission or AdmissionController()
        #: Topology latch: shared for every operation, exclusive for
        #: rebalances (rank 0 — outermost — in the canonical hierarchy).
        self._topology_latch = RWLatch("router", tracer=self.tracer)
        self._rid_gate = threading.Lock()
        self._next_rid = 0
        self._rid_to_shard: dict[int, int] = {}
        #: Conservative per-shard MBR: union of every rectangle ever
        #: inserted (grown under ``_bounds_gate``, never shrunk on
        #: delete) — the pruning predicate for scatter fan-out.
        self._bounds_gate = threading.Lock()
        self._shard_bounds: dict[int, Rect | None] = {sid: None for sid in clients}
        #: Per-(op, shard) wire-call latency, merged into bench reports.
        self._latencies = LatencySeries()
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 4 * len(clients)), thread_name_prefix="gather"
        )
        self.rebalances = 0

    # ------------------------------------------------------------------
    # Write path (single-shard by curve key)
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, payload: Any = None) -> int:
        """Insert one record; returns its (insertion-ordered) global id."""
        with self._topology_latch.read():
            sid = self._partitioner.shard_for_rect(rect)
            with self._rid_gate:
                # Pre-increment: ids are 1-based in insertion order, the
                # same sequence a single RTree fed these ops would assign.
                self._next_rid += 1
                rid = self._next_rid
            # Ownership and bounds go in before the call: both are
            # conservative should the worker never get the record, and a
            # call that timed out may be applied all the same.
            self._rid_to_shard[rid] = sid
            with self._bounds_gate:
                bounds = self._shard_bounds.get(sid)
                self._shard_bounds[sid] = (
                    rect if bounds is None else bounds.union(rect)
                )
            try:
                self._shard_call(sid, wire.OP_INSERT, (rid, *_coords(rect), payload))
            except ShardTimeoutError:
                raise
            except ShardError:
                # Shed by admission or refused by the worker: not applied.
                del self._rid_to_shard[rid]
                raise
            return rid

    def delete(self, record_id: int) -> int:
        """Delete a record by global id; returns fragments removed (0 when
        the id is unknown, matching the single-index contract)."""
        with self._topology_latch.read():
            sid = self._rid_to_shard.get(record_id)
            if sid is None:
                return 0
            removed = int(self._shard_call(sid, wire.OP_DELETE, (record_id,)))
            self._rid_to_shard.pop(record_id, None)
            return removed

    # ------------------------------------------------------------------
    # Read path (scatter-gather with bounds pruning)
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self._partitioner.bounds.dims

    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        """Scatter one query to every non-prunable shard; merge rid-sorted."""
        prune = _PRUNE.get(kind)
        if prune is None:
            raise ConfigError(f"unknown query kind {kind!r}")
        args = (rect.lows,) if kind == wire.OP_STAB else _coords(rect)
        with self._topology_latch.read():
            bounds = self._bounds_snapshot()
            plan = {
                sid: args
                for sid, box in bounds.items()
                if box is not None and prune(box, rect)
            }
            self._trace_dispatch(kind, len(plan), len(bounds) - len(plan))
            if not plan:
                return []
            merged = [hit for hits in self._scatter(kind, plan).values() for hit in hits]
            merged.sort(key=lambda item: item[0])
            if self.tracer.enabled:
                self.tracer.event(
                    "shard_gather", op=kind, shards=len(plan), results=len(merged)
                )
            return merged

    def _query_batch(self, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
        """Answer a whole batch, scattering each shard only the queries
        its bounds can intersect."""
        results: list[list[tuple[int, Any]]] = [[] for _ in rects]
        with self._topology_latch.read():
            bounds = self._bounds_snapshot()
            wanted = {
                sid: [i for i, r in enumerate(rects) if box.intersects(r)]
                for sid, box in bounds.items()
                if box is not None
            }
            plan = {
                sid: ([_coords(rects[i]) for i in indices],)
                for sid, indices in wanted.items()
                if indices
            }
            self._trace_dispatch(
                wire.OP_BATCH_SEARCH, len(plan), len(bounds) - len(plan)
            )
            for sid, shard_lists in self._scatter(wire.OP_BATCH_SEARCH, plan).items():
                for i, hits in zip(wanted[sid], shard_lists):
                    results[i].extend(hits)
        for hits in results:
            hits.sort(key=lambda item: item[0])
        return results

    # ------------------------------------------------------------------
    # Rebalance
    # ------------------------------------------------------------------
    def split_shard(self, shard_id: int) -> int | None:
        """Split ``shard_id``'s curve range at its median resident key.

        Quiesces all traffic (exclusive topology latch), migrates the
        records at or above the split key to a freshly spawned shard,
        and installs the new range + rid ownership atomically with
        respect to every other operation.  Returns the new shard id, or
        ``None`` when the shard is too small (or too key-degenerate) to
        split.
        """
        if self._spawn is None:
            raise ConfigError("router built without a shard factory; cannot split")
        if shard_id not in self._clients:
            raise ConfigError(f"no shard {shard_id}")
        with self._topology_latch.write():
            split_key = self._shard_call(shard_id, wire.OP_SUGGEST_SPLIT, ())
            if split_key is None:
                return None
            moved = self._shard_call(shard_id, wire.OP_EXTRACT, (split_key,))
            new_sid = max(self._clients) + 1
            client = self._spawn(new_sid)
            try:
                client.call(wire.OP_INGEST, (moved,), timeout=self.timeout_s)
            except ShardError:
                # The new worker never took ownership: put the records
                # back where every map still says they live.
                client.close()
                self._shard_call(shard_id, wire.OP_INGEST, (moved,))
                raise
            self._partitioner.split(shard_id, split_key, new_sid)
            self._clients[new_sid] = client
            moved_bounds: Rect | None = None
            for rid, lows, highs, _payload in moved:
                self._rid_to_shard[rid] = new_sid
                box = Rect(tuple(lows), tuple(highs))
                moved_bounds = box if moved_bounds is None else moved_bounds.union(box)
            with self._bounds_gate:
                self._shard_bounds[new_sid] = moved_bounds
                # The donor keeps its (now looser) bounds: still a
                # superset of everything resident, so still conservative.
            self._pool.shutdown(wait=True)
            self._pool = ThreadPoolExecutor(
                max_workers=max(4, 4 * len(self._clients)), thread_name_prefix="gather"
            )
            self.rebalances += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "shard_rebalance",
                    shard=shard_id,
                    new_shard=new_sid,
                    moved=len(moved),
                    split_key=int(split_key),
                )
            return new_sid

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rid_to_shard)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._clients))

    def shard_stats(self) -> dict[int, dict]:
        """Per-shard worker stats (record counts, buffer hit rates)."""
        with self._topology_latch.read():
            return {
                sid: self._clients[sid].call(
                    wire.OP_STATS, (), timeout=self.timeout_s
                )
                for sid in sorted(self._clients)
            }

    def configure_workers(
        self, delay_s: float = 0.0, read_delay: float | None = None
    ) -> None:
        """Broadcast runtime latency knobs to every worker (bench/tests)."""
        with self._topology_latch.read():
            for sid in sorted(self._clients):
                self._shard_call(sid, wire.OP_CONFIGURE, (delay_s, read_delay))

    def stats(self) -> dict:
        """Router-side counters, JSON-ready."""
        owned: dict[int, int] = {}
        for sid in self._rid_to_shard.values():
            owned[sid] = owned.get(sid, 0) + 1
        return {
            "shards": len(self._clients),
            "records": len(self._rid_to_shard),
            "records_per_shard": {sid: owned.get(sid, 0) for sid in self.shard_ids},
            "rebalances": self.rebalances,
            "admission": self.admission.snapshot(),
        }

    def latency_snapshot(self, prefix: str = "") -> dict[str, dict]:
        """Per-(op, shard) wire latencies for the v2 report schema."""
        return self._latencies.snapshot(prefix=prefix)

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bounds_snapshot(self) -> dict[int, Rect | None]:
        with self._bounds_gate:
            return dict(self._shard_bounds)

    def _trace_dispatch(self, op: str, shards: int, pruned: int) -> None:
        if self.tracer.enabled:
            self.tracer.event("shard_dispatch", op=op, shards=shards, pruned=pruned)

    def _shard_call(self, sid: int, op: str, args: tuple[Any, ...]) -> Any:
        """One admitted, latency-recorded wire call to one shard."""
        retries = self.admission.acquire(sid)
        if retries and self.tracer.enabled:
            self.tracer.event("shard_shed", shard=sid, retries=retries)
        try:
            start = time.perf_counter_ns()
            value = self._clients[sid].call(op, args, timeout=self.timeout_s)
            self._latencies.recorder(op, f"shard-{sid}").record(
                time.perf_counter_ns() - start
            )
            return value
        finally:
            self.admission.release(sid)

    def _scatter(self, op: str, plan: Mapping[int, tuple[Any, ...]]) -> dict[int, Any]:
        """Call ``op`` on every planned shard with its arguments — inline
        when there is only one, in parallel otherwise — all or nothing."""
        if len(plan) == 1:
            ((sid, args),) = plan.items()
            return {sid: self._shard_call(sid, op, args)}
        return self._collect(
            op,
            {
                sid: self._pool.submit(self._shard_call, sid, op, args)
                for sid, args in plan.items()
            },
        )

    def _collect(self, op: str, futures: Mapping[int, "Future[Any]"]) -> dict[int, Any]:
        """Wait for every scattered call; any timeout poisons the gather.

        All futures are always awaited (the workers are still doing the
        work; abandoning them would leak admission slots), then timeouts
        are reported collectively and other failures re-raised.
        """
        values: dict[int, Any] = {}
        timeouts: list[int] = []
        failure: Exception | None = None
        for sid, future in futures.items():
            try:
                values[sid] = future.result()
            except ShardTimeoutError:
                timeouts.append(sid)
            except ShardError as exc:
                if failure is None:
                    failure = exc
        if timeouts:
            if self.tracer.enabled:
                self.tracer.event(
                    "shard_gather",
                    op=op,
                    shards=len(futures),
                    timeouts=len(timeouts),
                )
            raise ShardTimeoutError(
                f"gather({op}): shard(s) {sorted(timeouts)} missed the "
                f"{self.timeout_s}s deadline; refusing to return a partial "
                "result",
                tuple(sorted(timeouts)),
            )
        if failure is not None:
            raise failure  # lint: ignore[R3] — a ShardError captured above
        return values


def build_router(
    shards: int,
    *,
    bounds: Rect,
    transport: str = "process",
    buffer_bytes: int = 64 * 1024,
    read_delay: float = 0.0,
    write_delay: float = 0.0,
    order: int | None = None,
    tracer: Tracer | None = None,
    timeout_s: float | None = 5.0,
    admission: AdmissionController | None = None,
    worker_threads: int = 8,
) -> ShardRouter:
    """Construct a router plus ``shards`` fresh workers in one call.

    ``transport`` is one of :data:`TRANSPORTS` (``local`` / ``thread`` /
    ``process``); the returned router can rebalance, because the same
    factory that built the initial workers is installed as its spawn
    hook.
    """
    factory = TRANSPORTS.get(transport)
    if factory is None:
        raise ConfigError(
            f"unknown transport {transport!r}; known: {sorted(TRANSPORTS)}"
        )

    def spec_for(shard_id: int) -> ShardSpec:
        return ShardSpec(
            shard_id=shard_id,
            bounds_lows=bounds.lows,
            bounds_highs=bounds.highs,
            **({"order": order} if order is not None else {}),
            buffer_bytes=buffer_bytes,
            read_delay=read_delay,
            write_delay=write_delay,
            worker_threads=worker_threads,
        )

    def spawn(shard_id: int) -> ShardClient:
        return factory(spec_for(shard_id))

    partitioner = (
        CurveRangePartitioner(shards, bounds=bounds)
        if order is None
        else CurveRangePartitioner(shards, bounds=bounds, order=order)
    )
    clients = {sid: spawn(sid) for sid in partitioner.shard_ids}
    return ShardRouter(
        clients,
        partitioner,
        spawn=spawn,
        tracer=tracer,
        timeout_s=timeout_s,
        admission=admission,
    )
