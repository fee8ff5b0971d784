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
declared in ``repro.analysis.lockspec`` and checked at runtime by the
lock-order recorder under ``repro racecheck``) is held shared by every
operation and exclusively by rebalances only, so scatter-gather traffic
proceeds fully in parallel between splits.

Each routed op is declared once, as a :data:`Plan` — a generator that
prepares, yields the wire calls it needs, and is sent their values (or
thrown the ``ShardError`` they ended in) to finish or undo — and driven
two ways: :meth:`ShardRouter.run` sends every call from the calling
thread and waits, :meth:`ShardRouter.run_async` awaits the same futures
on an event loop.  Neither needs a thread of its own.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent import futures
from typing import Any, Callable, Generator, Mapping, Sequence

from ..concurrency.latch import RWLatch
from ..core.geometry import Rect
from ..core.query import QuerySurface
from ..exceptions import ConfigError, ShardError, ShardTimeoutError
from ..obs.tracer import NULL_TRACER, Tracer
from . import wire
from .admission import AdmissionController
from .partition import CurveRangePartitioner
from .transport import LocalShardClient, ProcessShardClient, ShardClient
from .worker import ShardSpec

__all__ = ["ShardRouter", "build_router", "TRANSPORTS", "Call", "Plan"]

#: One wire call of a plan: (shard id, op, args).
Call = tuple[int, str, tuple[Any, ...]]
#: A routed op: yields the calls it needs, is sent their values in order.
Plan = Generator[Sequence[Call], Sequence[Any], Any]
#: A call on the wire: the client it went to, and the future of its reply.
_Sent = tuple[ShardClient, "futures.Future[Any]"]

#: Transport name -> client class, for :func:`build_router`.
TRANSPORTS: Mapping[str, Callable[[ShardSpec], ShardClient]] = {
    "local": LocalShardClient,
    "process": ProcessShardClient,
}


def _coords(rect: Rect) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return (rect.lows, rect.highs)


def _resolved(
    future: "futures.Future[Any]", loop: asyncio.AbstractEventLoop
) -> "asyncio.Future[None]":
    """A loop future done once ``future`` is: set on the loop's thread for
    a loop-pumped call (reply, deadline, lost worker, failed send), else
    through ``call_soon_threadsafe`` — a self-pipe write — from a pump thread."""
    waiter = loop.create_future()
    owner = threading.get_ident()

    def wake(_: object) -> None:
        if threading.get_ident() != owner:
            if not loop.is_closed():
                loop.call_soon_threadsafe(wake, _)
        elif not waiter.done():  # its awaiter may have been cancelled
            waiter.set_result(None)

    future.add_done_callback(wake)
    return waiter


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
        #: Records owned per shard, moved under ``_rid_gate`` wherever
        #: ownership changes, so ``stats`` iterates nothing shared.
        self._owned: dict[int, int] = {sid: 0 for sid in clients}
        #: Conservative per-shard MBR: union of every rectangle ever
        #: inserted (grown under ``_bounds_gate``, never shrunk on
        #: delete) — the pruning predicate for scatter fan-out.
        self._bounds_gate = threading.Lock()
        self._shard_bounds: dict[int, Rect | None] = {sid: None for sid in clients}
        self._loop: asyncio.AbstractEventLoop | None = None  # see ``attach``
        self.rebalances = 0

    # ------------------------------------------------------------------
    # Write path (single-shard by curve key)
    # ------------------------------------------------------------------
    def plan_insert(self, rect: Rect, payload: Any = None) -> Plan:
        """:meth:`insert` as a plan (for :meth:`run` / :meth:`run_async`)."""
        sid = self._partitioner.shard_for_rect(rect)
        # Ownership and bounds go in before the call: both are
        # conservative should the worker never get the record, and a
        # call that timed out may be applied all the same.
        with self._rid_gate:
            # Pre-increment: ids are 1-based in insertion order, the
            # same sequence a single RTree fed these ops would assign.
            self._next_rid += 1
            rid = self._next_rid
            self._rid_to_shard[rid] = sid
            self._owned[sid] += 1
        with self._bounds_gate:
            bounds = self._shard_bounds.get(sid)
            self._shard_bounds[sid] = rect if bounds is None else bounds.union(rect)
        try:
            yield [(sid, wire.OP_INSERT, (rid, *_coords(rect), payload))]
        except ShardTimeoutError:
            raise
        except ShardError:
            # Shed by admission or refused by the worker: not applied.
            self._disown(rid)
            raise
        return rid

    def plan_delete(self, record_id: int) -> Plan:
        """:meth:`delete` as a plan."""
        sid = self._rid_to_shard.get(record_id)
        if sid is None:
            return 0
        (removed,) = yield [(sid, wire.OP_DELETE, (record_id,))]
        self._disown(record_id)
        return int(removed)

    def _disown(self, rid: int) -> None:
        with self._rid_gate:
            sid = self._rid_to_shard.pop(rid, None)
            if sid is not None:
                self._owned[sid] -= 1

    def insert(self, rect: Rect, payload: Any = None) -> int:
        """Insert one record; returns its (insertion-ordered) global id."""
        return self.run(self.plan_insert(rect, payload))

    def delete(self, record_id: int) -> int:
        """Delete a record by global id; returns fragments removed (0 when
        the id is unknown, matching the single-index contract)."""
        return self.run(self.plan_delete(record_id))

    # ------------------------------------------------------------------
    # Read path (scatter-gather with bounds pruning)
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self._partitioner.bounds.dims

    def plan_query(self, kind: str, rect: Rect) -> Plan:
        """Scatter one query to every non-prunable shard; merge rid-sorted."""
        prune = _PRUNE.get(kind)
        if prune is None:
            raise ConfigError(f"unknown query kind {kind!r}")
        self._check_rect(rect)
        args = (rect.lows,) if kind == wire.OP_STAB else _coords(rect)
        bounds = self._bounds_snapshot()
        calls = [
            (sid, kind, args)
            for sid, box in bounds.items()
            if box is not None and prune(box, rect)
        ]
        self._trace_dispatch(kind, len(calls), len(bounds) - len(calls))
        if not calls:
            return []
        merged = [hit for hits in (yield calls) for hit in hits]
        merged.sort(key=lambda item: item[0])
        if self.tracer.enabled:
            self.tracer.event(
                "shard_gather", op=kind, shards=len(calls), results=len(merged)
            )
        return merged

    def _plan_batch(self, rects: Sequence[Rect]) -> Plan:
        """Answer a whole batch, scattering each shard only the queries
        its bounds can intersect."""
        results: list[list[tuple[int, Any]]] = [[] for _ in rects]
        bounds = self._bounds_snapshot()
        wanted = {
            sid: [i for i, r in enumerate(rects) if box.intersects(r)]
            for sid, box in bounds.items()
            if box is not None
        }
        calls = [
            (sid, wire.OP_BATCH_SEARCH, ([_coords(rects[i]) for i in indices],))
            for sid, indices in wanted.items()
            if indices
        ]
        self._trace_dispatch(wire.OP_BATCH_SEARCH, len(calls), len(bounds) - len(calls))
        for (sid, _op, _args), shard_lists in zip(calls, (yield calls)):
            for i, hits in zip(wanted[sid], shard_lists):
                results[i].extend(hits)
        for hits in results:
            hits.sort(key=lambda item: item[0])
        return results

    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        return self.run(self.plan_query(kind, rect))

    def _query_batch(self, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
        return self.run(self._plan_batch(rects))

    # ------------------------------------------------------------------
    # The two drivers
    # ------------------------------------------------------------------
    def run(self, plan: Plan) -> Any:
        """Drive ``plan`` from this thread: every call it yields is sent
        from here, then waited for — no pool, one shard or many."""
        with self._topology_latch.read():
            try:
                calls = next(plan)
                while True:
                    got = self._gather(calls)
                    calls = plan.throw(got) if isinstance(got, ShardError) else plan.send(got)
            except StopIteration as done:
                return done.value

    async def run_async(self, plan: Plan) -> Any:
        """Drive ``plan`` on the running event loop: the same calls, the
        same futures, awaited.  The loop must never *wait* for the latch
        (DESIGN 3.1): whoever rebalances a served router first drains
        the loop's plans and holds new ones out, as ``ShardedService`` does."""
        with self._topology_latch.read():
            try:
                calls = next(plan)
                while True:
                    got = await self._gather_async(calls)
                    calls = plan.throw(got) if isinstance(got, ShardError) else plan.send(got)
            except StopIteration as done:
                return done.value

    def _gather(self, calls: Sequence[Call]) -> "list[Any] | ShardError":
        try:
            sent = [self._submit(*call, self.admission.acquire(call[0])) for call in calls]
            return self._values(calls, sent, self.timeout_s)
        except ShardError as exc:
            return exc

    async def _gather_async(self, calls: Sequence[Call]) -> "list[Any] | ShardError":
        loop = asyncio.get_running_loop()
        timer = None
        try:
            sent = []
            for call in calls:
                retries = 0  # ``admission.acquire``, its back-off awaited
                while not self.admission.try_acquire(call[0]):
                    await asyncio.sleep(self.admission.backoff(call[0], retries))
                    retries += 1
                sent.append(self._submit(*call, retries))
            if self.timeout_s is not None:  # the deadline resolves whatever is still out
                timer = loop.call_later(self.timeout_s, self._expire, sent)
            for _, future in sent:
                await _resolved(future, loop)  # ``_values`` re-raises what it carried
            return self._values(calls, sent, 0.0)
        except ShardError as exc:
            return exc
        finally:
            if timer is not None:
                timer.cancel()

    def _submit(self, sid: int, op: str, args: tuple[Any, ...], retries: int) -> _Sent:
        """Send one admitted call; its slot is given back by whichever
        thread resolves it."""
        if retries and self.tracer.enabled:
            self.tracer.event("shard_shed", shard=sid, retries=retries)
        client = self._clients[sid]
        future = client.submit(op, args)
        future.add_done_callback(lambda _: self.admission.release(sid))
        return client, future

    def _expire(self, sent: Sequence[_Sent]) -> None:
        """A loop's deadline: whatever is still out has timed out."""
        for client, future in sent:
            if not future.done():
                client.expire(future, self.timeout_s)

    def _values(
        self, calls: Sequence[Call], sent: Sequence[_Sent], wait: float | None
    ) -> list[Any]:
        """Every value of a gather, in call order, after at most ``wait``
        more seconds — all or nothing.  A call still out then has timed
        out (the worker is still doing the work; its late reply will be
        dropped), any timeout poisons the gather, and timeouts are
        reported collectively before any other failure is re-raised."""
        deadline = None if wait is None else time.monotonic() + wait
        values: list[Any] = []
        timeouts: list[int] = []
        failure: BaseException | None = None
        for client, future in sent:
            try:
                left = None if deadline is None else max(0.0, deadline - time.monotonic())
                error = future.exception(left)
            except futures.TimeoutError:
                client.expire(future, self.timeout_s)
                error = future.exception()
            if error is None:
                values.append(future.result())
            elif isinstance(error, ShardTimeoutError):
                timeouts.append(client.shard_id)
            elif failure is None:
                failure = error
        if timeouts:
            op = calls[0][1]
            if self.tracer.enabled:
                self.tracer.event(
                    "shard_gather", op=op, shards=len(sent), timeouts=len(timeouts)
                )
            raise ShardTimeoutError(
                f"gather({op}): shard(s) {sorted(timeouts)} missed the {self.timeout_s}s "
                "deadline; refusing to return a partial result",
                tuple(sorted(timeouts)),
            )
        if failure is not None:
            raise failure  # lint: ignore[R3] — the exception a reply carried
        return values

    def _shard_call(self, sid: int, op: str, args: tuple[Any, ...]) -> Any:
        """One admitted, blocking wire call to one shard
        (for the paths that already hold the topology latch)."""
        outcome = self._gather([(sid, op, args)])
        if isinstance(outcome, ShardError):
            raise outcome  # lint: ignore[R3] — a ShardError the gather captured
        return outcome[0]

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
        split.  Blocks: a served router calls it off the loop, with the
        loop's plans drained (see :meth:`run_async`).
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
            if self._loop is not None:
                client.attach(self._loop)  # before its first call picks a pump
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
            with self._rid_gate:
                self._owned[new_sid] = 0
                for rid, lows, highs, _payload in moved:
                    was = self._rid_to_shard.get(rid)
                    if was is not None:
                        self._owned[was] -= 1
                    self._rid_to_shard[rid] = new_sid
                    self._owned[new_sid] += 1
                    box = Rect(tuple(lows), tuple(highs))
                    moved_bounds = box if moved_bounds is None else moved_bounds.union(box)
            with self._bounds_gate:
                self._shard_bounds[new_sid] = moved_bounds
                # The donor keeps its (now looser) bounds: still a
                # superset of everything resident, so still conservative.
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
                sid: self._shard_call(sid, wire.OP_STATS, ())
                for sid in sorted(self._clients)
            }

    def configure_workers(self, delay_s: float = 0.0) -> None:
        """Broadcast a per-request handling delay to every worker (the
        timeout tests' fault hook)."""
        with self._topology_latch.read():
            for sid in sorted(self._clients):
                self._shard_call(sid, wire.OP_CONFIGURE, (delay_s,))

    def stats(self) -> dict:
        """Router-side counters, JSON-ready.  O(shards): safe beside writers."""
        owned = dict(self._owned)
        return {
            "shards": len(self._clients),
            "records": len(self._rid_to_shard),
            "records_per_shard": {sid: owned.get(sid, 0) for sid in self.shard_ids},
            "rebalances": self.rebalances,
            "admission": self.admission.snapshot(),
        }

    def attach(self, loop: asyncio.AbstractEventLoop) -> bool:
        """Hand every shard pipe without a pump — and those of shards yet
        to be split off — to ``loop``, so plans can be awaited on it.
        ``False``, and nothing attached, when a shard's worker runs on the
        thread that calls it (``local``): that thread must not be a loop."""
        clients = list(self._clients.values())
        if any(isinstance(client, LocalShardClient) for client in clients):
            return False
        self._loop = loop
        for client in clients:
            client.attach(loop)
        return True

    def close(self) -> None:
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


def build_router(
    shards: int,
    *,
    bounds: Rect,
    transport: str = "process",
    buffer_bytes: int = 64 * 1024,
    tracer: Tracer | None = None,
    timeout_s: float | None = 5.0,
    admission: AdmissionController | None = None,
) -> ShardRouter:
    """Construct a router plus ``shards`` fresh workers in one call.

    ``transport`` is one of :data:`TRANSPORTS` (``local`` / ``process``);
    the returned router can rebalance, because the same
    factory that built the initial workers is installed as its spawn
    hook.  Each worker gets a buffer pool of ``buffer_bytes``; the router
    and every worker key records on the same curve, at
    :data:`~repro.sharding.partition.CURVE_ORDER`.
    """
    factory = TRANSPORTS.get(transport)
    if factory is None:
        raise ConfigError(
            f"unknown transport {transport!r}; known: {sorted(TRANSPORTS)}"
        )

    def spawn(shard_id: int) -> ShardClient:
        return factory(ShardSpec(shard_id, bounds.lows, bounds.highs, buffer_bytes))

    partitioner = CurveRangePartitioner(shards, bounds=bounds)
    clients = {sid: spawn(sid) for sid in partitioner.shard_ids}
    return ShardRouter(
        clients,
        partitioner,
        spawn=spawn,
        tracer=tracer,
        timeout_s=timeout_s,
        admission=admission,
    )
