"""Unit battery for the sharded serving tier.

Covers the pieces the differential oracle exercises only in aggregate:
curve-range partitioning and splits, admission control (shed, backoff,
overload), the wire protocol's error rebuilding, per-transport timeout
semantics (including stale-reply discard on a pipe), scatter pruning,
gather-timeout poisoning (``ShardTimeoutError``, never partial results),
rebalance edge cases, and the asyncio/JSON service facade.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import IndexConfig, RTree, batch_search, check_index
from repro.core.geometry import Rect, union_all
from repro.exceptions import (
    ConfigError,
    NotFoundError,
    ShardError,
    ShardOverloadError,
    ShardTimeoutError,
    StorageError,
)
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sharding import (
    AdmissionController,
    CurveRangePartitioner,
    LocalShardClient,
    ProcessShardClient,
    ShardedService,
    ShardRouter,
    ShardSpec,
    ShardWorker,
    build_router,
)
from repro.sharding import wire
from repro.sharding.partition import CURVE_ORDER, curve_key, curve_keyspace, hilbert_index
from repro.sharding.wire import Reply, Request, raise_reply_error

BOUNDS = Rect((0.0, 0.0), (100.0, 100.0))


def _spec(shard_id: int = 0) -> ShardSpec:
    return ShardSpec(shard_id=shard_id, bounds_lows=BOUNDS.lows, bounds_highs=BOUNDS.highs)


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------
class TestPartitioner:
    def test_ranges_tile_the_keyspace(self):
        part = CurveRangePartitioner(4, bounds=BOUNDS)
        ranges = part.ranges
        assert ranges[0].lo == 0
        assert ranges[-1].hi == curve_keyspace(2, CURVE_ORDER)
        for prev, nxt in zip(ranges, ranges[1:]):
            assert prev.hi == nxt.lo  # contiguous, no gaps or overlap

    def test_every_key_maps_to_exactly_one_shard(self):
        part = CurveRangePartitioner(3, bounds=BOUNDS)
        for x in range(0, 100, 7):
            r = Rect((float(x), float(x % 50)), (float(x) + 1, float(x % 50) + 1))
            key = part.key(r)
            sid = part.shard_for_key(key)
            assert key in part.range_of(sid)
            assert part.shard_for_rect(r) == sid

    def test_out_of_bounds_keys_clamp(self):
        part = CurveRangePartitioner(2, bounds=BOUNDS)
        assert part.shard_for_key(-5) == part.ranges[0].shard_id
        assert part.shard_for_key(2**63) == part.ranges[-1].shard_id

    def test_split_replaces_one_range_with_two(self):
        part = CurveRangePartitioner(2, bounds=BOUNDS)
        target = part.ranges[0]
        mid = (target.lo + target.hi) // 2
        part.split(target.shard_id, mid, new_shard_id=9)
        assert len(part) == 3
        assert part.shard_for_key(mid - 1) == target.shard_id
        assert part.shard_for_key(mid) == 9
        assert part.range_of(9).hi == target.hi

    def test_split_validates(self):
        part = CurveRangePartitioner(2, bounds=BOUNDS)
        r = part.ranges[0]
        with pytest.raises(NotFoundError):
            part.split(99, 1, new_shard_id=5)
        with pytest.raises(ConfigError):
            part.split(r.shard_id, r.lo, new_shard_id=5)  # degenerate left
        with pytest.raises(ConfigError):
            part.split(r.shard_id, r.hi, new_shard_id=5)  # degenerate right
        with pytest.raises(ConfigError):
            part.split(r.shard_id, (r.lo + r.hi) // 2, new_shard_id=r.shard_id)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            CurveRangePartitioner(0, bounds=BOUNDS)


# ---------------------------------------------------------------------------
# Space-filling-curve keys
# ---------------------------------------------------------------------------
class TestCurveKeys:
    def test_hilbert_index_is_a_bijection_on_the_grid(self):
        order = 4
        side = 1 << order
        keys = {hilbert_index(x, y, order) for x in range(side) for y in range(side)}
        assert keys == set(range(side * side))

    def test_hilbert_neighbors_are_adjacent_cells(self):
        # Consecutive curve positions differ by exactly one grid step.
        order = 4
        side = 1 << order
        by_key = {
            hilbert_index(x, y, order): (x, y)
            for x in range(side)
            for y in range(side)
        }
        for k in range(side * side - 1):
            x0, y0 = by_key[k]
            x1, y1 = by_key[k + 1]
            assert abs(x0 - x1) + abs(y0 - y1) == 1

    def test_curve_key_groups_nearby_rects(self):
        # Two well-separated clumps must not interleave along the curve.
        left = [Rect((i, i), (i + 1.0, i + 1.0)) for i in range(10)]
        right = [Rect((90_000.0 + i, 90_000.0), (90_001.0 + i, 90_001.0)) for i in range(10)]
        rects = left + right
        bounds = union_all(rects)
        order = sorted(range(20), key=lambda i: curve_key(rects[i], bounds))
        sides = ["L" if i < 10 else "R" for i in order]
        flips = sum(1 for a, b in zip(sides, sides[1:]) if a != b)
        assert flips == 1

    def test_morton_fallback_for_other_dims(self):
        cfg = IndexConfig(dims=3)
        rects = []
        import random

        rng = random.Random(5)
        for _ in range(20):
            lo = [rng.uniform(0, 100) for _ in range(3)]
            rects.append(Rect(tuple(lo), tuple(v + 1.0 for v in lo)))
        bounds = union_all(rects)
        keys = [curve_key(r, bounds) for r in rects]
        assert all(0 <= key < curve_keyspace(3) for key in keys)
        tree = RTree(cfg)
        for rect in rects:
            tree.insert(rect)
        check_index(tree)
        batched = batch_search(tree, rects)
        assert [{rid for rid, _ in hits} for hits in batched] == [
            tree.search_ids(r) for r in rects
        ]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_sheds_at_capacity_and_releases(self):
        adm = AdmissionController(max_in_flight=2, max_retries=0, backoff_s=0.0)
        assert adm.try_acquire(1) and adm.try_acquire(1)
        assert not adm.try_acquire(1)  # full -> shed
        adm.release(1)
        assert adm.try_acquire(1)
        snap = adm.snapshot()
        assert snap["shed"] == 1
        assert snap["per_shard"][1]["admitted"] == 3

    def test_acquire_overload_after_retry_budget(self):
        adm = AdmissionController(max_in_flight=1, max_retries=2, backoff_s=0.0)
        assert adm.acquire(7) == 0
        with pytest.raises(ShardOverloadError) as exc_info:
            adm.acquire(7)
        assert exc_info.value.shard_id == 7
        adm.release(7)
        assert adm.acquire(7) == 0  # slot freed, immediate admit

    def test_release_never_goes_negative(self):
        adm = AdmissionController(max_in_flight=1)
        adm.release(3)
        assert adm.in_flight(3) == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(ConfigError):
            AdmissionController(max_retries=-1)


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestWire:
    def test_hierarchy_errors_rebuild_as_themselves(self):
        reply = Reply(1, False, None, "ConfigError", "bad knob")
        with pytest.raises(ConfigError, match="bad knob"):
            raise_reply_error(reply, shard_id=0)

    def test_unknown_errors_wrap_in_shard_error(self):
        reply = Reply(1, False, None, "KeyError", "'x'")
        with pytest.raises(ShardError, match="shard 3: KeyError"):
            raise_reply_error(reply, shard_id=3)

    def test_worker_serializes_failures_into_replies(self):
        worker = ShardWorker(_spec())
        reply = worker.handle(Request("no-such-op", (), 1))
        assert not reply.ok
        assert reply.error_type == "ConfigError"
        reply = worker.handle(Request(wire.OP_CONFIGURE, (-1.0,), 2))
        assert not reply.ok and reply.error_type == "ConfigError"


# ---------------------------------------------------------------------------
# Worker rebalance ops
# ---------------------------------------------------------------------------
class TestWorkerRebalance:
    def _loaded(self, n: int = 10) -> ShardWorker:
        worker = ShardWorker(_spec())
        for i in range(n):
            x = 10.0 * i % 90.0
            worker.handle(
                Request(wire.OP_INSERT, (i, (x, x), (x + 1, x + 1), None), i)
            )
        return worker

    def test_suggest_split_needs_two_records(self):
        worker = ShardWorker(_spec())
        assert worker.handle(Request(wire.OP_SUGGEST_SPLIT, (), 1)).value is None
        worker.handle(Request(wire.OP_INSERT, (0, (1, 1), (2, 2), None), 2))
        assert worker.handle(Request(wire.OP_SUGGEST_SPLIT, (), 3)).value is None

    def test_suggest_split_identical_keys_returns_none(self):
        worker = ShardWorker(_spec())
        for i in range(4):
            worker.handle(Request(wire.OP_INSERT, (i, (5, 5), (6, 6), None), i))
        assert worker.handle(Request(wire.OP_SUGGEST_SPLIT, (), 9)).value is None

    def test_extract_ingest_roundtrip(self):
        worker = self._loaded(10)
        split_key = worker.handle(Request(wire.OP_SUGGEST_SPLIT, (), 100)).value
        assert split_key is not None
        moved = worker.handle(Request(wire.OP_EXTRACT, (split_key,), 101)).value
        assert moved  # something crossed
        remaining = worker.handle(Request(wire.OP_COUNT, (), 102)).value
        assert remaining + len(moved) == 10
        # Every extracted record's key is at/above the split; every
        # survivor's below.
        for _rid, lows, highs, _payload in moved:
            key = curve_key(Rect(tuple(lows), tuple(highs)), BOUNDS, CURVE_ORDER)
            assert key >= split_key
        other = ShardWorker(_spec(1))
        assert other.handle(Request(wire.OP_INGEST, (moved,), 1)).value == len(moved)
        assert other.handle(Request(wire.OP_COUNT, (), 2)).value == len(moved)
        # rids stay global across the move.
        rid = moved[0][0]
        hits = other.handle(
            Request(wire.OP_SEARCH, ((0.0, 0.0), (100.0, 100.0)), 3)
        ).value
        assert rid in {got_rid for got_rid, _ in hits}


    def test_failed_delete_keeps_the_record(self, monkeypatch):
        """The worker forgets a record only once the tree has let go of it:
        an engine delete that raises leaves the record searchable, counted
        and deletable on retry."""
        worker = self._loaded(3)
        everything = Request(wire.OP_SEARCH, ((0.0, 0.0), (100.0, 100.0)), 0)
        delete = worker.engine.delete
        calls = []

        def flaky(record_id, hint=None):
            calls.append(record_id)
            if len(calls) == 1:
                raise StorageError("pin wait timed out")
            return delete(record_id, hint)

        monkeypatch.setattr(worker.engine, "delete", flaky)
        reply = worker.handle(Request(wire.OP_DELETE, (1,), 1))
        assert (reply.ok, reply.error_type) == (False, "StorageError")
        assert {rid for rid, _ in worker.handle(everything).value} == {0, 1, 2}
        assert worker.handle(Request(wire.OP_COUNT, (), 2)).value == 3
        assert worker.handle(Request(wire.OP_DELETE, (1,), 3)).value == 1
        assert {rid for rid, _ in worker.handle(everything).value} == {0, 2}
        assert worker.handle(Request(wire.OP_COUNT, (), 4)).value == 2
        assert worker.handle(Request(wire.OP_DELETE, (1,), 5)).value == 0


# ---------------------------------------------------------------------------
# Transports: timeouts and stale replies
# ---------------------------------------------------------------------------
class TestTransportTimeouts:
    def test_process_client_discards_stale_reply_after_timeout(self):
        client = ProcessShardClient(_spec())
        try:
            assert client.call(wire.OP_PING, (), timeout=10.0) == "pong"
            client.call(wire.OP_CONFIGURE, (0.4,), timeout=10.0)
            with pytest.raises(ShardTimeoutError) as exc_info:
                client.call(wire.OP_PING, (), timeout=0.05)
            assert exc_info.value.shard_ids == (client.shard_id,)
            client.call(wire.OP_CONFIGURE, (0.0,), timeout=10.0)
            # The next call must see its own reply, not the stale pong.
            assert client.call(wire.OP_COUNT, (), timeout=10.0) == 0
        finally:
            client.close()

    def test_local_client_runs_inline(self):
        client = LocalShardClient(_spec())
        try:
            assert client.call(wire.OP_PING) == "pong"
        finally:
            client.close()


# ---------------------------------------------------------------------------
# Router behavior
# ---------------------------------------------------------------------------
class TestRouter:
    def _router(self, **kw):
        kw.setdefault("transport", "local")
        return build_router(4, bounds=BOUNDS, **kw)

    def test_gather_timeout_is_typed_never_partial(self):
        router = build_router(
            2, bounds=BOUNDS, transport="process", timeout_s=0.05
        )
        try:
            # Spread records so both shards hold data.
            for x in (1.0, 30.0, 60.0, 95.0):
                router.insert(Rect((x, x), (x + 1.0, x + 1.0)))
            router.timeout_s = 10.0
            slow = router.shard_ids[0]
            router._clients[slow].call(wire.OP_CONFIGURE, (0.5,))
            router.timeout_s = 0.05
            with pytest.raises(ShardTimeoutError) as exc_info:
                router.search(BOUNDS)
            assert slow in exc_info.value.shard_ids
        finally:
            router.timeout_s = 10.0
            router._clients[slow].call(wire.OP_CONFIGURE, (0.0,))
            router.close()

    def test_timed_out_insert_stays_owned_and_findable(self):
        """The worker applies an insert whose reply came too late: every
        search, ``len`` and ``delete`` must agree that the record exists."""
        router = build_router(
            2, bounds=BOUNDS, transport="process", timeout_s=10.0
        )
        try:
            rect = Rect((10.0, 10.0), (11.0, 11.0))
            router.insert(Rect((60.0, 60.0), (61.0, 61.0)))
            router.configure_workers(delay_s=0.2)
            router.timeout_s = 0.05
            with pytest.raises(ShardTimeoutError):
                router.insert(rect)
            router.timeout_s = 10.0
            router.configure_workers(delay_s=0.0)
            rid = 2  # ids follow insertion order
            assert router.search_ids(BOUNDS) == {1, rid}
            assert router.search_ids(rect) == {rid}  # not pruned by stale bounds
            workers = sum(stats["records"] for stats in router.shard_stats().values())
            assert len(router) == workers == 2
            assert router.delete(rid) == 1
            assert len(router) == 1
        finally:
            router.close()

    def test_shed_insert_is_withdrawn(self):
        router = self._router(
            admission=AdmissionController(max_in_flight=1, max_retries=0, backoff_s=0.0)
        )
        try:
            rect = Rect((10.0, 10.0), (11.0, 11.0))
            sid = router._partitioner.shard_for_rect(rect)
            router.admission.acquire(sid)  # wedge the only slot
            with pytest.raises(ShardOverloadError):
                router.insert(rect)
            router.admission.release(sid)
            assert len(router) == 0 and router.delete(1) == 0
        finally:
            router.close()

    def test_scatter_prunes_by_bounds(self):
        sink = RingBufferSink(capacity=256)
        router = self._router(tracer=Tracer(sink))
        try:
            router.insert(Rect((1.0, 1.0), (2.0, 2.0)), "low")
            router.insert(Rect((90.0, 90.0), (91.0, 91.0)), "high")
            hits = router.search(Rect((0.0, 0.0), (5.0, 5.0)))
            assert [p for _, p in hits] == ["low"]
            dispatches = [
                e for e in sink.events if e.etype == "shard_dispatch"
            ]
            last = dispatches[-1].fields
            assert last["shards"] == 1  # 1 of 4 shards consulted
            assert last["pruned"] == 3
        finally:
            router.close()

    def test_stab_and_containing_prune_sharper(self):
        router = self._router()
        try:
            router.insert(Rect((10.0, 10.0), (20.0, 20.0)), "a")
            assert router.stab(15.0, 15.0) == [(1, "a")]
            assert router.stab(50.0, 50.0) == []
            assert router.search_containing(Rect((12.0, 12.0), (13.0, 13.0))) == [
                (1, "a")
            ]
            assert router.search_within(Rect((0.0, 0.0), (50.0, 50.0))) == [(1, "a")]
        finally:
            router.close()

    def test_batch_search_scatters_per_shard_plans(self):
        router = self._router()
        try:
            router.insert(Rect((1.0, 1.0), (2.0, 2.0)), "low")
            router.insert(Rect((90.0, 90.0), (91.0, 91.0)), "high")
            out = router.batch_search(
                [
                    Rect((0.0, 0.0), (5.0, 5.0)),
                    Rect((85.0, 85.0), (95.0, 95.0)),
                    Rect((40.0, 40.0), (45.0, 45.0)),
                ]
            )
            assert [p for _, p in out[0]] == ["low"]
            assert [p for _, p in out[1]] == ["high"]
            assert out[2] == []
        finally:
            router.close()

    def test_admission_overload_surfaces(self):
        router = self._router(
            admission=AdmissionController(
                max_in_flight=1, max_retries=0, backoff_s=0.0
            )
        )
        try:
            sid = router.shard_ids[0]
            router.admission.acquire(sid)  # wedge the only slot
            router._partitioner  # noqa: B018 — touch to keep mypy quiet
            with pytest.raises(ShardOverloadError):
                router._shard_call(sid, wire.OP_PING, ())
        finally:
            router.close()

    def test_split_requires_spawn_hook(self):
        part = CurveRangePartitioner(1, bounds=BOUNDS)
        client = LocalShardClient(_spec(part.shard_ids[0]))
        router = ShardRouter({part.shard_ids[0]: client}, part)
        try:
            with pytest.raises(ConfigError):
                router.split_shard(part.shard_ids[0])
        finally:
            router.close()

    def test_split_unsplittable_returns_none(self):
        router = self._router()
        try:
            assert router.split_shard(router.shard_ids[0]) is None
        finally:
            router.close()

    def test_delete_unknown_rid_returns_zero(self):
        router = self._router()
        try:
            assert router.delete(12345) == 0
        finally:
            router.close()

    def test_mismatched_clients_rejected(self):
        part = CurveRangePartitioner(2, bounds=BOUNDS)
        client = LocalShardClient(_spec(0))
        with pytest.raises(ConfigError):
            ShardRouter({0: client}, part)
        client.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError):
            build_router(2, bounds=BOUNDS, transport="carrier-pigeon")

    def test_stats(self):
        router = self._router()
        try:
            router.insert(Rect((1.0, 1.0), (2.0, 2.0)))
            router.search(BOUNDS)
            stats = router.stats()
            assert stats["records"] == 1
            assert stats["shards"] == 4
            assert stats["admission"]["admitted"] >= 2
        finally:
            router.close()


def _proc_stat(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` after the command name: state, ppid, ..."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if int(_proc_stat(int(entry.name))[1]) == pid:
                    found.append(int(entry.name))
            except OSError:
                continue  # exited while we were looking
    return found


def _running(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie awaiting its reaper has)."""
    try:
        return _proc_stat(pid)[0] != "Z"
    except OSError:
        return False


_ROUTER_SCRIPT = """
import time
from repro.core.geometry import Rect
from repro.sharding import build_router
router = build_router(2, bounds=Rect((0.0, 0.0), (100.0, 100.0)), transport="process")
print("ready", flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestWorkersDieWithTheirRouter:
    """A forked worker inherits the router's end of its own pipe (and of
    every earlier shard's); unless it closes them it never sees EOF, and
    outlives a router that was killed rather than closed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["-c", _ROUTER_SCRIPT],
            ["-m", "repro", "serve", "--shards", "2", "--transport", "process"],
        ],
        ids=["build_router", "repro-serve"],
    )
    def test_sigkilled_router_leaves_no_workers(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        router = subprocess.Popen(
            [sys.executable, "-u", *argv],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            text=True,
        )
        workers: list[int] = []
        try:
            assert router.stdout.readline()  # printed once the workers are forked
            workers = _children(router.pid)
            assert len(workers) == 2
            router.send_signal(signal.SIGKILL)
            router.wait()
            deadline = time.monotonic() + 5.0
            alive = workers
            while alive and time.monotonic() < deadline:
                time.sleep(0.05)
                alive = [pid for pid in alive if _running(pid)]
            assert not alive, f"workers {alive} outlived their router"
        finally:
            router.kill()
            router.wait()
            router.stdout.close()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


# ---------------------------------------------------------------------------
# Service facade
# ---------------------------------------------------------------------------
class TestService:
    def test_frames_round_trip(self):
        import json

        router = build_router(2, bounds=BOUNDS, transport="local")
        service = ShardedService(router)

        async def drive():
            ins = await service.handle_frame(
                {"op": "insert", "lows": [1, 1], "highs": [2, 2], "payload": "a"}
            )
            assert ins == {"ok": True, "value": 1}
            hit = await service.handle_frame(
                {"op": "search", "lows": [0, 0], "highs": [5, 5]}
            )
            assert hit == {"ok": True, "value": [(1, "a")]}
            stats = await service.handle_frame({"op": "stats"})
            assert stats["ok"] and stats["value"]["records"] == 1
            bad = await service.handle_frame({"op": "warp"})
            assert not bad["ok"] and bad["error_type"] == "ConfigError"
            missing = await service.handle_frame({"op": "search", "lows": [0, 0]})
            assert not missing["ok"] and missing["error_type"] == "KeyError"
            # json.loads, as the server reads a line, accepts NaN
            for line in (
                '{"op": "insert", "lows": [NaN, 10], "highs": [20, 10]}',
                '{"op": "search", "lows": [0, 0], "highs": [5, NaN]}',
                '{"op": "stab", "coords": [NaN, 1]}',
            ):
                nan = await service.handle_frame(json.loads(line))
                assert not nan["ok"] and nan["error_type"] == "GeometryError", line
            stats = await service.handle_frame({"op": "stats"})
            assert stats["value"]["records"] == 1

        try:
            asyncio.run(drive())
        finally:
            router.close()

    def test_tcp_server_serves_json_lines(self):
        router = build_router(2, bounds=BOUNDS, transport="local")

        async def drive(port):
            import json

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                json.dumps({"op": "insert", "lows": [1, 1], "highs": [2, 2]}).encode()
                + b"\n"
            )
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply == {"ok": True, "value": 1}
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            assert json.loads(await reader.readline())["value"] == "pong"
            writer.close()

        try:
            asyncio.run(_tcp_service(router, drive))
        finally:
            router.close()


# ---------------------------------------------------------------------------
# The served request path: loop-owned pipes, awaited plans, inline workers
# ---------------------------------------------------------------------------
def _frame(op: str, rect: Rect, **extra) -> dict:
    return {"op": op, "lows": list(rect.lows), "highs": list(rect.highs), **extra}


def _spread(n: int) -> list[Rect]:
    """``n`` small boxes walking the diagonal: both shards get some."""
    return [
        Rect((x, x), (x + 1.0, x + 1.0))
        for x in (1.0 + 97.0 * i / max(n - 1, 1) for i in range(n))
    ]


class TestServedPath:
    """``ShardedService`` over process shards whose pipes the loop reads."""

    def _serve(self, drive, **kw):
        """Run ``drive(service, router)`` on one loop, then close the router."""
        router = build_router(2, bounds=BOUNDS, transport="process", **kw)
        try:
            return asyncio.run(drive(ShardedService(router), router))
        finally:
            router.close()

    def test_timeout_frame_then_the_next_frame_gets_its_own_answer(self):
        async def drive(service, router):
            for rect in _spread(8):
                assert (await service.handle_frame(_frame("insert", rect)))["ok"]
            slow = router._clients[router.shard_ids[0]]
            await asyncio.wrap_future(slow.submit(wire.OP_CONFIGURE, (0.4,)))
            late = await service.handle_frame(_frame("search", BOUNDS))
            assert (late["ok"], late["error_type"]) == (False, "ShardTimeoutError")
            # Turning the delay off is itself delayed; by the time it is
            # answered the stale search reply has come and been dropped.
            await asyncio.wrap_future(slow.submit(wire.OP_CONFIGURE, (0.0,)))
            one = await service.handle_frame(_frame("search", _spread(8)[0]))
            assert one == {"ok": True, "value": [(1, None)]}
            everything = await service.handle_frame(_frame("search", BOUNDS))
            assert [rid for rid, _ in everything["value"]] == list(range(1, 9))

        self._serve(drive, timeout_s=0.1)

    def test_killed_worker_fails_every_read_in_flight_then_fails_fast(self):
        async def drive(service, router):
            for rect in _spread(8):
                assert (await service.handle_frame(_frame("insert", rect)))["ok"]
            victim = router._clients[router.shard_ids[1]]
            await asyncio.wrap_future(victim.submit(wire.OP_CONFIGURE, (0.5,)))
            reads = [
                asyncio.ensure_future(service.handle_frame(_frame("search", BOUNDS)))
                for _ in range(6)
            ]
            await asyncio.sleep(0.1)  # all six are out, the victim asleep on them
            os.kill(victim._proc.pid, signal.SIGKILL)
            replies = await asyncio.wait_for(asyncio.gather(*reads), timeout=5.0)
            assert [(r["ok"], r["error_type"]) for r in replies] == [(False, "ShardError")] * 6
            started = time.monotonic()
            after = await service.handle_frame(_frame("search", BOUNDS))
            assert (after["ok"], after["error_type"]) == (False, "ShardError")
            assert time.monotonic() - started < 1.0
            # The shard that is still there still answers for itself.
            mine = await service.handle_frame(_frame("search", _spread(8)[0]))
            assert mine == {"ok": True, "value": [(1, None)]}

        self._serve(drive, timeout_s=5.0)

    def test_split_beside_two_readers_and_a_writer_loses_nothing(self):
        from repro.core.rtree import RTree

        reference = RTree()
        acked: dict[int, Rect] = {}

        async def drive(service, router):
            for rect in _spread(60):
                rid = (await service.handle_frame(_frame("insert", rect)))["value"]
                acked[rid] = rect
            done = asyncio.Event()

            async def reader():
                reads = 0
                while not done.is_set() or reads < 20:
                    before = set(acked)
                    reply = await service.handle_frame(_frame("search", BOUNDS))
                    assert reply["ok"], reply
                    ids = [rid for rid, _ in reply["value"]]
                    assert ids == sorted(set(ids)), "a record was reported twice"
                    assert before <= set(ids), "an acknowledged record went missing"
                    reads += 1
                return reads

            async def writer():
                for i in range(120):
                    x = 2.0 + 95.0 * ((i * 37) % 120) / 120.0
                    rect = Rect((x, 99.0 - x), (x + 0.5, 99.5 - x))
                    rid = (await service.handle_frame(_frame("insert", rect)))["value"]
                    acked[rid] = rect
                done.set()

            async def splitter():
                await asyncio.sleep(0.01)
                stats = (await service.handle_frame({"op": "stats"}))["value"]
                per_shard = stats["records_per_shard"]
                reply = await service.handle_frame(
                    {"op": "split", "shard_id": max(per_shard, key=per_shard.get)}
                )
                assert reply["ok"] and reply["value"] is not None, reply

            await asyncio.gather(reader(), reader(), writer(), splitter())
            stats = (await service.handle_frame({"op": "stats"}))["value"]
            assert stats["shards"] == 3 and stats["rebalances"] == 1
            # The shard split off is pumped by the loop too: no receiver thread.
            assert all(client._receiver is None for client in router._clients.values())
            assert stats["records"] == sum(stats["records_per_shard"].values()) == len(acked)
            for rid in sorted(acked):  # the router's ids are a single tree's
                assert reference.insert(acked[rid]) == rid
            for q in [BOUNDS, *_spread(9)]:
                reply = await service.handle_frame(_frame("search", q))
                assert [rid for rid, _ in reply["value"]] == sorted(reference.search_ids(q))

        self._serve(drive)

    def test_stats_beside_a_writer(self):
        """``stats`` iterates nothing a writer grows (it used to walk the
        rid map: ``dictionary changed size during iteration``)."""
        router = build_router(2, bounds=BOUNDS, transport="local")
        rects = _spread(20_000)
        stop = threading.Event()

        def write():
            while not stop.is_set():
                for rect in rects[:2_000]:
                    router.insert(rect)

        try:
            for rect in rects:
                router.insert(rect)
            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            try:
                for _ in range(60):
                    stats = router.stats()
                    assert stats["records"] >= 20_000
            finally:
                stop.set()
                writer.join()
            stats = router.stats()
            assert sum(stats["records_per_shard"].values()) == stats["records"] == len(router)
        finally:
            router.close()


async def _tcp_service(router, drive):
    """``serve(router)`` on a free port; ``drive(port)`` beside it."""
    from repro.sharding import service as service_module

    bound: dict = {}
    orig_start = asyncio.start_server

    async def capture(*args, **kw):
        server = await orig_start(*args, **kw)
        bound["port"] = server.sockets[0].getsockname()[1]
        return server

    ready = asyncio.Event()
    asyncio.start_server = capture
    try:
        task = asyncio.create_task(service_module.serve(router, port=0, ready=ready))
        await asyncio.wait_for(ready.wait(), timeout=10)
    finally:
        asyncio.start_server = orig_start
    try:
        return await drive(bound["port"])
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


class TestMalformedFrames:
    """A peer that is not speaking the protocol is hung up on — told why
    when it nearly was — and never a traceback."""

    def _drive(self, payload: bytes, caplog):
        import json
        import logging

        router = build_router(2, bounds=BOUNDS, transport="local")

        async def drive(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(payload)
            await writer.drain()
            lines = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                if not line:
                    break
                lines.append(json.loads(line))
            writer.close()
            # A well-behaved peer is still served afterwards.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            assert json.loads(await reader.readline()) == {"ok": True, "value": "pong"}
            writer.close()
            return lines

        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                lines = asyncio.run(_tcp_service(router, drive))
            assert not caplog.records, [r.getMessage() for r in caplog.records]
            return lines
        finally:
            router.close()

    def test_undecodable_bytes_are_hung_up_on_quietly(self, caplog):
        assert self._drive(b"\xff\xfe\n", caplog) == []

    def test_an_over_long_line_is_told_the_limit(self, caplog):
        import json

        frame = _frame("insert", Rect((1.0, 1.0), (2.0, 2.0)), payload="x" * 70_000)
        (reply,) = self._drive(json.dumps(frame).encode() + b"\n", caplog)
        assert (reply["ok"], reply["error_type"]) == (False, "ConfigError")
        assert "65536" in reply["error"]


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc")
def test_a_served_read_needs_one_thread_a_process():
    """The census that says why a served read got cheaper: after 1,000
    reads over TCP the server is one thread — no ``gather`` pool, no
    ``shard-N-recv`` thread, no default executor — and so is each worker
    that cannot block."""
    import json
    import socket

    src = str(Path(__file__).resolve().parents[1] / "src")
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--shards", "2", "--port", "0"],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
    )
    try:
        port = int(server.stdout.readline().rsplit(":", 1)[1])
        workers = _children(server.pid)
        with socket.create_connection(("127.0.0.1", port)) as sock:
            lines = sock.makefile("rwb")

            def ask(frame):
                lines.write(json.dumps(frame).encode() + b"\n")
                lines.flush()
                reply = json.loads(lines.readline())
                assert reply["ok"], reply
                return reply["value"]

            domain = Rect((0.0, 0.0), (100_000.0, 100_000.0))
            for i in range(50):
                x = 1_000.0 + 1_900.0 * i
                ask(_frame("insert", Rect((x, x), (x + 500.0, x + 500.0))))
            for i in range(1_000):
                assert len(ask(_frame("search", domain))) == 50
        threads = {pid: len(os.listdir(f"/proc/{pid}/task")) for pid in (server.pid, *workers)}
        assert len(workers) == 2 and set(threads.values()) == {1}, threads
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def test_sigint_with_an_idle_connection_exits_cleanly():
    """^C while a client holds an idle connection: the server hangs up on
    it and exits 0, with no asyncio traceback on stderr."""
    import socket

    src = str(Path(__file__).resolve().parents[1] / "src")
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--shards", "1",
         "--transport", "local", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
    )
    try:
        port = int(server.stdout.readline().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port)) as sock:
            lines = sock.makefile("rwb")
            lines.write(b'{"op": "ping"}\n')
            lines.flush()
            assert lines.readline() == b'{"ok": true, "value": "pong"}\n'
            server.send_signal(signal.SIGINT)
            _, stderr = server.communicate(timeout=20)
            assert lines.readline() == b""  # hung up on
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, stderr
    assert "Traceback" not in stderr, stderr
