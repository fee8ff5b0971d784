"""The traced run: per-layer metrics for each workload, measured from outside.

``--trace 1`` does not repeat the end-to-end phases.  It rebuilds the
workload's stack one level at a time — bare tree, then each wrapper the
workload puts around it — and times the *same* queries at every level
(``spans.Ladder``), so a layer's self time is its level minus the level
inside.  Writes are laddered the same way (median latency of
``Scale.trace_writes`` inserts at each level).  Counts come from the public
``stats`` / ``io_summary`` / ``contention_snapshot`` / ``router.stats``
surfaces after a fixed sequence of operations, so with one client they repeat
exactly.  A layer the workload's path does not cross reports 0.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro import (
    ConcurrentIndex,
    DistributionPredictor,
    Rect,
    RingBufferSink,
    RTree,
    Tracer,
    batch_search,
    NULL_TRACER,
)
from repro.sharding import ShardSpec, ShardWorker, build_router, wire
from repro.storage import (
    BufferPool,
    FileDisk,
    deserialize_node,
    recover_tree,
    replay_wal,
    serialize_node,
    wal_directory_for,
)
from repro.workloads import DOMAIN

from .inputs import Op, dataset, fresh_records, poisson_arrivals, q_mix, qar_ops, write_share
from .measure import (
    WAIT_S,
    Call,
    PacedWriter,
    Scaled,
    Tally,
    median,
    percentile,
    run_calls,
    settle,
)
from .oracle import Oracle
from .spans import PASSES, Ladder, timed_pass
from .spec import (
    CHURN_RATE,
    FIT_BYTES,
    OPEN_P99_LIMIT_US,
    OPEN_RATES,
    Scale,
    load_spec,
)
from .stacks import EngineStack, Server, TcpClient, WorkDir
from .workloads import (
    EVERYTHING,
    TREE_KINDS,
    Outcome,
    bind,
    check_contents,
    check_replies,
    ids_of,
    preload,
)

_now = time.perf_counter_ns


def zeros() -> dict[str, float]:
    """Every per-layer name at 0: what a workload reports for a bypassed layer."""
    return {metric["name"]: 0.0 for metric in load_spec()["per_layer"]}


def median_us(calls: Sequence[Call], tally: Tally) -> tuple[float, list[Any]]:
    """Median latency (us, at reference speed) of one closed-loop pass, and
    the replies."""
    latencies: list[int] = []
    replies: list[Any] = []
    with Scaled() as scaled:
        run_calls(calls, tally, latencies, replies)
    return scaled.factor * median(latencies) / 1e3, replies


def timed_us(work: Callable[[], Any], per: int = 1) -> float:
    """Time of ``work()`` at reference speed, in us per ``per`` items."""
    with Scaled() as scaled:
        start = _now()
        work()
        took = _now() - start
    return scaled.factor * took / per / 1e3


def write_level(
    insert: Callable[..., Any], delete: Callable[..., Any], rects: Sequence[Rect], tally: Tally
) -> tuple[float, float]:
    """Median insert and delete latency (us) at one stack level; the records
    inserted are the ones deleted, so the level leaves the index as it found it."""
    settle()
    insert_us, ids = median_us([(insert, (rect,)) for rect in rects], tally)
    pairs = [(rid, rect) for rid, rect in zip(ids, rects) if rid is not None]
    delete_us, _ = median_us([(delete, pair) for pair in pairs], tally)
    return insert_us, delete_us


def take(fresh: Iterator[Rect], count: int) -> list[Rect]:
    return [next(fresh) for _ in range(count)]


# ---------------------------------------------------------------------------
# core, histogram, obs: measured on every workload's bare tree
# ---------------------------------------------------------------------------
def core_metrics(
    tree: RTree, records: Sequence[Rect], ops: Sequence[Op], seed: int,
    fresh: Iterator[Rect], scale: Scale, tally: Tally,
) -> dict[str, float]:
    settle()
    rects = [args[0] for kind, args in ops if kind == "search"]
    pairs = list(zip(records, rects * (len(records) // len(rects) + 1)))[:4000]
    intersects_ns = 1e3 * timed_us(lambda: [a.intersects(b) for a, b in pairs], len(pairs))

    stabs = [op for op in q_mix(4 * 128, records, seed) if op[0] == "stab"]
    stab_us, _ = median_us(bind(tree, stabs), tally)

    batch = rects[:256]
    tally.attempt(len(batch))
    batch_us = timed_us(lambda: batch_search(tree, batch), len(batch))

    # The repo's own tracer switched on, against the default no-op tracer.
    calls = bind(tree, ops)
    plain, traced = [], []
    for _ in range(3):
        plain.append(sum(e - s for s, e in timed_pass(calls, tally)))
        tree.tracer = Tracer(RingBufferSink())
        try:
            traced.append(sum(e - s for s, e in timed_pass(calls, tally)))
        finally:
            tree.tracer = NULL_TRACER

    insert_us, delete_us = write_level(
        tree.insert, tree.delete, take(fresh, scale.trace_writes), tally
    )
    return {
        "core.geometry.intersects_ns": intersects_ns,
        "core.stab_us": stab_us,
        "core.batch_search_us": batch_us,
        "core.insert_us": insert_us,
        "core.delete_us": delete_us,
        "core.nodes": float(tree.node_count()),
        "core.height": float(tree.height),
        "obs.tracer_on_overhead_pct": 100.0 * (median(traced) - median(plain)) / median(plain),
    }


def trace_overhead_pct(calls: Sequence[Call], tally: Tally) -> float:
    """This benchmark's span recording against its untraced loop, same calls."""
    settle()
    plain, traced = [], []
    for _ in range(3):
        plain.append(run_calls(calls, tally, []))
        start = _now()
        timed_pass(calls, tally)
        traced.append(_now() - start)
    return 100.0 * (median(traced) - median(plain)) / median(plain)


def finish(
    workload: str, ladder: Ladder, metrics: dict[str, float], tally: Tally,
    out: "Path | None", detail: dict,
) -> Outcome:
    """Print the waterfall, write the spans, and fill in bypassed layers."""
    print(f"{workload}: cumulative waterfall (mean of the median pass of {PASSES})")
    print(ladder.table())
    directory = out if out is not None else Path.cwd() / ".perf_out"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.spans.jsonl"
    print(f"{ladder.write(path)} spans written to {path}")
    detail["waterfall"] = [
        {"level": level.name, "layer": level.layer, "mean_us": level.mean_us,
         "self_us": own, "pass_means_us": level.pass_means_us}
        for level, own in ladder.self_times()
    ]
    detail["negative_self_time"] = ladder.negative()
    return Outcome({**zeros(), **metrics}, tally, detail)


# ---------------------------------------------------------------------------
# index_qar
# ---------------------------------------------------------------------------
def trace_index_qar(seed: int, scale: Scale, work: WorkDir, out: "Path | None") -> Outcome:
    tally = Tally()
    n = scale.qar_records
    records = dataset(n, seed)
    ops = qar_ops(scale.qar_queries, seed)
    oracle = Oracle(capacity=n)
    oracle.add_all(records)
    expected = [oracle.answer(op) for op in ops]
    fresh = fresh_records(n, seed)
    metrics: dict[str, float] = {}

    trees: dict[str, RTree] = {}
    for kind, make in TREE_KINDS.items():
        tree = trees[kind] = make(n)
        for i, rect in enumerate(records):
            tree.insert(rect, i)
        if hasattr(tree, "flush"):
            tree.flush()
        tree.stats.reset_search_counters()
        replies: list[Any] = []
        run_calls(bind(tree, ops), tally, [], replies)
        check_replies(expected, replies, tally)
        metrics[f"core.nodes_per_search.{kind}"] = tree.stats.avg_nodes_per_search

    # The skeleton's distribution prediction from the first 5 % of the input.
    predictor = DistributionPredictor(2, n, 0.05, list(DOMAIN))
    for i, rect in enumerate(records[: predictor.buffer_target]):
        predictor.add(rect, i + 1, None)
    metrics["histogram.predict_ms"] = timed_us(predictor.histograms) / 1e3

    sr = trees["SR"]
    ladder = Ladder()
    metrics["core.search_us"] = ladder.measure("bare SRTree.search", "core", bind(sr, ops), tally).mean_us
    metrics.update(core_metrics(sr, records, ops, seed, fresh, scale, tally))
    metrics["bench.trace_overhead_pct"] = trace_overhead_pct(bind(sr, ops), tally)
    return finish("index_qar", ladder, metrics, tally, out, {})


# ---------------------------------------------------------------------------
# engine_fit, engine_spill, engine_mvcc
# ---------------------------------------------------------------------------
def storage_counts(stack: EngineStack, records: int) -> dict[str, float]:
    io = stack.manager.io_summary()
    disk = stack.disk.stats.snapshot()
    wal = io["wal"]
    return {
        "storage.pool_hits": float(io["buffer_hits"]),
        "storage.pool_misses": float(io["buffer_misses"]),
        "storage.hit_rate": io["hit_ratio"],
        "storage.pool_evictions": float(io["evictions"]),
        "storage.disk_reads": float(disk["reads"]),
        "storage.disk_writes": float(disk["writes"]),
        "storage.disk_bytes_read": float(disk["bytes_read"]),
        "storage.disk_bytes_written": float(disk["bytes_written"]),
        "storage.wal.fsyncs": float(wal["fsyncs"]),
        "storage.wal.commits_per_fsync": wal["commits_per_fsync"],
        "storage.wal.bytes_per_commit": wal["bytes_appended"] / max(1, wal["appends"]),
        # 40 B = one 2-D record: four float64 bounds and an int64 id.
        "storage.space_amp": io["allocated_bytes"] / (40.0 * records),
    }


def page_costs(stack: EngineStack, tree: RTree, buffer_bytes: int) -> dict[str, float]:
    """The miss path and the serializer, timed through their public functions."""
    settle()
    page_ids = stack.disk.page_ids()
    cold = BufferPool(stack.disk, buffer_bytes)  # has seen nothing: every fetch reads the disk
    miss_us = timed_us(lambda: [cold.touch(page_id) for page_id in page_ids], len(page_ids))

    nodes = list(tree.iter_nodes())
    page_of = {node.node_id: i + 1 for i, node in enumerate(nodes)}
    images: list[bytes] = []
    encode_us = timed_us(
        lambda: images.extend(
            serialize_node(node, tree.config.node_bytes(node.level), page_of) for node in nodes
        ),
        len(nodes),
    )
    decode_us = timed_us(lambda: [deserialize_node(data) for data in images], len(images))
    return {
        "storage.miss_us": miss_us,
        "storage.serializer.decode_us": decode_us,
        "storage.serializer.encode_us": encode_us,
    }


def trace_engine(
    seed: int, scale: Scale, work: WorkDir, out: "Path | None",
    *, workload: str, spill: bool = False, mvcc: bool = False,
) -> Outcome:
    tally = Tally()
    n = scale.engine_records
    buffer_bytes = scale.engine_spill_bytes if spill else FIT_BYTES
    records = dataset(n, seed)
    ops = q_mix(scale.engine_q, records, seed)
    oracle = Oracle(capacity=2 * n)
    oracle.add_all(records)
    expected = [oracle.answer(op) for op in ops]
    fresh = fresh_records(n, seed)
    writes = scale.trace_writes
    tree = preload(records)
    metrics: dict[str, float] = {}
    detail: dict = {}

    # Level 0: the bare tree.  Its checked pass carries the paper's metric.
    tree.stats.reset_search_counters()
    replies: list[Any] = []
    run_calls(bind(tree, ops), tally, [], replies)
    check_replies(expected, replies, tally)
    metrics["core.nodes_per_search.SR"] = tree.stats.avg_nodes_per_search
    ladder = Ladder()
    bare = ladder.measure("bare SRTree.search", "core", bind(tree, ops), tally)
    metrics["core.search_us"] = bare.mean_us
    metrics.update(core_metrics(tree, records, ops, seed, fresh, scale, tally))

    if mvcc:
        # A snapshot reads page images, not the live tree: its ladder starts anew.
        ladder = Ladder()
    else:
        latched = ConcurrentIndex(tree)
        level = ladder.measure("+ ConcurrentIndex (latched)", "concurrency", bind(latched, ops), tally)
        latched.detach()
        metrics["concurrency.latched_self_us"] = level.mean_us - bare.mean_us

    # Writes, laddered: engine + pool without a log, with it, then (MVCC) publishing.
    plain = EngineStack(tree, work.store(), buffer_bytes, wal=False)
    plain_insert_us, _ = write_level(plain.engine.insert, plain.engine.delete, take(fresh, writes), tally)
    plain.close()
    logged_insert_us = 0.0
    if mvcc:
        logged = EngineStack(tree, work.store(), buffer_bytes)
        logged_insert_us, _ = write_level(
            logged.engine.insert, logged.engine.delete, take(fresh, writes), tally
        )
        logged.close()

    stack = EngineStack(tree, work.store(), buffer_bytes, mvcc=mvcc)  # the workload's own
    engine = stack.engine
    try:
        if mvcc:
            snapshot = engine.open_snapshot()
            held = ladder.measure("Snapshot.search (held)", "concurrency", bind(snapshot, ops), tally)
            snapshot.close()
            per_read = ladder.measure("engine.search (per-read snap)", "concurrency", bind(engine, ops), tally)
            metrics["concurrency.mvcc.snapshot_search_us"] = held.mean_us
            metrics["concurrency.mvcc.snapshot_open_us"] = per_read.mean_us - held.mean_us
        else:
            inner = ladder.levels[-1].mean_us
            level = ladder.measure("+ StorageManager + WAL", "storage", bind(engine, ops), tally)
            metrics["storage.hook_self_us"] = level.mean_us - inner
        metrics["storage.checkpoint_ms"] = timed_us(stack.manager.checkpoint) / 1e3
        own_insert_us, _ = write_level(engine.insert, engine.delete, take(fresh, writes), tally)
        if mvcc:
            metrics["storage.wal.commit_self_us"] = logged_insert_us - plain_insert_us
            metrics["concurrency.mvcc.publish_self_us"] = own_insert_us - logged_insert_us
        else:
            metrics["storage.wal.commit_self_us"] = own_insert_us - plain_insert_us
        metrics.update(storage_counts(stack, len(tree)))
        metrics.update(page_costs(stack, tree, buffer_bytes))

        # Reads beside the paced writer: the only phase whose counts may vary.
        acked: list[tuple[int, Rect]] = []
        if not spill:
            writer = PacedWriter(engine.insert, fresh, CHURN_RATE, tally, acked)
            writer.start()
            try:
                run_calls(bind(engine, ops), tally, [])
            finally:
                writer.finish()
            for record_id, rect in acked:
                oracle.add(record_id, rect)
        contention = engine.contention_snapshot()
        metrics.update({
            "concurrency.optimistic_retries": float(contention["optimistic_retries"]),
            "concurrency.pessimistic_reads": float(contention["pessimistic_reads"]),
            "concurrency.read_latch_acquires": float(contention["read_acquires"]),
            "concurrency.latch_wait_ms": 1e3 * contention["wait_seconds"],
        })
        for name in ("versions_published", "versions_reclaimed", "peak_version_bytes", "gc_runs"):
            metrics[f"concurrency.mvcc.{name}"] = float(contention.get("versions", {}).get(name, 0))
        metrics["bench.trace_overhead_pct"] = trace_overhead_pct(bind(engine, ops), tally)
        check_contents(engine.search, oracle.live_ids(), tally)
    finally:
        if mvcc:
            stack.close()
        else:
            stack.crash()

    if not mvcc:
        opened: list[Any] = []

        def reopen_and_recover() -> None:
            opened.append(FileDisk(stack.path))
            opened.extend(recover_tree(opened[0]))

        try:
            metrics["storage.recovery_ms"] = timed_us(reopen_and_recover) / 1e3
            disk, recovered, replay = opened
            check_contents(recovered.search, oracle.live_ids(), tally)
            # Replay alone, again (it is idempotent): the log's share of recovery.
            lsn = int((disk.checkpoint_info or {}).get("wal_lsn") or 0)
            metrics["storage.wal.replay_us_per_commit"] = timed_us(
                lambda: replay_wal(wal_directory_for(stack.path), disk, recovery_lsn=lsn),
                max(1, replay.commits_applied),
            )
            detail["commits_replayed"] = replay.commits_applied
        finally:
            if opened:
                opened[0].close()
    return finish(workload, ladder, metrics, tally, out, detail)


# ---------------------------------------------------------------------------
# shard_tcp
# ---------------------------------------------------------------------------
def coords(op: Op) -> tuple:
    """A query as the wire carries it."""
    kind, args = op
    return (args,) if kind == "stab" else (args[0].lows, args[0].highs)


def load_router(router: Any, records: Sequence[Rect], tally: Tally) -> None:
    tally.attempt(len(records))
    for rect in records:
        router.insert(rect)


def open_loop_step(
    clients: Sequence[TcpClient], rate: int, seconds: float, ops: Sequence[Op],
    expected: Sequence[set[int]], fresh: Iterator[Rect], seed: int, tally: Tally,
) -> dict:
    """Requests sent on a seeded Poisson schedule whatever the replies do;
    latency runs from the time a request was *due*."""
    due_s = poisson_arrivals(rate, seconds, seed, stream=40 + rate)
    is_write = write_share(len(due_s), 0.05, seed, stream=50 + rate)
    plan: list[tuple[float, Call, "int | None"]] = []  # due, call, index into ops
    inserted_rects = []
    for i, (due, write) in enumerate(zip(due_s, is_write)):
        client = clients[i % len(clients)]
        if write:
            rect = next(fresh)
            inserted_rects.append(rect)
            plan.append((due, (client.insert, (rect,)), None))
        else:
            kind, args = ops[i % len(ops)]
            plan.append((due, (getattr(client, kind), args), i % len(ops)))
    latencies: list[list[int]] = [[] for _ in clients]
    lateness: list[list[int]] = [[] for _ in clients]
    replies: list[list[tuple[int, Any]]] = [[] for _ in clients]
    aborted = threading.Event()
    barrier = threading.Barrier(len(clients))
    origin = [0]

    def sender(lane: int) -> None:
        barrier.wait(WAIT_S)
        if lane == 0:
            origin[0] = _now()
        barrier.wait(WAIT_S)
        for i in range(lane, len(plan), len(clients)):
            due, (fn, args), _ = plan[i]
            due_ns = origin[0] + int(due * 1e9)
            wait = (due_ns - _now()) / 1e9
            if wait > 0:
                time.sleep(wait)
            late = max(0, _now() - due_ns)
            if late > 1e9 or aborted.is_set():
                # The backlog only grows from here.  The step is over and not
                # "ok"; requests never sent are no failure of the program.
                aborted.set()
                return
            tally.attempt()
            try:
                reply = fn(*args)
            except Exception as exc:
                tally.fail(exc)
                reply = None
            latencies[lane].append(_now() - due_ns)
            lateness[lane].append(late)
            replies[lane].append((i, reply))

    threads = [threading.Thread(target=sender, args=(lane,)) for lane in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + WAIT_S)

    new_ids = set()
    answered = [pair for lane in replies for pair in lane]
    for i, reply in answered:
        if plan[i][2] is None and reply is not None:
            new_ids.add(reply)
    diverged = 0
    for i, reply in answered:
        index = plan[i][2]
        if index is None or reply is None:
            continue
        got = ids_of(reply)
        # Inserts of this step race the reads: they may or may not be visible.
        if expected[index] - got or (got - expected[index]) - new_ids:
            diverged += 1
    if diverged:
        tally.fail("divergence", diverged)
    pooled = sorted(ns for lane in latencies for ns in lane)
    late = [ns for lane in lateness for ns in lane]
    failed = diverged + sum(1 for _, reply in answered if reply is None)
    p99_us = percentile(pooled, 0.99) / 1e3
    final_late_s = max((lane[-1] for lane in lateness if lane), default=0) / 1e9
    return {
        "rate": rate,
        "sent": len(pooled),
        "planned": len(plan),
        "p50_us": percentile(pooled, 0.50) / 1e3,
        "p99_us": p99_us,
        "mean_lateness_ms": (sum(late) / len(late) / 1e6) if late else 0.0,
        "final_lateness_s": final_late_s,
        "ok": failed == 0 and not aborted.is_set() and p99_us <= OPEN_P99_LIMIT_US
        and final_late_s < 0.25,
        "inserted": [
            (reply, plan[i][1][1][0]) for i, reply in answered
            if plan[i][2] is None and reply is not None
        ],
    }


def trace_shard_tcp(seed: int, scale: Scale, work: WorkDir, out: "Path | None") -> Outcome:
    tally = Tally()
    n = scale.tcp_records
    records = dataset(n, seed)
    ops = q_mix(scale.tcp_q, records, seed)
    oracle = Oracle(capacity=2 * n)
    oracle.add_all(records)  # one client inserting in order: ids 1..n on every level
    expected = [oracle.answer(op) for op in ops]
    fresh = fresh_records(n, seed)
    metrics: dict[str, float] = {}
    ladder = Ladder()

    # Level 0: the bare R-Tree a shard worker wraps.
    tree = RTree()
    bare_insert_us, _ = median_us([(tree.insert, (rect,)) for rect in records], tally)
    tree.stats.reset_search_counters()
    replies: list[Any] = []
    run_calls(bind(tree, ops), tally, [], replies)
    check_replies(expected, replies, tally)
    metrics["core.nodes_per_search.R"] = tree.stats.avg_nodes_per_search
    bare = ladder.measure("bare RTree.search", "core", bind(tree, ops), tally)
    metrics["core.search_us"] = bare.mean_us
    metrics.update(core_metrics(tree, records, ops, seed, fresh, scale, tally))

    # Level 1: one ShardWorker (engine + pool + id maps) behind wire requests.
    spec = ShardSpec(0, EVERYTHING.lows, EVERYTHING.highs, buffer_bytes=FIT_BYTES)
    worker = ShardWorker(spec)
    requests = [
        (worker.handle, (wire.Request(wire.OP_INSERT, (i + 1, rect.lows, rect.highs, None), i),))
        for i, rect in enumerate(records)
    ]
    worker_insert_us, _ = median_us(requests, tally)
    searches = [
        (worker.handle, (wire.Request(kind, coords((kind, args)), i),))
        for i, (kind, args) in enumerate(ops)
    ]
    level = ladder.measure("ShardWorker.handle", "sharding", searches, tally)
    worker.close()
    metrics["sharding.worker.search_self_us"] = level.mean_us - bare.mean_us
    metrics["sharding.worker.insert_self_us"] = worker_insert_us - bare_insert_us

    # What the process transport pickles for one search and its reply.
    sample = [(wire.Request(kind, coords((kind, args)), i), wire.Reply(i, True, reply))
              for i, ((kind, args), reply) in enumerate(zip(ops, replies))][:500]
    frames: list[tuple[bytes, bytes]] = []
    metrics["sharding.wire.encode_us"] = timed_us(
        lambda: frames.extend((pickle.dumps(q), pickle.dumps(r)) for q, r in sample), len(sample)
    )
    metrics["sharding.wire.decode_us"] = timed_us(
        lambda: [(pickle.loads(q), pickle.loads(r)) for q, r in frames], len(sample)
    )

    # Levels 2-4: the router over one local shard, two, then two processes.
    means: dict[str, float] = {}
    for name, shards, transport in (
        ("ShardRouter local x1", 1, "local"),
        ("ShardRouter local x2", 2, "local"),
        ("ShardRouter process x2", 2, "process"),
    ):
        router = build_router(shards, bounds=EVERYTHING, transport=transport, buffer_bytes=FIT_BYTES)
        try:
            load_router(router, records, tally)
            replies = []
            run_calls(bind(router, ops), tally, [], replies)
            check_replies(expected, replies, tally)
            before = router.stats()["admission"]["admitted"]
            means[name] = ladder.measure(name, "sharding", bind(router, ops), tally).mean_us
            if name == "ShardRouter local x2":
                calls = router.stats()["admission"]["admitted"] - before
                per_query = calls / (PASSES * len(ops))
                metrics["sharding.router.shards_per_query"] = per_query
                metrics["sharding.router.pruned_share"] = 1.0 - per_query / shards
        finally:
            router.close()
    metrics["sharding.router.local1_self_us"] = means["ShardRouter local x1"] - level.mean_us
    metrics["sharding.router.local2_self_us"] = means["ShardRouter local x2"] - means["ShardRouter local x1"]
    metrics["sharding.transport.process_self_us"] = (
        means["ShardRouter process x2"] - means["ShardRouter local x2"]
    )

    # Level 5: repro serve over one TCP connection; then the open-loop ladder on two.
    steps = []
    with Server(buffer_bytes=FIT_BYTES) as server:
        clients = [TcpClient(server.port) for _ in range(2)]
        try:
            run_calls([(clients[0].insert, (rect,)) for rect in records], tally, [])
            replies = []
            run_calls(bind(clients[0], ops), tally, [], replies)
            check_replies(expected, replies, tally)
            tcp = ladder.measure("repro serve, 1 TCP conn", "sharding", bind(clients[0], ops), tally)
            metrics["sharding.service.tcp_self_us"] = tcp.mean_us - means["ShardRouter process x2"]
            metrics["bench.trace_overhead_pct"] = trace_overhead_pct(bind(clients[0], ops), tally)
            for rate in OPEN_RATES:
                settle()
                step = open_loop_step(
                    clients, rate, scale.open_seconds, ops, expected, fresh, seed, tally
                )
                for record_id, rect in step.pop("inserted"):
                    oracle.add(record_id, rect)
                expected = [oracle.answer(op) for op in ops]
                steps.append(step)
            check_contents(clients[0].search, oracle.live_ids(), tally)
            metrics["sharding.admission.shed"] = float(clients[0].stats()["admission"]["shed"])
        finally:
            for client in clients:
                client.close()
    by_rate = {step["rate"]: step for step in steps}
    metrics.update({
        "sharding.service.open400_p50_us": by_rate[400]["p50_us"],
        "sharding.service.open400_p99_us": by_rate[400]["p99_us"],
        "sharding.service.open800_p50_us": by_rate[800]["p50_us"],
        "sharding.service.open800_p99_us": by_rate[800]["p99_us"],
        "sharding.service.open1600_p99_us": by_rate[1600]["p99_us"],
        "sharding.service.rate_ok_ops_s": float(max((s["rate"] for s in steps if s["ok"]), default=0)),
        "workloads.open_lateness_ms": max(step["mean_lateness_ms"] for step in steps),
    })
    return finish("shard_tcp", ladder, metrics, tally, out, {"open_loop": steps})


#: name -> tracer(seed, scale, work, out).
TRACES: dict[str, Callable[..., Outcome]] = {
    "index_qar": trace_index_qar,
    "engine_fit": functools.partial(trace_engine, workload="engine_fit"),
    "engine_spill": functools.partial(trace_engine, workload="engine_spill", spill=True),
    "engine_mvcc": functools.partial(trace_engine, workload="engine_mvcc", mvcc=True),
    "shard_tcp": trace_shard_tcp,
}
