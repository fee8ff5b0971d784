"""The five workloads, measured end to end with all tracing off.

Each workload is one closed-loop client (two TCP connections for
``shard_tcp``) driving the same four phases — quiet reads, reads beside a
paced writer ("churn"), inserts, deletes — against a different stack, so every
end-to-end metric exists on every workload and a layer's cost shows as a
difference *between* workloads:

* ``index_qar``   bare R, SR, Skeleton R, Skeleton SR trees: ``core`` only;
* ``engine_fit``  SR-Tree behind disk + log + pool + latches, pool >= data;
* ``engine_spill`` the same stack with a pool ~1/6 of the data: the miss path;
* ``engine_mvcc`` the same stack reading through snapshots;
* ``shard_tcp``   ``repro serve`` with two process shards, over TCP.

Set-up (generation, oracle, preload, attach, the checked warm pass, server
start) is repeated ``Scale.setup_repeats`` times; ``setup_s`` is the median.
"""

from __future__ import annotations

import functools
import itertools
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro import Rect, RTree, SkeletonRTree, SkeletonSRTree, SRTree, pack_tree
from repro.storage import FileDisk, recover_tree
from repro.workloads import DOMAIN

from .inputs import Op, dataset, fresh_records, q_mix, qar_ops
from .measure import (
    Call,
    PacedWriter,
    Scaled,
    Schedule,
    Tally,
    median,
    passes_until,
    percentile,
    rss_self_mb,
    run_calls,
    run_calls_with_writes,
    run_groups,
    settle,
)
from .oracle import Oracle
from .spec import CHURN_RATE, FIT_BYTES, Scale
from .stacks import EngineStack, Server, TcpClient, WorkDir

#: A query covering the whole domain returns every live record.
EVERYTHING = Rect(tuple(lo for lo, _ in DOMAIN), tuple(hi for _, hi in DOMAIN))

#: The paper's four index types, with its 5 % distribution prediction.
TREE_KINDS: dict[str, Callable[[int], RTree]] = {
    "R": lambda n: RTree(),
    "SR": lambda n: SRTree(),
    "SkR": lambda n: SkeletonRTree(
        expected_tuples=n, domain=DOMAIN, prediction_fraction=0.05
    ),
    "SkSR": lambda n: SkeletonSRTree(
        expected_tuples=n, domain=DOMAIN, prediction_fraction=0.05
    ),
}

BATCH = 50  # writes per timed batch


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, float]
    tally: Tally
    detail: dict = field(default_factory=dict)


def ids_of(reply: Iterable[Sequence[Any]]) -> set[int]:
    return {item[0] for item in reply}


def bind(target: Any, ops: Sequence[Op]) -> list[Call]:
    """Prepare ``ops`` against anything with ``search`` and ``stab`` methods."""
    return [(getattr(target, kind), args) for kind, args in ops]


def sabotage_oracle(oracle: Oracle, ops: Sequence[Op]) -> None:
    """Make the reference wrong on purpose (the smoke tests' fault): forget a
    record that some query returns, so the program's right answer diverges."""
    for op in ops:
        answer = oracle.answer(op)
        if answer:
            oracle.remove(min(answer))
            return


def check_replies(expected: Sequence[set[int]], replies: Sequence[Any], tally: Tally) -> None:
    """Compare a kept pass with the oracle by record-id set (a raised op is
    ``None`` here and already counted)."""
    for want, reply in zip(expected, replies):
        if reply is not None and ids_of(reply) != want:
            tally.fail("divergence")


def check_contents(search: Callable[[Rect], Any], want: set[int], tally: Tally) -> None:
    """Every acknowledged write must be visible: one whole-domain query."""
    tally.attempt()
    try:
        got = ids_of(search(EVERYTHING))
    except Exception as exc:
        tally.fail(exc)
        return
    if got != want:
        tally.fail("lost_or_phantom_record", len(got ^ want))


def repeat_setup(
    build: Callable[[], Any], teardown: Callable[[Any], None], repeats: int
) -> tuple[Any, list[float]]:
    """Set up ``repeats`` times, keeping the last; seconds of each (at
    reference speed, like every timing here)."""
    seconds: list[float] = []
    context = None
    for i in range(repeats):
        if context is not None:
            teardown(context)
        with Scaled() as scaled:
            start = time.perf_counter()
            context = build()
            took = time.perf_counter() - start
        seconds.append(took * scaled.factor)
    return context, seconds


# ---------------------------------------------------------------------------
# Phases
#
# The sandbox's speed wanders (see ``measure.speed``), so every slice of timed
# work — a pass, a churn slice, a batch of writes, a set-up — is scaled to the
# reference speed measured right beside it, and what is reported is a median
# over many such slices: a query's latency is its median over the passes that
# repeat it, a rate is the median over its batches or slices.
# ---------------------------------------------------------------------------
@dataclass
class Reads:
    """The quiet read phase: one row of per-query latencies (ns) per pass."""

    passes: list[list[int]] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)  # the machine's, beside each pass
    wall_qps: list[float] = field(default_factory=list)  # as the clock saw each pass
    client_sizes: list[int] = field(default_factory=list)

    def per_query_us(self) -> np.ndarray:
        """Each query's median latency over the passes, in us."""
        whole = [
            np.array(row) * factor
            for row, factor in zip(self.passes, self.speed)
            if len(row) == sum(self.client_sizes)
        ]
        return np.median(np.array(whole), axis=0) / 1e3

    def qps(self, per_query_us: np.ndarray) -> float:
        """Reads per second of a pass made of those latencies: the clients run
        side by side, so the busiest client sets the pass time."""
        edges = np.cumsum([0] + self.client_sizes)
        busiest = max(per_query_us[a:b].sum() for a, b in zip(edges, edges[1:]))
        return len(per_query_us) / (busiest / 1e6)


def quiet_reads(groups: Sequence[Sequence[Call]], budget_s: float, tally: Tally) -> Reads:
    """Closed-loop passes over Q, every pass timing every query."""
    settle()
    out = Reads(client_sizes=[len(group) for group in groups])
    reads = sum(out.client_sizes)
    for _ in passes_until(budget_s, at_least=5):
        latencies: list[int] = []
        with Scaled() as scaled:
            wall = run_groups(groups, tally, latencies)
        out.passes.append(latencies)
        out.speed.append(scaled.factor)
        out.wall_qps.append(reads / (wall / 1e9))
    return out


def quarter(calls: Sequence[Call], turn: int) -> Sequence[Call]:
    """Every fourth call: churn slices are short so that there are many."""
    return calls[turn % 4 :: 4]


def churn_reads_threaded(
    groups: Sequence[Sequence[Call]],
    insert: Callable[..., int],
    fresh: Iterator[Rect],
    budget_s: float,
    tally: Tally,
    acked: list[tuple[int, Rect]],
) -> list[float]:
    """Read slices while a second thread commits at ``CHURN_RATE``; reads/s of
    each.  The writer's share of the interpreter is the thing measured, so
    slices are judged whole, by the clock."""
    settle()
    qps: list[float] = []
    writer = PacedWriter(insert, fresh, CHURN_RATE, tally, acked)
    writer.start()
    try:
        for turn in passes_until(budget_s, at_least=8):
            slices = [quarter(group, turn) for group in groups]
            with Scaled() as scaled:
                wall = run_groups(slices, tally, [])
            qps.append(sum(len(part) for part in slices) / (wall * scaled.factor / 1e9))
    finally:
        writer.finish()
    return qps


def churn_reads_inline(
    segments: Sequence[tuple[Sequence[Call], Callable[..., int], list]],
    fresh: Iterator[Rect],
    budget_s: float,
    tally: Tally,
) -> list[float]:
    """Read slices with the client committing its own due inserts; one
    ``(calls, insert, acked)`` segment per index."""
    settle()
    qps: list[float] = []
    schedule = Schedule(CHURN_RATE)
    for turn in passes_until(budget_s, at_least=8):
        reads, wall = 0, 0
        with Scaled() as scaled:
            for calls, insert, acked in segments:
                part = quarter(calls, turn)
                reads += len(part)
                wall += run_calls_with_writes(part, insert, fresh, schedule, tally, acked)
        qps.append(reads / (wall * scaled.factor / 1e9))
    return qps


@dataclass
class Writes:
    """A timed write phase on one index: every acknowledged ``(args, reply)``,
    and per batch its rate (writes/s) and median latency (us)."""

    done: list[tuple[tuple, Any]] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    p50_us: list[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return median(self.rates)


def timed_writes(
    methods: Sequence[Callable[..., Any]],
    arguments: Iterator[tuple],
    rounds: Iterable[int],
    tally: Tally,
    batch: int = BATCH,
) -> Writes:
    """Batches of ``batch`` writes per client until ``rounds`` or ``arguments`` end."""
    settle()
    out = Writes()
    for _ in rounds:
        chunk = list(itertools.islice(arguments, batch * len(methods)))
        if not chunk:
            break
        groups = [
            [(method, args) for args in chunk[i :: len(methods)]]
            for i, method in enumerate(methods)
        ]
        replies: list[list[Any]] = [[] for _ in groups]
        latencies: list[int] = []
        with Scaled() as scaled:
            wall = run_groups(groups, tally, latencies, replies)
        out.rates.append(len(chunk) / (wall * scaled.factor / 1e9))
        out.p50_us.append(median(latencies) * scaled.factor / 1e3)
        for group, kept in zip(groups, replies):
            out.done.extend(
                (args, reply) for (_, args), reply in zip(group, kept) if reply is not None
            )
    return out


def combined_rate(phases: Sequence[Writes]) -> float:
    """Writes per second over several indexes written one after another: the
    same number of writes to each at its own rate (a harmonic mean)."""
    return len(phases) / sum(1.0 / phase.rate for phase in phases)


def apply_deletes(deletes: Writes, oracle: "Oracle | None", tally: Tally) -> None:
    for (record_id, _rect), removed in deletes.done:
        if removed < 1:
            tally.fail("delete_missed")
        if oracle is not None:
            oracle.remove(record_id)


def summarise(
    setup_s: Sequence[float],
    reads: Reads,
    churn_qps: Sequence[float],
    inserts: Sequence[Writes],
    deletes: Sequence[Writes],
    peak_rss_mb: float,
) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, and the values behind each of them.  ``inserts``
    and ``deletes`` hold one phase per index written (four for ``index_qar``)."""
    per_query_us = reads.per_query_us()
    ranked = np.sort(per_query_us)
    metrics = {
        "setup_s": median(setup_s),
        "search_qps": reads.qps(per_query_us),
        "search_p50_us": percentile(ranked, 0.50),
        "search_p99_us": percentile(ranked, 0.99),
        "churn_search_qps": median(churn_qps),
        "insert_ops_s": combined_rate(inserts),
        "insert_p50_us": median([median(phase.p50_us) for phase in inserts]),
        "delete_ops_s": combined_rate(deletes),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "setup_s": list(setup_s),
        "search_passes": len(reads.passes),
        "search_samples": len(reads.passes) * len(per_query_us),
        "search_qps_by_the_clock": reads.wall_qps,
        "search_speed_beside_each_pass": reads.speed,
        "churn_search_qps_slices": list(churn_qps),
        "insert_ops_s_batches": [phase.rates for phase in inserts],
        "insert_p50_us_batches": [phase.p50_us for phase in inserts],
        "insert_samples": sum(len(phase.done) for phase in inserts),
        "delete_ops_s_batches": [phase.rates for phase in deletes],
        "delete_samples": sum(len(phase.done) for phase in deletes),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# index_qar
# ---------------------------------------------------------------------------
def run_index_qar(
    seed: int, seconds: float, scale: Scale, work: WorkDir, sabotage: "str | None" = None
) -> Outcome:
    tally = Tally()
    n = scale.qar_records

    def build() -> dict:
        records = dataset(n, seed)
        ops = qar_ops(scale.qar_queries, seed)
        oracle = Oracle(capacity=n)
        oracle.add_all(records)
        if sabotage == "oracle":
            sabotage_oracle(oracle, ops)
        return {
            "records": records,
            "ops": ops,
            "oracle": oracle,
            "expected": [oracle.answer(op) for op in ops],
        }

    ctx, setup_s = repeat_setup(build, lambda _: None, 5)  # cheap, so five
    records, ops, oracle = ctx["records"], ctx["ops"], ctx["oracle"]
    fresh = fresh_records(n, seed)

    # Inserts: the four builds (payload = insertion number, as the paper's harness).
    trees: dict[str, RTree] = {}
    inserts: list[Writes] = []
    for kind, make in TREE_KINDS.items():
        tree = trees[kind] = make(n)
        rows = ((rect, i) for i, rect in enumerate(records))
        inserts.append(timed_writes([tree.insert], rows, itertools.count(), tally, batch=250))
        if hasattr(tree, "flush"):
            tree.flush()  # a no-op here: the 5 % prediction buffer filled long ago

    # The checked pass, which also yields the paper's metric.
    nodes_per_search: dict[str, float] = {}
    for kind, tree in trees.items():
        tree.stats.reset_search_counters()
        replies: list[Any] = []
        run_calls(bind(tree, ops), tally, [], replies)
        check_replies(ctx["expected"], replies, tally)
        nodes_per_search[kind] = tree.stats.avg_nodes_per_search

    # Timed reads use the two skeleton trees.  An R- or SR-Tree grown by random
    # insertion differs by 20 % in nodes per search from seed to seed (the very
    # instability the skeleton removes: 2.7 %), which no bound on a read metric
    # could hold; all four are checked above and counted exactly in the trace.
    steady = {kind: trees[kind] for kind in ("SkR", "SkSR")}
    all_calls = [call for tree in steady.values() for call in bind(tree, ops)]
    reads = quiet_reads([all_calls], 0.30 * seconds, tally)

    extra: dict[str, list[tuple[int, Rect]]] = {kind: [] for kind in trees}
    churn_qps = churn_reads_inline(
        [(bind(tree, ops), tree.insert, extra[kind]) for kind, tree in steady.items()],
        fresh,
        0.15 * seconds,
        tally,
    )

    # Deletes: the first tenth of the records, by id with the rectangle as hint.
    victims = [(i + 1, rect) for i, rect in enumerate(records[: max(1, n // 10)])]
    deletes = [
        timed_writes([tree.delete], iter(victims), itertools.count(), tally)
        for tree in trees.values()
    ]
    for phase in deletes:
        apply_deletes(phase, None, tally)
    for record_id, _ in victims:
        oracle.remove(record_id)
    for kind, tree in trees.items():
        want = oracle.live_ids() | {rid for rid, _ in extra[kind]}
        check_contents(tree.search, want, tally)

    metrics, detail = summarise(setup_s, reads, churn_qps, inserts, deletes, rss_self_mb())
    detail["nodes_per_search"] = nodes_per_search
    return Outcome(metrics, tally, detail)


# ---------------------------------------------------------------------------
# engine_fit, engine_spill, engine_mvcc
# ---------------------------------------------------------------------------
def preload(records: Sequence[Rect]) -> RTree:
    """The engine workloads' starting index: an SR-Tree bulk-loaded with
    Sort-Tile-Recursive packing (record ids 1..n in order, as inserts would give).

    Built by random insertion instead, an 8,000-record SR-Tree's nodes per
    search differ by 8 % (interquartile) to 19 % (range) from seed to seed —
    the luck of its early splits — and every read metric with it; packed, by
    1.5 %.  ``index_qar`` is where dynamic builds are measured."""
    return pack_tree([(rect, i) for i, rect in enumerate(records)], index_cls=SRTree)


def run_engine(
    seed: int,
    seconds: float,
    scale: Scale,
    work: WorkDir,
    sabotage: "str | None" = None,
    *,
    spill: bool = False,
    mvcc: bool = False,
) -> Outcome:
    tally = Tally()
    n = scale.engine_records
    buffer_bytes = scale.engine_spill_bytes if spill else FIT_BYTES

    def build() -> dict:
        records = dataset(n, seed)
        ops = q_mix(scale.engine_q, records, seed)
        oracle = Oracle(capacity=2 * n)
        oracle.add_all(records)
        if sabotage == "oracle":
            sabotage_oracle(oracle, ops)
        expected = [oracle.answer(op) for op in ops]
        tree = preload(records)
        stack = EngineStack(tree, work.store(), buffer_bytes, mvcc=mvcc)
        calls = bind(stack.engine, ops)
        tree.stats.reset_search_counters()
        replies: list[Any] = []
        run_calls(calls, tally, [], replies)  # warms the pool, and is checked
        check_replies(expected, replies, tally)
        return {
            "records": records,
            "oracle": oracle,
            "stack": stack,
            "calls": calls,
            "nodes_per_search": tree.stats.avg_nodes_per_search,
        }

    ctx, setup_s = repeat_setup(build, lambda c: c["stack"].close(), scale.setup_repeats)
    records, oracle, stack = ctx["records"], ctx["oracle"], ctx["stack"]
    engine = stack.engine
    fresh = fresh_records(n, seed)
    try:
        reads = quiet_reads([ctx["calls"]], 0.35 * seconds, tally)

        acked: list[tuple[int, Rect]] = []
        if not spill:
            churn_qps = churn_reads_threaded(
                [ctx["calls"]], engine.insert, fresh, 0.20 * seconds, tally, acked
            )
        else:
            # A second thread on a spilling pool trips FileDisk.read_page's
            # unlocked seek+read (see perf/README.md), so the client writes.
            churn_qps = churn_reads_inline(
                [(ctx["calls"], engine.insert, acked)], fresh, 0.20 * seconds, tally
            )
        for record_id, rect in acked:
            oracle.add(record_id, rect)

        inserts = timed_writes(
            [engine.insert],
            ((rect,) for rect in fresh),
            passes_until(0.25 * seconds, at_least=4),
            tally,
        )
        for (rect,), record_id in inserts.done:
            oracle.add(record_id, rect)

        victims = ((i + 1, rect) for i, rect in enumerate(records))
        deletes = timed_writes(
            [engine.delete], victims, passes_until(0.10 * seconds, at_least=4), tally
        )
        apply_deletes(deletes, oracle, tally)
        check_contents(engine.search, oracle.live_ids(), tally)
        pool = stack.manager.pool.stats.snapshot()
    finally:
        if mvcc:
            stack.close()
        else:
            stack.crash()

    recovery_s = 0.0
    if not mvcc:
        # Only what the log made durable is left; every acked write must be there.
        start = time.perf_counter()
        disk = FileDisk(stack.path)
        try:
            recovered, _ = recover_tree(disk)
            recovery_s = time.perf_counter() - start
            check_contents(recovered.search, oracle.live_ids(), tally)
        finally:
            disk.close()

    metrics, detail = summarise(setup_s, reads, churn_qps, [inserts], [deletes], rss_self_mb())
    detail.update(
        nodes_per_search=ctx["nodes_per_search"],
        recovery_s=recovery_s,
        churn_commits=len(acked),
        pool=pool,
    )
    return Outcome(metrics, tally, detail)


# ---------------------------------------------------------------------------
# shard_tcp
# ---------------------------------------------------------------------------
def run_shard_tcp(
    seed: int, seconds: float, scale: Scale, work: WorkDir, sabotage: "str | None" = None
) -> Outcome:
    tally = Tally()
    n = scale.tcp_records

    def build() -> dict:
        records = dataset(n, seed)
        ops = q_mix(scale.tcp_q, records, seed)
        server = Server(buffer_bytes=FIT_BYTES)
        try:
            clients = [TcpClient(server.port) for _ in range(3)]
            for client in clients:
                client.call({"op": "ping"})
        except Exception:
            server.stop()
            raise
        return {"records": records, "ops": ops, "server": server, "clients": clients}

    def teardown(ctx: dict) -> None:
        for client in ctx["clients"]:
            client.close()
        ctx["server"].stop()

    ctx, setup_s = repeat_setup(build, teardown, scale.setup_repeats)
    records, ops, server = ctx["records"], ctx["ops"], ctx["server"]
    readers, writer = ctx["clients"][:2], ctx["clients"][2]
    fresh = fresh_records(n, seed)
    oracle = Oracle(capacity=2 * n)
    try:
        # Inserts come first: the data reaches the shards the way a user sends it.
        inserts = timed_writes(
            [client.insert for client in readers],
            ((rect,) for rect in records),
            itertools.count(),
            tally,
        )
        victims = []
        for (rect,), record_id in inserts.done:
            oracle.add(record_id, rect)
            victims.append((record_id, rect))
        if sabotage == "oracle":
            sabotage_oracle(oracle, ops)
        if sabotage == "server":
            server.process.send_signal(signal.SIGKILL)

        groups = [bind(client, ops[i::2]) for i, client in enumerate(readers)]
        replies: list[list[Any]] = [[], []]
        run_groups(groups, tally, [], replies)  # the checked pass
        for i, kept in enumerate(replies):
            check_replies([oracle.answer(op) for op in ops[i::2]], kept, tally)

        reads = quiet_reads(groups, 0.40 * seconds, tally)

        acked: list[tuple[int, Rect]] = []
        churn_qps = churn_reads_threaded(
            groups, writer.insert, fresh, 0.20 * seconds, tally, acked
        )
        for record_id, rect in acked:
            oracle.add(record_id, rect)

        deletes = timed_writes(
            [client.delete for client in readers],
            iter(victims),
            passes_until(0.10 * seconds, at_least=4),
            tally,
        )
        apply_deletes(deletes, oracle, tally)
        check_contents(readers[0].search, oracle.live_ids(), tally)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        teardown(ctx)

    metrics, detail = summarise(setup_s, reads, churn_qps, [inserts], [deletes], peak_rss_mb)
    detail.update(churn_commits=len(acked), client_rss_mb=rss_self_mb())
    return Outcome(metrics, tally, detail)


#: name -> runner(seed, seconds, scale, work, sabotage).
WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "index_qar": run_index_qar,
    "engine_fit": run_engine,
    "engine_spill": functools.partial(run_engine, spill=True),
    "engine_mvcc": functools.partial(run_engine, mvcc=True),
    "shard_tcp": run_shard_tcp,
}
