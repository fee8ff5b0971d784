"""Property test: buffer-pool accounting survives arbitrary op sequences.

Drives randomized ``fetch``/``release``/``touch``/``drop``/``flush``
sequences against a small pool with a single-threaded oracle tracking the
expected pin state, and asserts :meth:`BufferPool.verify_accounting`
(the same invariant battery the multi-threaded stress harness runs) plus
stats consistency after every step.

``touch`` is differential throughout: a twin pool takes the same steps
with every ``touch`` spelled as the ``fetch`` + ``release`` it replaced,
and the two must never differ in anything a caller or the disk can see.
The storage hook's batched form — a whole read's visit, hits touched in
runs — is held the same way against one touch per visited page.
"""

import random
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Rect, SRTree, Tracer, segment
from repro.core import query
from repro.exceptions import StorageError
from repro.obs import RingBufferSink
from repro.storage import (
    BufferPool,
    Fault,
    FaultInjectingDisk,
    RetryPolicy,
    SimulatedDisk,
    StorageManager,
)

#: Six allocatable pages of two sizes; the pool fits ~3 small pages, so
#: sequences regularly trigger eviction, pinned-full, and drop paths.
PAGE_SIZES = {1: 1024, 2: 1024, 3: 1024, 4: 512, 5: 512, 6: 2048}
CAPACITY = 3 * 1024

_ops = st.lists(
    st.tuples(
        st.sampled_from(["fetch", "release", "touch", "drop", "flush"]),
        st.sampled_from(sorted(PAGE_SIZES)),
        st.booleans(),  # dirty flag for release/touch
    ),
    max_size=60,
)


def _fresh_pool() -> BufferPool:
    disk = SimulatedDisk()
    for page_id, size in PAGE_SIZES.items():
        disk.allocate(page_id, size)
    return BufferPool(disk, capacity_bytes=CAPACITY)


def _fetch_release(pool: BufferPool, page_id: int, dirty: bool = False) -> None:
    """What ``touch`` was composed from: the reference it must equal."""
    pool.fetch(page_id)
    pool.release(page_id, dirty)


def _step_reference(twin: BufferPool, op: str, page_id: int, dirty: bool) -> None:
    try:
        if op == "fetch":
            twin.fetch(page_id)
        elif op == "release":
            twin.release(page_id, dirty=dirty)
        elif op == "touch":
            _fetch_release(twin, page_id, dirty)
        elif op == "drop":
            twin.drop(page_id)
        else:
            twin.flush()
    except StorageError:
        pass  # a refusal leaves its own trace in what _observable compares


def _observable(pool: BufferPool) -> dict:
    """Everything about a pool that a later access, an eviction or the
    disk could tell apart: counters, LRU order with each frame's dirty
    bit and pins, the pin ledger, and the disk's own counters."""
    return {
        "stats": asdict(pool.stats),
        "lru": [(pid, f.dirty, f.pin_count) for pid, f in pool._frames.items()],
        "resident_bytes": pool.resident_bytes,
        "ledger": dict(pool._pins_by_thread),
        "disk": pool.disk.stats.snapshot(),
    }


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ops=_ops)
def test_accounting_invariants_hold(ops):
    pool = _fresh_pool()
    twin = _fresh_pool()  # same steps, touch spelled fetch + release
    pins: Counter = Counter()  # oracle: page -> pins we hold

    for op, page_id, dirty in ops:
        _step_reference(twin, op, page_id, dirty)
        if op == "fetch":
            try:
                pool.fetch(page_id)
            except StorageError:
                # Only legal when the pool genuinely cannot make room:
                # every resident page is pinned (all pins are ours — the
                # self-deadlock guard) and the page is not yet resident.
                assert page_id not in pins or pins[page_id] == 0
                assert sum(pins.values()) > 0
            else:
                pins[page_id] += 1
        elif op == "release":
            if pins[page_id] > 0:
                pool.release(page_id, dirty=dirty)
                pins[page_id] -= 1
            else:
                with pytest.raises(StorageError):
                    pool.release(page_id, dirty=dirty)
        elif op == "touch":
            try:
                pool.touch(page_id, dirty=dirty)
            except StorageError:
                assert pins[page_id] == 0 and sum(pins.values()) > 0
        elif op == "drop":
            if pins[page_id] > 0:
                with pytest.raises(StorageError):
                    pool.drop(page_id)
            else:
                pool.drop(page_id)  # silent no-op when not resident
        elif op == "flush":
            pool.flush()

        pool.verify_accounting()
        assert _observable(pool) == _observable(twin)
        stats = pool.stats
        assert stats.accesses == stats.hits + stats.misses
        assert pool.resident_bytes <= CAPACITY
        assert pool.resident_pages == len(pool._frames)
        # Every page the oracle believes pinned must be resident with at
        # least that many pins (the pool never evicts or drops it).
        for pid, count in pins.items():
            if count > 0:
                frame = pool._frames[pid]
                assert frame.pin_count == count

    # Teardown: release every outstanding pin, then the pool must be
    # fully quiescent (this is what the stress harness asserts post-run).
    for pid, count in pins.items():
        for _ in range(count):
            pool.release(pid)
    pool.verify_accounting(expect_unpinned=True)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.sampled_from(sorted(PAGE_SIZES)), min_size=1, max_size=40)
)
def test_touch_sequences_never_leak_pins(ops):
    """touch() (the StorageManager access path) must always pin-balance."""
    pool = _fresh_pool()
    for page_id in ops:
        pool.touch(page_id, dirty=(page_id % 2 == 0))
        pool.verify_accounting(expect_unpinned=True)
    assert pool.stats.accesses == len(ops)


def _events(tracer: Tracer) -> list:
    """The pool's event stream without the one wall-clock field."""
    return [
        (e.etype, {k: v for k, v in e.fields.items() if k != "read_ns"})
        for e in tracer.events
    ]


def test_touch_is_fetch_release_on_a_seeded_trace():
    """5,000 mixed accesses over a pool a sixth of the page set: same
    accesses, fewer instructions.  Hits, misses, evictions, write-backs,
    LRU order, disk traffic and the traced event sequence are those of
    the ``fetch`` + ``release`` composition, access by access."""
    page_bytes = 512
    pages = list(range(1, 49))

    def build() -> tuple[BufferPool, Tracer]:
        disk = SimulatedDisk()
        for page_id in pages:
            disk.allocate(page_id, page_bytes)
        tracer = Tracer(RingBufferSink(capacity=50_000))
        return BufferPool(disk, len(pages) // 6 * page_bytes, tracer=tracer), tracer

    (pool, tracer), (twin, twin_tracer) = build(), build()
    rng = random.Random(1991)
    held: list[int] = []
    for step in range(5_000):
        # Skewed like a tree descent: a few hot pages, a long cold tail.
        page_id = pages[min(int(rng.expovariate(0.12)), len(pages) - 1)]
        roll = rng.random()
        if roll < 0.90:
            dirty = rng.random() < 0.1
            pool.touch(page_id, dirty)
            _fetch_release(twin, page_id, dirty)
        elif roll < 0.95 and len(held) < 4:
            pool.fetch(page_id)
            twin.fetch(page_id)
            held.append(page_id)
        elif held:
            page_id = held.pop(rng.randrange(len(held)))
            pool.release(page_id)
            twin.release(page_id)
        elif page_id in pool._frames:
            pool.drop(page_id)
            twin.drop(page_id)
        if step % 250 == 0:
            assert _observable(pool) == _observable(twin)
    assert _observable(pool) == _observable(twin)
    assert _events(tracer) == _events(twin_tracer)
    # The trace exercised what it claims to: both paths, under pressure.
    stats = pool.stats
    assert stats.hits > 1_000 and stats.misses > 1_000 and stats.dirty_writebacks > 50
    assert stats.evictions > 1_000
    pool.verify_accounting()


# ---------------------------------------------------------------------------
# A read's visit, touched in runs (StorageManager._on_access)
# ---------------------------------------------------------------------------
def _spilling_tree_and_queries():
    rng = random.Random(1991)
    tree = SRTree()
    for i in range(2_000):
        x = rng.uniform(0.0, 100.0)
        tree.insert(segment(x, x + rng.expovariate(0.5), rng.uniform(0.0, 1_000.0)))
    queries = []
    for _ in range(300):
        x, y = rng.uniform(0.0, 100.0), rng.uniform(0.0, 1_000.0)
        queries.append(Rect((x, y), (x + rng.uniform(0.0, 8.0), y + rng.uniform(0.0, 80.0))))
    return tree, queries


def test_a_visit_touched_in_runs_is_the_visit_touched_page_by_page():
    """Every read settles its visit with one ``_on_access`` call: hits in
    runs, one pool section each, misses one by one.  A twin manager over
    a twin disk takes the same visits one ``pool.touch`` per node — the
    page-by-page touches they replaced — and the two pools must agree on
    counters, LRU order, disk traffic and events, on a pool ≈ 1/6 of the
    pages."""
    tree, queries = _spilling_tree_and_queries()
    page_bytes = sum(tree.config.node_bytes(n.level) for n in tree.iter_nodes())
    budget = page_bytes // 6
    tracers = Tracer(RingBufferSink(capacity=200_000)), Tracer(RingBufferSink(capacity=200_000))
    twin = StorageManager(tree, buffer_bytes=budget, disk=SimulatedDisk(), tracer=tracers[1])
    mgr = StorageManager(tree, buffer_bytes=budget, disk=SimulatedDisk(), tracer=tracers[0])
    assert mgr._page_of == twin._page_of
    visits: list[list] = []

    def recording(nodes):
        visits.append(list(nodes))
        mgr._on_access(nodes)

    tree._storage_hook = recording
    for i, rect in enumerate(queries):
        kind = query.KINDS[i % len(query.KINDS)]
        tree.query(kind, rect if kind != query.STAB else Rect(rect.lows, rect.lows))
    tree.batch_search(queries[:64])  # one visit per cluster
    tree._storage_hook = mgr._on_access
    for nodes in visits:
        for node in nodes:
            twin.pool.touch(twin._page_of[node.node_id])

    assert sum(map(len, visits)) == mgr.pool.stats.accesses
    assert max(map(len, visits)) > 50  # the batch's one long visit
    assert asdict(mgr.pool.stats) == asdict(twin.pool.stats)
    assert mgr.disk.stats.snapshot() == twin.disk.stats.snapshot()
    assert list(mgr.pool._frames) == list(twin.pool._frames)
    assert _events(tracers[0]) == _events(tracers[1])
    stats = mgr.pool.stats
    assert stats.hits > 500 and stats.misses > 500 and stats.evictions > 500
    mgr.pool.verify_accounting(expect_unpinned=True)


@pytest.mark.parametrize("failures", [1, 2])
def test_a_miss_that_fails_mid_visit_is_retried_and_the_visit_resumes(failures):
    """A transient read error on a miss in the middle of a visit goes
    through the hook's retry loop as a lone access's did — same attempts,
    ``retries`` and ``disk_retry`` fields — and the hits after it are
    counted once."""
    tree, _ = _spilling_tree_and_queries()
    root = tree.root
    a, b, c, d = (br.child for br in root.branches[:4])
    delays: list[float] = []
    tracer = Tracer(RingBufferSink())
    # Reads 1-4 warm the pool; the next one(s) fail.
    faulty = FaultInjectingDisk(
        SimulatedDisk(), [Fault("transient", op="read", at=5 + n) for n in range(failures)]
    )
    policy = RetryPolicy(max_attempts=4, backoff_base=0.01, sleep=delays.append)
    mgr = StorageManager(tree, 1 << 20, disk=faulty, tracer=tracer, retry_policy=policy)
    page = {n: mgr._page_of[n.node_id] for n in (root, a, b, c, d)}
    mgr._on_access([root, a, c, d])
    mgr._on_access([root, a, b, c, d])

    stats = mgr.pool.stats
    assert (stats.hits, stats.misses) == (4, 4 + failures + 1)  # each attempt misses
    assert faulty.stats.retries == failures and faulty.stats.failed_ops == 0
    assert delays == [policy.delay(n + 1) for n in range(failures)]
    assert [e.fields for e in tracer.events if e.etype == "disk_retry"] == [
        {"op": f"touch page {page[b]}", "attempt": n + 1, "delay": policy.delay(n + 1)}
        for n in range(failures)
    ]
    assert list(mgr.pool._frames) == [page[n] for n in (root, a, b, c, d)]
    fetches = [e.fields for e in tracer.events if e.etype == "page_fetch"][4:]
    assert [(f["page_id"], f["hit"]) for f in fetches] == [
        (page[root], True), (page[a], True), (page[b], False), (page[c], True), (page[d], True)
    ]
    assert not mgr.pool._loading
    mgr.pool.verify_accounting(expect_unpinned=True)
