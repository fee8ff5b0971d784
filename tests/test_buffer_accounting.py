"""Property test: buffer-pool accounting survives arbitrary op sequences.

Drives randomized ``fetch``/``release``/``touch``/``drop``/``flush``
sequences against a small pool with a single-threaded oracle tracking the
expected pin state, and asserts :meth:`BufferPool.verify_accounting`
(the same invariant battery the multi-threaded stress harness runs) plus
stats consistency after every step.

``touch`` is differential throughout: a twin pool takes the same steps
with every ``touch`` spelled as the ``fetch`` + ``release`` it replaced,
and the two must never differ in anything a caller or the disk can see.
"""

import random
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Tracer
from repro.exceptions import StorageError
from repro.obs import RingBufferSink
from repro.storage import BufferPool, SimulatedDisk

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
