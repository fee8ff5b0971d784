"""Property test: the buffer pool is the LRU pool it claims to be.

Drives randomized ``touch``/``touch_all``/``read``/``write``/``drop``/
``flush`` sequences against a small pool and, step for step, against
:class:`LruModel` — an independent single-threaded model of a
byte-budgeted LRU pool that predicts hits, misses, evictions,
write-backs, resident bytes, the LRU order with each frame's bytes and
dirty bit, the disk's traffic and contents, and the traced events.  The
pool must never differ from it, and :meth:`BufferPool.verify_accounting`
(the invariant battery the multi-threaded stress harness runs) must hold
after every step.

The storage hook's batched form — a whole read's visit, hits touched in
runs — is held the same way against one touch per visited page.
"""

import random
from collections import OrderedDict
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

#: Seven allocatable pages of four sizes; the pool fits ~3 small pages, so
#: sequences regularly evict, and page 7 never fits at all.
PAGE_SIZES = {1: 1024, 2: 1024, 3: 1024, 4: 512, 5: 512, 6: 2048, 7: 4096}
CAPACITY = 3 * 1024


class LruModel:
    """What a byte-budgeted LRU pool over a disk must do, one access at a
    time: a hit moves the page to the MRU end; a miss reads the disk,
    evicts from the LRU end — writing a dirty victim back — until the page
    fits, and installs it at the MRU end."""

    def __init__(self, sizes: dict, capacity: int) -> None:
        self.sizes = dict(sizes)
        self.capacity = capacity
        self.disk = {page_id: bytes(size) for page_id, size in sizes.items()}
        self.frames: "OrderedDict[int, list]" = OrderedDict()  # id -> [bytes, dirty]
        self.hits = self.misses = self.evictions = self.writebacks = 0
        self.disk_reads = self.disk_writes = 0
        self.events: list = []

    @property
    def resident_bytes(self) -> int:
        return sum(self.sizes[page_id] for page_id in self.frames)

    def _write_back(self, page_id: int, frame: list) -> None:
        self.disk[page_id] = frame[0]
        self.disk_writes += 1
        self.writebacks += 1
        frame[1] = False

    def _access(self, page_id: int) -> list:
        size = self.sizes[page_id]
        frame = self.frames.get(page_id)
        if frame is not None:
            self.hits += 1
            self.frames.move_to_end(page_id)
            self.events.append(("page_fetch", {"page_id": page_id, "hit": True, "page_bytes": size}))
            return frame
        self.misses += 1
        self.disk_reads += 1
        if size > self.capacity:
            raise StorageError(f"page {page_id} never fits")
        while self.resident_bytes + size > self.capacity:
            victim_id, victim = next(iter(self.frames.items()))
            dirty = victim[1]
            if dirty:
                self._write_back(victim_id, victim)
            self.events.append(
                ("eviction", {"page_id": victim_id, "dirty": dirty, "page_bytes": self.sizes[victim_id]})
            )
            del self.frames[victim_id]
            self.evictions += 1
        frame = self.frames[page_id] = [self.disk[page_id], False]
        self.events.append(("page_fetch", {"page_id": page_id, "hit": False, "page_bytes": size}))
        return frame

    def touch(self, page_id: int) -> None:
        self._access(page_id)

    def touch_all(self, page_ids: list) -> None:
        for page_id in page_ids:
            self._access(page_id)

    def read(self, page_id: int) -> bytes:
        return self._access(page_id)[0]

    def write(self, page_id: int, image: bytes) -> None:
        if len(image) != self.sizes[page_id]:
            raise StorageError(f"page {page_id}: image of {len(image)} bytes")
        frame = self._access(page_id)
        frame[0] = image
        frame[1] = True

    def drop(self, page_id: int) -> None:
        self.frames.pop(page_id, None)

    def flush(self) -> None:
        for page_id, frame in self.frames.items():
            if frame[1]:
                self._write_back(page_id, frame)

    def observable(self) -> dict:
        return {
            "stats": {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "dirty_writebacks": self.writebacks,
                "load_waits": 0,
            },
            "lru": [(page_id, data, dirty) for page_id, (data, dirty) in self.frames.items()],
            "resident_bytes": self.resident_bytes,
            "disk_io": (self.disk_reads, self.disk_writes),
            "disk": dict(self.disk),
        }


def _observable(pool: BufferPool) -> dict:
    """The pool's side of :meth:`LruModel.observable`."""
    disk = pool.disk
    return {
        "stats": asdict(pool.stats),
        "lru": [(pid, bytes(f.data), f.dirty) for pid, f in pool._frames.items()],
        "resident_bytes": pool.resident_bytes,
        "disk_io": (disk.stats.reads, disk.stats.writes),
        "disk": dict(disk._pages),
    }


def _events(tracer: Tracer) -> list:
    """The pool's event stream without the one wall-clock field."""
    return [
        (e.etype, {k: v for k, v in e.fields.items() if k != "read_ns"})
        for e in tracer.events
    ]


def _no_retry(page_id, error):
    raise AssertionError(f"a simulated disk raised {error!r} on page {page_id}")


def _pool_and_model(
    sizes: dict, capacity: int, traced: bool = True
) -> tuple[BufferPool, "Tracer | None", LruModel]:
    """A pool over ``sizes``'s pages and its model; the pool records its
    events unless ``traced`` is false, when it keeps the disabled tracer
    every workload's pool runs with (and there is no stream to compare)."""
    disk = SimulatedDisk()
    for page_id, size in sizes.items():
        disk.allocate(page_id, size)
    tracer = Tracer(RingBufferSink(capacity=100_000)) if traced else None
    return BufferPool(disk, capacity, tracer=tracer), tracer, LruModel(sizes, capacity)


def _step(pool: BufferPool, model: LruModel, op: str, page_ids: list, fill: int) -> None:
    """Apply one operation to both; they must raise, or return, alike."""
    page_id = page_ids[0]
    # A whole page, but one write in five is a byte short: refused before
    # anything changes, neither spliced over the old image nor padded.
    image = bytes([fill]) * (model.sizes[page_id] - (fill % 5 == 0))
    calls = {
        "touch": (lambda: pool.touch(page_id), lambda: model.touch(page_id)),
        "touch_all": (
            lambda: pool.touch_all(page_ids, _no_retry), lambda: model.touch_all(page_ids)
        ),
        "read": (lambda: pool.read(page_id), lambda: model.read(page_id)),
        "write": (lambda: pool.write(page_id, image), lambda: model.write(page_id, image)),
        "drop": (lambda: pool.drop(page_id), lambda: model.drop(page_id)),
        "flush": (pool.flush, model.flush),
    }
    on_pool, on_model = calls[op]
    outcomes = []
    for call in (on_pool, on_model):
        try:
            outcomes.append(("ok", call()))
        except StorageError:
            outcomes.append(("refused", None))
    assert outcomes[0] == outcomes[1]


_ops = st.lists(
    st.tuples(
        st.sampled_from(["touch", "touch_all", "read", "write", "drop", "flush"]),
        st.lists(st.sampled_from(sorted(PAGE_SIZES)), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=60),  # what a write writes
    ),
    max_size=60,
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ops=_ops, traced=st.booleans())
def test_accounting_invariants_hold(ops, traced):
    """Traced and untraced pools alike (the untraced ``touch_all`` is the
    one every workload runs); the events are compared when recorded."""
    pool, tracer, model = _pool_and_model(PAGE_SIZES, CAPACITY, traced)
    for op, page_ids, fill in ops:
        _step(pool, model, op, page_ids, fill)
        pool.verify_accounting()
        assert _observable(pool) == model.observable()
        assert pool.resident_bytes <= CAPACITY
        assert pool.resident_pages == len(model.frames)
    if traced:
        assert _events(tracer) == model.events


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.sampled_from(sorted(PAGE_SIZES)[:-1]), min_size=1, max_size=40)
)
def test_touch_sequences_never_leak_pins(ops):
    """touch() — the StorageManager access path — holds nothing once it
    returns: the pool balances and is the model after every touch."""
    pool, _, model = _pool_and_model(PAGE_SIZES, CAPACITY)
    for page_id in ops:
        pool.touch(page_id)
        model.touch(page_id)
        pool.verify_accounting()
        assert _observable(pool) == model.observable()
    assert pool.stats.accesses == len(ops)


def test_touch_is_fetch_release_on_a_seeded_trace():
    """5,000 mixed accesses over a pool a sixth of the page set: hits,
    misses, evictions, write-backs, LRU order, disk traffic and contents
    and the traced event sequence are the model's, access by access."""
    page_bytes = 512
    pages = list(range(1, 49))
    sizes = dict.fromkeys(pages, page_bytes)
    pool, tracer, model = _pool_and_model(sizes, len(pages) // 6 * page_bytes)
    rng = random.Random(1991)
    for step in range(5_000):
        # Skewed like a tree descent: a few hot pages, a long cold tail.
        run = [pages[min(int(rng.expovariate(0.12)), len(pages) - 1)] for _ in range(4)]
        roll = rng.random()
        op = (
            "touch" if roll < 0.70 else
            "touch_all" if roll < 0.78 else
            "read" if roll < 0.86 else
            "write" if roll < 0.96 else
            "drop" if roll < 0.995 else
            "flush"
        )
        _step(pool, model, op, run, rng.randrange(1, 60))
        if step % 250 == 0:
            assert _observable(pool) == model.observable()
    assert _observable(pool) == model.observable()
    assert _events(tracer) == model.events
    # The trace exercised what it claims to: every path, under pressure.
    stats = pool.stats
    assert stats.hits > 1_000 and stats.misses > 1_000 and stats.dirty_writebacks > 50
    assert stats.evictions > 1_000
    pool.verify_accounting()


# ---------------------------------------------------------------------------
# A read's visit, touched in runs (StorageManager._on_access)
# ---------------------------------------------------------------------------
class _CountingMutex:
    """The pool's mutex, counting the critical sections entered on it."""

    def __init__(self, cond):
        self._cond = cond
        self.sections = 0

    def __enter__(self):
        self.sections += 1
        return self._cond.__enter__()

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._cond, name)


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize(
    "resident, visit, capacity_pages",
    [
        ([1, 2, 3], [1, 2, 3], 8),  # hits only
        ([2, 4], [1, 2, 3, 4, 5], 8),  # misses first, between hits and last
        ([], [1, 2, 3, 4], 8),  # a run of misses
        ([1, 2, 3], [4, 1, 5, 6, 2, 7], 3),  # misses that evict
    ],
)
def test_a_visit_with_k_misses_takes_k_plus_one_pool_sections(
    resident, visit, capacity_pages, traced
):
    """Each miss's install shares the section that counts the hits after
    it, so a visit enters the pool mutex once, plus once per miss — with
    the tracer on or off."""
    sizes = dict.fromkeys(range(1, 9), 512)
    pool, tracer, model = _pool_and_model(sizes, capacity_pages * 512, traced)
    for page_id in resident:
        pool.touch(page_id)
        model.touch(page_id)
    counting = pool._cond = _CountingMutex(pool._cond)
    misses_before = pool.stats.misses
    pool.touch_all(visit, _no_retry)
    model.touch_all(visit)
    k = pool.stats.misses - misses_before
    assert counting.sections == k + 1
    assert _observable(pool) == model.observable()
    if traced:
        assert _events(tracer) == model.events


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
    mgr.pool.verify_accounting()


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
    mgr.pool.verify_accounting()
