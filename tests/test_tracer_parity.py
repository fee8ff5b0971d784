"""A traced read computes what an untraced read computes.

A read takes one of two paths through each layer: with the tracer off it
builds no span and emits nothing; with a recording tracer it opens a span
and emits ``node_access`` (and, in a pool, ``page_fetch``) events.  Here
the same query set runs over two identical indexes, one of them traced,
and everything a query computes must agree: the answers in order, the
tree's ``node_accesses`` / ``accesses_by_level`` / ``searches`` /
``search_node_accesses`` and, behind storage, the pool's hits, misses and evictions.  On the
traced side the ``node_access`` events of each query, counted per level,
are that query's ``accesses_by_level`` delta.

Covered: R, SR, Skeleton R, Skeleton SR (built, and still predicting:
its buffer is read outside the nodes), the R+-Tree (which emits no read events) and a
latched SR-Tree engine on ``FileDisk`` + WAL whose pool evicts.
"""

from collections import Counter

import pytest

from repro import (
    ConcurrentIndex,
    IndexConfig,
    Rect,
    RPlusTree,
    RTree,
    SkeletonRTree,
    SkeletonSRTree,
    SRTree,
    Tracer,
)
from repro.obs import RingBufferSink
from repro.storage import FileDisk, StorageManager, WriteAheadLog, wal_directory_for

from .conftest import random_boxes, random_segments

SIDE = 100_000.0
DOMAIN = [(0.0, SIDE), (0.0, SIDE)]
CONFIG = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)
VARIANTS = ("R", "SR", "SkR", "SkSR", "SkSR-predicting", "R+")


def _data() -> list[Rect]:
    return random_segments(400, seed=11, long_fraction=0.4) + random_boxes(150, seed=12)


def _queries(data: list[Rect]) -> list[Rect]:
    out = [Rect((0.0, 0.0), (SIDE, SIDE))]
    for i in range(0, 300, 15):
        r = data[i]
        out.append(Rect(r.lows, (r.highs[0] + 5_000.0, r.highs[1] + 9_000.0)))
    return out


def _build(variant: str, data: list[Rect]):
    if variant == "R+":
        tree = RPlusTree(CONFIG, domain=DOMAIN)
    elif variant.startswith("Sk"):
        cls = SkeletonRTree if variant == "SkR" else SkeletonSRTree
        # Predicting: the skeleton waits for twice the data, so every
        # record is still in the prediction buffer, read beside the nodes.
        expected = 2 * len(data) if variant.endswith("predicting") else len(data)
        tree = cls(CONFIG, expected_tuples=expected, domain=DOMAIN, prediction_fraction=0.6)
    else:
        tree = (RTree if variant == "R" else SRTree)(CONFIG)
    for rect in data:
        tree.insert(rect, rect.lows)
    return tree


def _reads(index, queries: list[Rect]):
    """Each kind of read once per query, then the whole set as a batch."""
    for rect in queries:
        yield "search", lambda rect=rect: index.search(rect)
        yield "stab", lambda rect=rect: index.stab(*rect.lows)
        yield "search_within", lambda rect=rect: index.search_within(rect)
        yield "search_containing", lambda rect=rect: index.search_containing(rect)
    yield "batch_search", lambda: index.batch_search(queries)


def _counts(tree, pool) -> tuple:
    stats = tree.stats
    counted = (
        stats.node_accesses,
        Counter(stats.accesses_by_level),
        stats.searches,
        stats.search_node_accesses,
    )
    if pool is None:
        return counted
    return (*counted, pool.stats.hits, pool.stats.misses, pool.stats.evictions)


def _run(index, tree, pool, queries, tracer=None):
    """Per read: its answer, the counts it added, and (traced) its
    ``node_access`` events per level."""
    out = []
    for kind, read in _reads(index, queries):
        before = _counts(tree, pool)
        seen = len(tracer.events) if tracer is not None else 0
        answer = read()
        after = _counts(tree, pool)
        delta = tuple(b - a for a, b in zip(before, after))
        out.append((kind, answer, delta))
        if tracer is not None:
            levels = Counter(
                e.fields["level"] for e in tracer.events[seen:] if e.etype == "node_access"
            )
            accessed_by_level = delta[1]
            if isinstance(tree, RPlusTree):
                assert not levels  # the R+-Tree traces its builds, not its reads
            else:
                assert levels == accessed_by_level, kind
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_traced_tree_reads_what_an_untraced_one_reads(variant):
    data = _data()
    queries = _queries(data)
    plain, traced = _build(variant, data), _build(variant, data)
    tracer = Tracer(RingBufferSink(capacity=1_000_000))
    traced.tracer = tracer
    want = _run(plain, plain, None, queries)
    got = _run(traced, traced, None, queries, tracer)
    assert got == want
    accessed = sum(delta[0] for _, _, delta in want)
    if variant.endswith("predicting"):
        assert traced._loose_entries() and accessed == len(want)  # the root and the buffer
    else:
        assert accessed > len(want)  # the reads descended


def test_a_traced_engine_reads_what_an_untraced_one_reads(tmp_path):
    """A latched SR-Tree on ``FileDisk`` + WAL, its pool a fraction of the
    tree: the same answers, node counts and pool hits, misses and
    evictions with the tracer on as off."""
    data = _data()
    queries = _queries(data)
    tracer = Tracer(RingBufferSink(capacity=1_000_000))
    runs = []
    for name, trace in (("plain", None), ("traced", tracer)):
        tree = _build("SR", data)
        path = tmp_path / f"{name}.db"
        disk, wal = FileDisk(path), WriteAheadLog(wal_directory_for(path))
        manager = StorageManager(tree, buffer_bytes=8 * 1024, disk=disk, wal=wal)
        manager.checkpoint()
        if trace is not None:
            manager.set_tracer(trace)
        engine = ConcurrentIndex(tree, storage=manager)
        try:
            runs.append(_run(engine, tree, manager.pool, queries, trace))
            assert manager.pool.stats.evictions > 0  # the pool spilled
        finally:
            manager.detach()
            wal.close()
            disk.close()
    assert runs[0] == runs[1]
    assert any(e.etype == "page_fetch" for e in tracer.events)
