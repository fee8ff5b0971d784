"""Conformance matrix for the one query surface (``repro.core.query``).

Every layer that answers queries inherits the same seven read methods
from ``QuerySurface`` and runs the same kernel, so one brute-force oracle
checks them all:

    {R, SR, Skeleton R, Skeleton SR, packed SR}
      x {bare tree, latched engine, MVCC engine, held snapshot}
      x {search, stab, search_ids, count, search_within,
         search_containing, batch_search}

plus a 2-shard local ``ShardRouter`` and ``ShardedService.handle_frame``
(their workers always run a plain R-Tree, so the variant axis does not
apply; the service is asked the four query frames its protocol has — over
the local transport, which keeps to the executor, and over two process
shards whose pipes the loop reads, where every frame is an awaited plan),
and the R+-Tree for the three kinds it exposes.  The drift this module pins —
each case failed on the commit before ``core/query.py`` existed — sits
below the matrix: prediction-phase skeletons, dimension-mismatched
queries, and the structural assertion that no layer re-declares a method
of the surface.
"""

import asyncio
import functools
import random

import pytest

from repro import (
    ConcurrentIndex,
    IndexConfig,
    Rect,
    RPlusTree,
    RTree,
    SkeletonRTree,
    SkeletonSRTree,
    SRPlusTree,
    SRTree,
    pack_tree,
)
from repro.concurrency import Snapshot
from repro.core import query
from repro.core.skeleton import SkeletonMixin
from repro.exceptions import ConfigError
from repro.sharding import ShardedService, ShardRouter, ShardWorker, build_router, wire
from repro.storage import StorageManager

from .conftest import (
    CUT_CONFIG,
    cut_heavy_rects,
    fragment_aligned_queries,
    random_boxes,
    random_segments,
)

SIDE = 100_000.0
DOMAIN = [(0.0, SIDE), (0.0, SIDE)]
CONFIG = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)
SURFACE = (
    "search",
    "stab",
    "search_ids",
    "count",
    "search_within",
    "search_containing",
    "batch_search",
)
VARIANTS = ("R", "SR", "SkR", "SkSR", "packedSR")
LAYERS = ("bare", "latched", "mvcc", "snapshot")


def _rects():
    """Short and long segments plus boxes, in insertion (= record id) order."""
    mixed = random_segments(200, seed=5, long_fraction=0.4) + random_boxes(80, seed=6)
    random.Random(7).shuffle(mixed)
    return mixed


def _queries(data):
    rng = random.Random(8)
    out = [Rect((0.0, 0.0), (SIDE, SIDE)), data[3], data[11]]
    for _ in range(8):
        cx, cy = rng.uniform(0, SIDE * 0.9), rng.uniform(0, SIDE * 0.9)
        w, h = rng.uniform(10, 40_000), rng.uniform(10, 40_000)
        out.append(Rect((cx, cy), (min(cx + w, SIDE), min(cy + h, SIDE))))
    for rect in data[20:24]:  # small boxes inside stored records: containing hits
        c = rect.center
        out.append(Rect(c, c))
    return out


def _build(variant, data, config=CONFIG):
    if variant == "packedSR":
        return pack_tree([(r, None) for r in data], config, SRTree)
    if variant.startswith("Sk"):
        cls = {"SkR": SkeletonRTree, "SkSR": SkeletonSRTree}[variant]
        tree = cls(
            config, expected_tuples=len(data), domain=DOMAIN, prediction_fraction=0.1
        )
    else:
        tree = {"R": RTree, "SR": SRTree}[variant](config)
    for rect in data:
        tree.insert(rect)
    return tree


@functools.lru_cache(maxsize=None)
def _target(variant, layer, cut_heavy=False):
    """(surface object, rid -> rect) for one cell; built once per cell row
    and never mutated afterwards.  ``cut_heavy``: the data and node sizes
    that make an SR-Tree cut a hundred records and more."""
    data = cut_heavy_rects(1500, seed=9, domain=SIDE) if cut_heavy else _rects()
    tree = _build(variant, data, CUT_CONFIG if cut_heavy else CONFIG)
    model = dict(enumerate(data, start=1))
    if layer == "bare":
        return tree, model
    if layer == "latched":
        return ConcurrentIndex(tree), model
    engine = ConcurrentIndex(
        tree, storage=StorageManager(tree, buffer_bytes=1 << 20), mvcc=True
    )
    return (engine if layer == "mvcc" else engine.open_snapshot()), model


@functools.lru_cache(maxsize=None)
def _router():
    data = _rects()
    router = build_router(
        2, bounds=Rect((0.0, 0.0), (SIDE, SIDE)), transport="local"
    )
    for rect in data:
        router.insert(rect)
    return router, dict(enumerate(data, start=1))


def _expected(kind, model, q):
    if kind == "search_within":
        return {rid for rid, r in model.items() if q.contains(r)}
    if kind == "search_containing":
        return {rid for rid, r in model.items() if r.contains(q)}
    return {rid for rid, r in model.items() if r.intersects(q)}


def _ids(hits):
    ids = [rid for rid, _ in hits]
    assert len(ids) == len(set(ids)), "a record was reported twice"
    return set(ids)


def _check(target, model, kind):
    queries = _queries(list(model.values()))
    if kind == "batch_search":
        batched = target.batch_search(queries)
        assert [_ids(hits) for hits in batched] == [
            _expected("search", model, q) for q in queries
        ]
        assert target.batch_search([]) == []
        return
    for q in queries:
        want = _expected(kind, model, q)
        if kind == "stab":
            point = q.center
            want = _expected("search", model, Rect(point, point))
            assert _ids(target.stab(*point)) == want
        elif kind == "search_ids":
            assert target.search_ids(q) == want
        elif kind == "count":
            assert target.count(q) == len(want)
        else:
            assert _ids(getattr(target, kind)(q)) == want


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", SURFACE)
@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_surface_matches_brute_force(variant, layer, kind):
    target, model = _target(variant, layer)
    _check(target, model, kind)
    if layer == "snapshot":
        assert len(target) == len(model)


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("variant", ("SR", "SkSR"))
def test_within_matches_brute_force_on_fragment_bounds(variant, layer):
    """The ``search_within`` rows again, where the kernel's tiling argument
    (``query.within``) is tightest: queries that end where records were cut."""
    target, model = _target(variant, layer, cut_heavy=True)
    pieces = {}
    for rid, rect, _ in _target(variant, "bare", cut_heavy=True)[0].items():
        pieces.setdefault(rid, []).append(rect)
    assert sum(len(rects) > 1 for rects in pieces.values()) >= 100
    for q in fragment_aligned_queries(pieces, seed=10):
        assert _ids(target.search_within(q)) == _expected("search_within", model, q)


@pytest.mark.parametrize("kind", SURFACE)
def test_router_matches_brute_force(kind):
    router, model = _router()
    _check(router, model, kind)


@pytest.mark.parametrize("kind", query.KINDS)
def test_service_frames_match_brute_force(kind):
    router, model = _router()
    service = ShardedService(router)
    for q in _queries(list(model.values())):
        if kind == "stab":
            point = q.center
            want = _expected("search", model, Rect(point, point))
            frame = {"op": "stab", "coords": list(point)}
        else:
            want = _expected(kind, model, q)
            frame = {"op": kind, "lows": list(q.lows), "highs": list(q.highs)}
        reply = asyncio.run(service.handle_frame(frame))
        assert reply["ok"], reply
        assert _ids(reply["value"]) == want


@pytest.mark.parametrize("kind", query.KINDS)
def test_served_process_shards_match_brute_force(kind):
    """The same frames where a frame is an awaited plan: data and queries
    both go through ``handle_frame`` on one loop that owns the shard pipes."""
    data = _rects()
    model = dict(enumerate(data, start=1))
    router = build_router(
        2, bounds=Rect((0.0, 0.0), (SIDE, SIDE)), transport="process"
    )
    service = ShardedService(router)

    async def drive():
        for rid, rect in model.items():
            frame = {"op": "insert", "lows": list(rect.lows), "highs": list(rect.highs)}
            assert await service.handle_frame(frame) == {"ok": True, "value": rid}
        assert service._on_loop and all(c._receiver is None for c in router._clients.values())
        for q in _queries(data):
            if kind == "stab":
                point = q.center
                want = _expected("search", model, Rect(point, point))
                frame = {"op": "stab", "coords": list(point)}
            else:
                want = _expected(kind, model, q)
                frame = {"op": kind, "lows": list(q.lows), "highs": list(q.highs)}
            reply = await service.handle_frame(frame)
            assert reply["ok"], reply
            assert _ids(reply["value"]) == want

    try:
        asyncio.run(drive())
    finally:
        router.close()


@pytest.mark.parametrize("cls", [RPlusTree, SRPlusTree])
@pytest.mark.parametrize("kind", SURFACE)
def test_rplus_matches_brute_force(cls, kind):
    """The partitioned trees answer through the same surface and kernel:
    a replica is a fragment like a cut's remnant, so every kind holds."""
    data = _rects()
    tree = cls(CONFIG, domain=DOMAIN)
    model = {tree.insert(rect): rect for rect in data}
    _check(tree, model, kind)


def test_payloads_ride_along_on_every_layer():
    tree = SRTree(CONFIG)
    data = _rects()[:40]
    for i, rect in enumerate(data):
        tree.insert(rect, payload=f"p{i}")
    engine = ConcurrentIndex(tree, storage=StorageManager(tree), mvcc=True)
    everything = Rect((0.0, 0.0), (SIDE, SIDE))
    want = {rid: f"p{rid - 1}" for rid in range(1, len(data) + 1)}
    with engine.open_snapshot() as snap:
        for target in (tree, engine, snap):
            assert dict(target.search(everything)) == want
            assert dict(target.search_within(everything)) == want
        assert {rid: p for rid, _, p in snap.items()} == want


# ---------------------------------------------------------------------------
# Drift the single surface removed
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SkeletonRTree, SkeletonSRTree])
def test_prediction_phase_skeleton_answers_every_kind(cls):
    """Records still in the predictor's buffer are part of the index:
    every query kind, ``items()`` and ``len`` see them."""
    tree = cls(CONFIG, expected_tuples=400, domain=DOMAIN, prediction_fraction=0.1)
    model = {tree.insert(rect): rect for rect in _rects()[:30]}
    assert tree.predicting
    for kind in SURFACE:
        _check(tree, model, kind)
    assert {rid: rect for rid, rect, _ in tree.items()} == model
    assert len(tree) == len(model)
    tree.flush()
    assert not tree.predicting
    for kind in SURFACE:
        _check(tree, model, kind)


def _mismatched_calls(target):
    """One call per surface method, each with a 1-D and a 3-D query
    against a 2-D index."""
    for bad in (Rect((1.0,), (2.0,)), Rect((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))):
        yield lambda: target.search(bad)
        yield lambda: target.search_ids(bad)
        yield lambda: target.count(bad)
        yield lambda: target.search_within(bad)
        yield lambda: target.search_containing(bad)
        yield lambda: target.batch_search([Rect((0.0, 0.0), (1.0, 1.0)), bad])
        yield lambda: target.stab(*bad.lows)


@pytest.mark.parametrize("layer", LAYERS + ("router",))
def test_dimension_mismatch_is_a_config_error_everywhere(layer):
    target = _router()[0] if layer == "router" else _target("SR", layer)[0]
    for call in _mismatched_calls(target):
        with pytest.raises(ConfigError, match="dimensions"):
            call()


def test_worker_rejects_a_mismatched_query_over_the_wire():
    router, _ = _router()
    worker = next(iter(router._clients.values())).worker
    reply = worker.handle(wire.Request(wire.OP_SEARCH, ((1.0,), (2.0,)), 0))
    assert (reply.ok, reply.error_type) == (False, "ConfigError")


# ---------------------------------------------------------------------------
# Structure: one declaration, one kernel
# ---------------------------------------------------------------------------
def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_layer_redeclares_the_surface():
    layers = {RTree, SkeletonMixin, ConcurrentIndex, Snapshot, ShardRouter}
    layers.update(_subclasses(RTree))
    for cls in layers:
        redeclared = set(SURFACE) & set(vars(cls))
        assert not redeclared, f"{cls.__name__} re-declares {sorted(redeclared)}"
        if cls is not SkeletonMixin:
            for name in SURFACE:
                assert getattr(cls, name) is getattr(query.QuerySurface, name)


def test_hand_written_traversals_are_gone():
    gone = {
        RTree: ("_search_into", "_collect_fragments"),
        Snapshot: ("_collect_fragments",),
        ShardWorker: ("_op_search", "_op_stab", "_op_within", "_op_containing"),
        ShardedService: ("search", "stab", "search_within", "search_containing", "insert"),
    }
    for cls, names in gone.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name} is back"
    assert set(query.KINDS) == {
        wire.OP_SEARCH, wire.OP_STAB, wire.OP_WITHIN, wire.OP_CONTAINING
    }
