"""Differential oracle for the sharded serving tier.

Hypothesis drives random interleavings of inserts, deletes and every
read class through a 4-shard :class:`~repro.sharding.ShardRouter`
(local transport, so thousands of interleavings run per second) and
through a single :class:`~repro.concurrency.ConcurrentIndex` over one
tree, and asserts the two produce **byte-identical result sets** —
same record ids, same payloads, same order after the router's rid sort.
Sharding is supposed to be invisible to clients; any divergence shrinks
to a minimal operation sequence.

A second battery interleaves rebalances (``split_shard``) into the
workload and asserts the no-lost-no-duplicated-records invariant across
splits, cross-checked against the same single-index oracle.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.concurrency import ConcurrentIndex
from repro.core.geometry import Rect
from repro.core.rtree import RTree
from repro.sharding import build_router

DOMAIN_LO, DOMAIN_HI = 0.0, 1000.0
BOUNDS = Rect((DOMAIN_LO, DOMAIN_LO), (DOMAIN_HI, DOMAIN_HI))

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))
_SEED = os.environ.get("REPRO_DIFF_SEED")

ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=_SEED is None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _seeded(fn):
    return seed(int(_SEED))(fn) if _SEED is not None else fn


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
def _coord():
    return st.floats(
        min_value=DOMAIN_LO,
        max_value=DOMAIN_HI,
        allow_nan=False,
        allow_infinity=False,
    )


@st.composite
def _rect(draw, max_side: float = 120.0):
    lows = (draw(_coord()), draw(_coord()))
    sides = (
        draw(st.floats(min_value=0.0, max_value=max_side)),
        draw(st.floats(min_value=0.0, max_value=max_side)),
    )
    highs = (
        min(DOMAIN_HI, lows[0] + sides[0]),
        min(DOMAIN_HI, lows[1] + sides[1]),
    )
    return Rect(lows, highs)


@st.composite
def _op(draw):
    kind = draw(
        st.sampled_from(
            ("insert", "insert", "insert", "delete", "search", "stab",
             "within", "containing")
        )
    )
    if kind == "insert":
        return ("insert", draw(_rect()), draw(st.integers(0, 1_000)))
    if kind == "delete":
        # Index into the inserted-so-far list (modulo at execution time).
        return ("delete", draw(st.integers(0, 200)))
    if kind == "stab":
        return ("stab", (draw(_coord()), draw(_coord())))
    return (kind, draw(_rect(max_side=400.0)))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def _run_reads(router, engine, op):
    kind = op[0]
    if kind == "search":
        return router.search(op[1]), engine.search(op[1])
    if kind == "stab":
        return router.stab(*op[1]), engine.stab(*op[1])
    if kind == "within":
        return router.search_within(op[1]), engine.search_within(op[1])
    if kind == "containing":
        return router.search_containing(op[1]), engine.search_containing(op[1])
    raise AssertionError(kind)


def _apply_all(router, engine, ops, *, split_every: int | None = None):
    """Run one interleaving through both systems, comparing after each op."""
    inserted: list[int] = []  # rids handed out (identical on both sides)
    live: set[int] = set()
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "insert":
            _, rect, payload = op
            rid_r = router.insert(rect, payload)
            rid_e = engine.insert(rect, payload)
            assert rid_r == rid_e, (rid_r, rid_e)
            inserted.append(rid_r)
            live.add(rid_r)
        elif kind == "delete":
            if not inserted:
                continue
            rid = inserted[op[1] % len(inserted)]
            got_r = router.delete(rid)
            got_e = engine.delete(rid)
            assert (got_r > 0) == (got_e > 0), (rid, got_r, got_e)
            live.discard(rid)
        else:
            got, want = _run_reads(router, engine, op)
            assert got == sorted(want, key=lambda item: item[0]), (
                step,
                op,
                got,
                want,
            )
        if split_every and step and step % split_every == 0:
            # Split whichever shard currently holds the most records.
            stats = router.stats()["records_per_shard"]
            hottest = max(stats, key=lambda sid: stats[sid])
            router.split_shard(hottest)  # None (unsplittable) is fine
            # Invariant: a split never loses or duplicates a record.
            everything = router.search(BOUNDS)
            assert [rid for rid, _ in everything] == sorted(live)
    # Final full-domain sweep: exact same live set, byte-identical.
    got_all = router.search(BOUNDS)
    want_all = sorted(engine.search(BOUNDS), key=lambda item: item[0])
    assert got_all == want_all
    assert [rid for rid, _ in got_all] == sorted(live)


def _fresh_pair():
    router = build_router(
        4, bounds=BOUNDS, transport="local", timeout_s=30.0
    )
    engine = ConcurrentIndex(RTree())
    return router, engine


# ---------------------------------------------------------------------------
# The batteries
# ---------------------------------------------------------------------------
@_seeded
@ORACLE_SETTINGS
@given(ops=st.lists(_op(), min_size=1, max_size=60))
def test_router_matches_single_index(ops):
    router, engine = _fresh_pair()
    try:
        _apply_all(router, engine, ops)
    finally:
        router.close()
        engine.detach()


@_seeded
@ORACLE_SETTINGS
@given(ops=st.lists(_op(), min_size=10, max_size=60))
def test_router_matches_single_index_across_splits(ops):
    """Same contract with rebalances interleaved mid-workload."""
    router, engine = _fresh_pair()
    try:
        _apply_all(router, engine, ops, split_every=7)
    finally:
        router.close()
        engine.detach()


def test_rebalance_mid_workload_loses_nothing():
    """Deterministic rebalance storm: split after every 10 inserts while
    deleting every 3rd record; the live set must survive every split."""
    router, _ = _fresh_pair()
    try:
        live: set[int] = set()
        for i in range(120):
            x = (i * 37.0) % 900.0
            y = (i * 61.0) % 900.0
            rid = router.insert(Rect((x, y), (x + 5.0, y + 5.0)), i)
            live.add(rid)
            if i % 3 == 2:
                router.delete(rid)
                live.discard(rid)
            if i % 10 == 9:
                stats = router.stats()["records_per_shard"]
                hottest = max(stats, key=lambda sid: stats[sid])
                router.split_shard(hottest)
                got = [rid for rid, _ in router.search(BOUNDS)]
                assert got == sorted(live), f"after split at i={i}"
        assert router.stats()["rebalances"] >= 10
    finally:
        router.close()
