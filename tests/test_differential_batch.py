"""Differential test oracle for batched search.

Hypothesis drives random *interleavings* of inserts, deletes, and
sequential and batched searches against every index variant batched
search supports, and cross-checks each variant against a brute-force
oracle (a plain dict of live record -> rectangle).  Any divergence —
a search result that differs from the linear scan, a delete that
removes the wrong thing, a structural invariant broken mid-interleaving
— shrinks to a minimal operation sequence.

Examples per variant default to 200 (the CI bar from the issue) and are
tunable/seedable without editing the file:

* ``REPRO_DIFF_EXAMPLES=1000`` — run more examples per variant;
* ``REPRO_DIFF_SEED=42`` — re-randomize from a fixed seed (by default
  runs are derandomized so CI is reproducible);
* ``pytest --hypothesis-seed=N`` also works, as everywhere else.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import given
from hypothesis import strategies as st

from repro import IndexConfig, Rect, RTree, SRTree, check_index, pack_tree
from repro.core import SkeletonRTree, SkeletonSRTree, batch_search

ALL_KINDS = ("rtree", "srtree", "skeleton-rtree", "skeleton-srtree", "packed")

#: Small domain + tiny nodes: a few dozen records already force splits,
#: spanning placement, demotion and coalescing, so shrunk examples stay
#: readable.
DOMAIN = [(0.0, 1000.0), (0.0, 1000.0)]
CONFIG = IndexConfig(leaf_node_bytes=200, entry_bytes=40, coalesce_interval=25)

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))
_SEED = os.environ.get("REPRO_DIFF_SEED")

DIFF_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=_SEED is None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _seeded(fn):
    """Apply ``REPRO_DIFF_SEED`` when given (otherwise runs derandomize)."""
    return seed(int(_SEED))(fn) if _SEED is not None else fn


# ---------------------------------------------------------------------------
# Operation strategies
# ---------------------------------------------------------------------------
def _coord():
    return st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def _boxes(draw):
    """Boxes biased toward the shapes the paper cares about: points,
    horizontal segments (degenerate in Y), and long spanning intervals."""
    shape = draw(st.sampled_from(["box", "segment", "long"]))
    a, b = draw(_coord()), draw(_coord())
    if shape == "long":
        y = draw(_coord())
        return Rect((0.0, y), (1000.0, y))
    if shape == "segment":
        y = draw(_coord())
        return Rect((min(a, b), y), (max(a, b), y))
    c, d = draw(_coord()), draw(_coord())
    return Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))


@st.composite
def _ops(draw):
    """A short interleaving of mutations and sequential/batched probes."""
    n = draw(st.integers(min_value=2, max_value=8))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["insert", "delete", "search", "batch_search"]))
        if kind == "insert":
            ops.append((kind, draw(st.lists(_boxes(), min_size=1, max_size=8))))
        elif kind == "delete":
            # (victim selector, use the true rect as a hint?)
            ops.append((kind, draw(st.integers(min_value=0, max_value=10**6)),
                        draw(st.booleans())))
        elif kind == "search":
            ops.append((kind, draw(_boxes())))
        else:
            ops.append((kind, draw(st.lists(_boxes(), min_size=1, max_size=4))))
    return ops


# ---------------------------------------------------------------------------
# Oracle machinery
# ---------------------------------------------------------------------------
def _build(kind: str):
    """An index of ``kind`` plus the oracle dict covering its contents."""
    if kind == "rtree":
        return RTree(CONFIG), {}
    if kind == "srtree":
        return SRTree(CONFIG), {}
    if kind == "skeleton-rtree":
        return (
            SkeletonRTree(
                CONFIG, expected_tuples=60, domain=DOMAIN, prediction_fraction=0.25
            ),
            {},
        )
    if kind == "skeleton-srtree":
        return (
            SkeletonSRTree(
                CONFIG, expected_tuples=60, domain=DOMAIN, prediction_fraction=0.25
            ),
            {},
        )
    if kind == "packed":
        # Packed trees start life bulk-loaded; ids are 1..n by contract.
        base = [
            Rect((float(i * 37 % 1000), float(i * 59 % 1000)),
                 (float(i * 37 % 1000) + 20.0, float(i * 59 % 1000) + 20.0))
            for i in range(30)
        ]
        tree = pack_tree([(r, None) for r in base], CONFIG, SRTree)
        return tree, {rid: rect for rid, rect in enumerate(base, start=1)}
    raise AssertionError(kind)


def _oracle_hits(live: dict[int, Rect], query: Rect) -> set[int]:
    return {rid for rid, rect in live.items() if rect.intersects(query)}


def _assert_search_agrees(tree, live, query):
    got = {rid for rid, _ in tree.search(query)}
    want = _oracle_hits(live, query)
    assert got == want, f"sequential search diverged: extra={got - want} missing={want - got}"


def _apply(tree, live: dict[int, Rect], op) -> None:
    if op[0] == "insert":
        for rect in op[1]:
            rid = tree.insert(rect)
            assert rid not in live, "insert reused a live record id"
            live[rid] = rect
    elif op[0] == "delete":
        _, selector, with_hint = op
        if not live:
            assert not tree.delete(selector + 10**7), "delete invented a record"
            return
        victim = sorted(live)[selector % len(live)]
        hint = live[victim] if with_hint else None
        assert tree.delete(victim, hint), f"delete lost record {victim}"
        del live[victim]
    elif op[0] == "search":
        _assert_search_agrees(tree, live, op[1])
    elif op[0] == "batch_search":
        queries = op[1]
        batched = batch_search(tree, queries)
        for query, result in zip(queries, batched):
            got = {rid for rid, _ in result}
            want = _oracle_hits(live, query)
            assert got == want, (
                f"batch search diverged on {query}: "
                f"extra={got - want} missing={want - got}"
            )
    else:  # pragma: no cover - strategy and dispatch must stay in sync
        raise AssertionError(op)


def _run_differential(kind: str, ops) -> None:
    tree, live = _build(kind)
    for op in ops:
        _apply(tree, live, op)
    # Closing audit: structure is sound, size agrees, and one batched
    # full-domain + spot query sweep agrees with the oracle.
    if hasattr(tree, "flush"):
        tree.flush()
    check_index(tree)
    assert len(tree) == len(live)
    whole = Rect((0.0, 0.0), (1000.0, 1000.0))
    probes = [whole, Rect((100.0, 100.0), (400.0, 400.0))]
    for query, result in zip(probes, batch_search(tree, probes)):
        assert {rid for rid, _ in result} == _oracle_hits(live, query)
        _assert_search_agrees(tree, live, query)


# ---------------------------------------------------------------------------
# One hypothesis test per variant (>= 200 examples each in CI)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
@_seeded
@DIFF_SETTINGS
@given(ops=_ops())
def test_differential_interleavings(kind, ops):
    _run_differential(kind, ops)


def test_example_budget_meets_ci_bar():
    """The issue requires >= 200 examples per variant in CI."""
    assert DIFF_SETTINGS.max_examples >= 200 or "REPRO_DIFF_EXAMPLES" in os.environ
