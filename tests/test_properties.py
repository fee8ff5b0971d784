"""Property-based tests: every index type behaves like a brute-force set
of rectangles under arbitrary operation sequences."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    IndexConfig,
    Rect,
    RTree,
    SkeletonRTree,
    SkeletonSRTree,
    SRTree,
    check_index,
)

from .conftest import rects, segments_2d

_TINY = IndexConfig(leaf_node_bytes=200, entry_bytes=40, coalesce_interval=25)


def _make(cls):
    if cls in (SkeletonRTree, SkeletonSRTree):
        return cls(
            _TINY,
            expected_tuples=120,
            domain=[(0.0, 1000.0), (0.0, 1000.0)],
            prediction_fraction=0.1,
        )
    return cls(_TINY)


@pytest.mark.parametrize("cls", [RTree, SRTree, SkeletonRTree, SkeletonSRTree])
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_index_matches_model_under_inserts_and_queries(cls, data):
    tree = _make(cls)
    model: dict[int, Rect] = {}
    boxes = data.draw(st.lists(rects(), min_size=1, max_size=60))
    for box in boxes:
        model[tree.insert(box)] = box
    if hasattr(tree, "flush"):
        tree.flush()
    check_index(tree)
    queries = data.draw(st.lists(rects(), min_size=1, max_size=8))
    for q in queries:
        want = {rid for rid, r in model.items() if r.intersects(q)}
        assert tree.search_ids(q) == want


@pytest.mark.parametrize("cls", [RTree, SRTree, SkeletonRTree, SkeletonSRTree])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_index_matches_model_with_deletions(cls, data):
    tree = _make(cls)
    model: dict[int, Rect] = {}
    boxes = data.draw(st.lists(segments_2d(), min_size=2, max_size=50))
    for box in boxes:
        model[tree.insert(box)] = box
    victims = data.draw(
        st.lists(st.sampled_from(sorted(model)), max_size=len(model), unique=True)
    )
    for rid in victims:
        removed = tree.delete(rid, hint=model.pop(rid))
        assert removed >= 1
    check_index(tree)
    q = Rect((0.0, 0.0), (1000.0, 1000.0))
    assert tree.search_ids(q) == set(model)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_srtree_search_is_duplicate_free(data):
    tree = SRTree(_TINY)
    # Long horizontal segments maximise cutting.
    ys = data.draw(st.lists(st.floats(0, 1000, allow_nan=False), min_size=5, max_size=40))
    for i, y in enumerate(ys):
        lo = (i * 137.0) % 800.0
        tree.insert(Rect((lo, y), (lo + 900.0 - lo * 0.5, y)))
    results = tree.search(Rect((0.0, 0.0), (1000.0, 1000.0)))
    ids = [rid for rid, _ in results]
    assert len(ids) == len(set(ids)) == len(ys)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_1d_srtree_agrees_with_interval_tree(data):
    from repro.cg import IntervalTree

    cfg = IndexConfig(dims=1, leaf_node_bytes=200)
    tree = SRTree(cfg)
    raw = data.draw(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
            min_size=1,
            max_size=50,
        )
    )
    items = [(min(a, b), max(a, b), i) for i, (a, b) in enumerate(raw)]
    for lo, hi, i in items:
        tree.insert(Rect((lo,), (hi,)), payload=i)
    check_index(tree)
    oracle = IntervalTree(items)
    stabs = data.draw(st.lists(st.floats(-5, 105, allow_nan=False), min_size=1, max_size=10))
    for x in stabs:
        want = {p for _, _, p in oracle.stab(x)}
        got = {p for _, p in tree.stab(x)}
        assert got == want


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_count_monotone_in_query_size(data):
    tree = SRTree(_TINY)
    for box in data.draw(st.lists(rects(), min_size=1, max_size=50)):
        tree.insert(box)
    inner = data.draw(rects())
    grow = data.draw(st.floats(0, 100, allow_nan=False))
    outer = Rect(
        tuple(l - grow for l in inner.lows), tuple(h + grow for h in inner.highs)
    )
    assert tree.count(inner) <= tree.count(outer)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fragments_union_covers_original(data):
    """Every inserted rectangle is fully covered by its stored fragments."""
    from repro.core.validation import collect_fragments

    tree = SRTree(_TINY)
    model = {}
    for box in data.draw(st.lists(segments_2d(), min_size=1, max_size=60)):
        model[tree.insert(box)] = box
    fragments = collect_fragments(tree)
    assert set(fragments) == set(model)
    for rid, original in model.items():
        pieces = fragments[rid]
        total = sum(p.extent(0) for p in pieces)
        assert total == pytest.approx(original.extent(0), abs=1e-6)
        for p in pieces:
            assert original.contains(p)
