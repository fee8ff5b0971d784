"""Additional property-based tests: serialization round-trips, coverage
geometry, histogram boundaries, skeleton plans, and the R+ family."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndexConfig, Rect
from repro.core.geometry import pieces_cover
from repro.core.skeleton import plan_levels
from repro.histogram import EquiDepthHistogram

from .conftest import rects, segments_2d


@settings(max_examples=150)
@given(rects(), rects())
def test_property_cut_pieces_cover_original(a, outer):
    """cut() output always covers the input exactly."""
    portion, remnants = a.cut(outer)
    pieces = ([portion] if portion is not None else []) + remnants
    assert pieces_cover(a, pieces)


@settings(max_examples=150)
@given(rects(low=0, high=100), st.floats(1, 40, allow_nan=False))
def test_property_grid_tiles_cover(target, step):
    """An axis-aligned grid overlapping a box covers it."""
    pieces = []
    x = target.lows[0]
    while x < target.highs[0] + step:
        y = target.lows[1]
        while y < target.highs[1] + step:
            pieces.append(Rect((x, y), (x + step, y + step)))
            y += step
        x += step
    assert pieces_cover(target, pieces)


@settings(max_examples=100)
@given(rects(low=0, high=100))
def test_property_half_coverage_detected(target):
    """Covering only the left half never counts as full coverage."""
    if target.extent(0) == 0.0:
        return  # degenerate in the split dimension: half = whole
    mid = (target.lows[0] + target.highs[0]) / 2
    left = Rect(target.lows, (mid, target.highs[1]))
    assert not pieces_cover(target, [left])


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=300),
    st.integers(1, 40),
)
def test_property_histogram_boundaries_strictly_increase(values, partitions):
    hist = EquiDepthHistogram(values, domain=(0.0, 1000.0))
    bounds = hist.boundaries(partitions)
    assert len(bounds) == partitions + 1
    assert bounds[0] == 0.0 and bounds[-1] == 1000.0
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


@settings(max_examples=100)
@given(
    st.integers(1, 5_000_000),
    st.integers(1, 3),
    st.sampled_from([1024, 2048, 4096]),
)
def test_property_skeleton_plan_terminates_at_root(n, dims, leaf_bytes):
    config = IndexConfig(dims=dims, leaf_node_bytes=leaf_bytes, entry_bytes=40)
    for segment_index in (False, True):
        plan = plan_levels(n, config, segment_index)
        assert plan[-1] == 1  # exactly one root
        assert all(p >= 1 for p in plan)
        # Levels shrink (strictly, except the trivial single-level plan).
        assert all(a > b for a, b in zip(plan, plan[1:])) or plan == [1]
        # Leaf level holds the data: leaves^dims * capacity >= n.
        assert (plan[0] ** dims) * config.capacity(0) >= n


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_rplus_matches_model(data):
    from repro.core.rplus import RPlusTree, SRPlusTree, check_rplus

    cls = data.draw(st.sampled_from([RPlusTree, SRPlusTree]))
    config = IndexConfig(leaf_node_bytes=204)
    tree = cls(config, domain=[(0.0, 1000.0), (0.0, 1000.0)])
    model = {}
    for box in data.draw(st.lists(segments_2d(), min_size=1, max_size=50)):
        model[tree.insert(box)] = box
    check_rplus(tree)
    for q in data.draw(st.lists(rects(), min_size=1, max_size=6)):
        want = {rid for rid, r in model.items() if r.intersects(q)}
        assert tree.search_ids(q) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_serializer_round_trip(data):
    from repro.core.entry import DataEntry
    from repro.core.node import Node
    from repro.storage import deserialize_node, serialize_node

    node = Node(level=0)
    boxes = data.draw(st.lists(segments_2d(), min_size=1, max_size=20))
    for i, box in enumerate(boxes, start=1):
        node.data_entries.append(
            DataEntry(box, i, None, is_remnant=data.draw(st.booleans()))
        )
    image = deserialize_node(serialize_node(node, 2048, {}))
    assert image.level == 0
    assert len(image.data_entries) == len(boxes)
    for entry, record in zip(node.data_entries, image.data_entries):
        assert record.record_id == entry.record_id
        assert record.is_remnant == entry.is_remnant
        assert record.lows == entry.rect.lows
        assert record.highs == entry.rect.highs


def test_serializing_empty_organic_node_rejected():
    """An empty organic node has no dimensionality; serializing it is a
    caller error, reported explicitly."""
    from repro.core.node import Node
    from repro.exceptions import StorageError
    from repro.storage import serialize_node

    with pytest.raises(StorageError):
        serialize_node(Node(level=0), 1024, {})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
        min_size=1,
        max_size=40,
    ),
    st.floats(-5, 105, allow_nan=False),
)
def test_property_pst_agrees_with_brute_force(raw, x):
    from repro.cg import PrioritySearchTree

    items = [(min(a, b), max(a, b), i) for i, (a, b) in enumerate(raw)]
    pst = PrioritySearchTree(items)
    want = {p for lo, hi, p in items if lo <= x <= hi}
    assert {p for _, _, p in pst.stab(x)} == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0001, 10_000, allow_nan=False), min_size=1, max_size=10))
def test_property_query_rectangles_have_requested_area(qars):
    """Unclipped query rectangles always have the requested area & QAR."""
    from repro.workloads import query_rectangles

    for qar in qars:
        (q,) = query_rectangles(qar, 1, area=10_000.0, seed=3, domain_high=1e9)
        # Far from the domain edge (domain_high huge) -> no clipping.
        if q.lows[0] > 0 and q.lows[1] > 0:
            assert q.extent(0) * q.extent(1) == pytest.approx(10_000.0, rel=1e-6)
            assert q.extent(0) / q.extent(1) == pytest.approx(qar, rel=1e-6)
