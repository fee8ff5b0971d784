"""Tests for the SR-Tree's Segment Index machinery."""

import math
import random

import pytest

from repro import IndexConfig, Rect, SRTree, check_index, segment
from repro.core.geometry import GeometryError

from .conftest import brute_force_ids, random_boxes, random_segments


def _build(config, rects):
    tree = SRTree(config)
    data = {}
    for rect in rects:
        data[tree.insert(rect)] = rect
    return tree, data


class TestSpanningPlacement:
    def test_long_segment_stored_above_leaves(self, small_config):
        # Fill with short segments first so the tree has structure, then
        # insert one domain-wide segment: it must land as a spanning record.
        tree, _ = _build(small_config, random_segments(300, seed=1, long_fraction=0.0))
        assert tree.height >= 3
        before = tree.stats.spanning_placements
        tree.insert(segment(0.0, 100_000.0, 50_000.0))
        assert tree.stats.spanning_placements == before + 1
        check_index(tree)

    def test_spanning_record_found_by_search(self, small_config):
        tree, data = _build(small_config, random_segments(300, seed=2, long_fraction=0.3))
        check_index(tree)
        rng = random.Random(3)
        for _ in range(80):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 1000, cy + 20_000))
            assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_short_segments_produce_no_spanning_records(self, small_config):
        tree, _ = _build(small_config, random_segments(400, seed=4, long_fraction=0.0))
        assert tree.stats.spanning_placements == 0

    def test_spanning_quota_respected(self, small_config):
        tree, _ = _build(small_config, random_segments(600, seed=5, long_fraction=0.5))
        check_index(tree)  # validation enforces the per-node quota

    def test_rectangles_span_in_either_dimension(self, small_config):
        tree, data = _build(small_config, random_boxes(400, seed=6))
        # Tall rectangle spanning vertically.
        r = Rect((40_000, 0.0), (41_000, 100_000.0))
        data[tree.insert(r)] = r
        check_index(tree)
        q = Rect((40_500, 50_000), (40_600, 50_001))
        assert tree.search_ids(q) == brute_force_ids(data, q)


class TestCutting:
    def test_cut_fragments_share_record_id(self, small_config):
        tree, data = _build(
            small_config, random_segments(500, seed=7, long_fraction=0.4)
        )
        if tree.stats.cuts == 0:
            pytest.skip("workload produced no cuts at this seed")
        from repro.core.validation import collect_fragments

        fragments = collect_fragments(tree)
        multi = {rid: rects for rid, rects in fragments.items() if len(rects) > 1}
        assert multi, "cuts must create multi-fragment records"
        for rid, rects in multi.items():
            # Fragments tile the original segment: same Y, X ranges abut.
            original = data[rid]
            for frag in rects:
                assert original.contains(frag)
            total = sum(r.extent(0) for r in rects)
            assert total == pytest.approx(original.extent(0), rel=1e-9)

    def test_search_deduplicates_fragments(self, small_config):
        tree, data = _build(
            small_config, random_segments(500, seed=8, long_fraction=0.4)
        )
        q = Rect((0, 0), (100_000, 100_000))
        results = tree.search(q)
        ids = [rid for rid, _ in results]
        assert len(ids) == len(set(ids)) == len(data)


class TestDemotion:
    def test_demotions_keep_structure_valid(self, small_config):
        tree, data = _build(
            small_config, random_segments(800, seed=9, long_fraction=0.3)
        )
        assert tree.stats.demotions >= 0  # may legitimately be zero
        check_index(tree)
        q = Rect((10_000, 10_000), (60_000, 60_000))
        assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_interleaved_long_short_inserts(self, small_config):
        # Alternating long/short inserts exercises expansion-triggered
        # demotion aggressively.
        rng = random.Random(10)
        tree = SRTree(small_config)
        data = {}
        for i in range(600):
            if i % 3 == 0:
                x0 = rng.uniform(0, 50_000)
                r = segment(x0, x0 + rng.uniform(20_000, 50_000), rng.uniform(0, 100_000))
            else:
                x0 = rng.uniform(0, 99_900)
                r = segment(x0, x0 + rng.uniform(0, 100), rng.uniform(0, 100_000))
            data[tree.insert(r)] = r
            if i % 150 == 0:
                check_index(tree)
        check_index(tree)
        for _ in range(50):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 500, cy + 30_000))
            assert tree.search_ids(q) == brute_force_ids(data, q)


class TestPromotion:
    def test_promotions_occur_under_spanning_pressure(self):
        # Tiny non-leaf nodes + many long segments force non-leaf splits
        # with spanning records present, which exercises promotion.
        cfg = IndexConfig(leaf_node_bytes=200, entry_bytes=40)
        rng = random.Random(11)
        tree = SRTree(cfg)
        data = {}
        for i in range(1500):
            if i % 2 == 0:
                x0 = rng.uniform(0, 30_000)
                r = segment(x0, x0 + rng.uniform(30_000, 70_000), rng.uniform(0, 100_000))
            else:
                x0 = rng.uniform(0, 99_900)
                r = segment(x0, x0 + rng.uniform(0, 100), rng.uniform(0, 100_000))
            data[tree.insert(r)] = r
        check_index(tree)
        for _ in range(40):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 800, cy + 10_000))
            assert tree.search_ids(q) == brute_force_ids(data, q)


class TestEquivalenceWithRTree:
    def test_same_results_as_rtree(self, small_config):
        from repro import RTree

        rects = random_segments(500, seed=12, long_fraction=0.25)
        sr, data = _build(small_config, rects)
        rt = RTree(small_config)
        rt_ids = {}
        for rect in rects:
            rt_ids[rt.insert(rect)] = rect
        rng = random.Random(13)
        for _ in range(60):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 3000, cy + 3000))
            assert sr.search_ids(q) == rt.search_ids(q)


class TestNaNRecords:
    """A NaN bound compares false both ways, so no overlap, span or
    enlargement test can place such a record.  Into a 300-record tree one
    used to raise "non-leaf node with no branches" halfway through the
    insert, leaving ``len(tree)`` one ahead of the records stored; into a
    leaf root it was stored and gave the tree a NaN bounding rectangle."""

    @pytest.mark.parametrize("records", [300, 3])
    def test_nan_record_is_refused_before_the_tree_changes(self, small_config, records):
        tree, _ = _build(small_config, random_segments(records, seed=5, long_fraction=0.0))
        bounds = tree.bounding_rect()
        with pytest.raises(GeometryError, match="NaN"):
            tree.insert(Rect((math.nan, 10.0), (20.0, 10.0)))
        assert len(tree) == records and tree.bounding_rect() == bounds
        check_index(tree)


class TestDeleteWithFragments:
    def test_delete_removes_all_fragments(self, small_config):
        tree, data = _build(
            small_config, random_segments(500, seed=14, long_fraction=0.4)
        )
        from repro.core.validation import collect_fragments

        fragments = collect_fragments(tree)
        multi = [rid for rid, rects in fragments.items() if len(rects) > 1]
        if not multi:
            pytest.skip("no cut records at this seed")
        victim = multi[0]
        removed = tree.delete(victim, hint=data.pop(victim))
        assert removed >= 2
        q = Rect((0, 0), (100_000, 100_000))
        assert tree.search_ids(q) == set(data)
        check_index(tree)

    def test_delete_spanning_record_without_hint(self, small_config):
        tree, data = _build(small_config, random_segments(200, seed=15, long_fraction=0.0))
        rid = tree.insert(segment(0, 100_000, 42_000))
        assert tree.delete(rid) >= 1
        q = Rect((0, 0), (100_000, 100_000))
        assert tree.search_ids(q) == set(data)


class TestOneDimensionalSRTree:
    def test_1d_against_interval_oracle(self):
        from repro import interval
        from repro.cg import IntervalTree

        cfg = IndexConfig(dims=1, leaf_node_bytes=200)
        tree = SRTree(cfg)
        rng = random.Random(16)
        items = []
        for i in range(400):
            lo = rng.uniform(0, 10_000)
            hi = lo + rng.expovariate(1 / 500)
            items.append((lo, hi, i))
            tree.insert(interval(lo, hi), payload=i)
        check_index(tree)
        oracle = IntervalTree(items)
        for _ in range(200):
            x = rng.uniform(-100, 11_000)
            want = {p for _, _, p in oracle.stab(x)}
            got = {p for _, p in tree.stab(x)}
            assert got == want
