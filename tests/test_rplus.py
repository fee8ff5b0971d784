"""Tests for the R+-Tree / Segment R+-Tree (partitioned index family)."""

import random

import pytest

from repro import IndexConfig, Rect, RPlusTree, SRPlusTree, check_rplus, segment
from repro.exceptions import ConfigError, WorkloadError

from .conftest import brute_force_ids, random_boxes, random_segments

DOMAIN = [(0.0, 100_000.0), (0.0, 100_000.0)]
SMALL = IndexConfig(leaf_node_bytes=404)  # capacity 10


def _build(cls, rects, config=SMALL):
    tree = cls(config, domain=DOMAIN)
    data = {}
    for rect in rects:
        data[tree.insert(rect)] = rect
    return tree, data


class TestBasics:
    def test_insert_search(self):
        tree = RPlusTree(domain=DOMAIN)
        rid = tree.insert(segment(10, 90, 50), payload="x")
        assert tree.search(Rect((40, 40), (60, 60))) == [(rid, "x")]
        assert tree.search_ids(Rect((95, 95), (99, 99))) == set()

    def test_out_of_domain_rejected(self):
        tree = RPlusTree(domain=[(0, 10), (0, 10)])
        with pytest.raises(WorkloadError):
            tree.insert(Rect((5, 5), (15, 6)))

    def test_dimension_mismatch_rejected(self):
        tree = RPlusTree(domain=DOMAIN)
        with pytest.raises(ValueError):
            tree.insert(Rect((0,), (1,)))

    def test_query_dimension_mismatch_rejected(self):
        """A 1-D query on a 2-D index used to match every record, and a
        3-D one raised a bare IndexError."""
        tree, _ = _build(RPlusTree, random_segments(50, seed=4))
        for rect in (Rect((0,), (100,)), Rect((0, 0, 0), (100, 100, 100))):
            with pytest.raises(ConfigError):
                tree.search(rect)
        with pytest.raises(ConfigError):
            tree.stab(5.0)

    def test_bad_domain_rejected(self):
        with pytest.raises(WorkloadError):
            RPlusTree(IndexConfig(dims=2), domain=[(0, 1)])

    def test_default_domain(self):
        tree = RPlusTree()
        rid = tree.insert(Rect((-1e6, -1e6), (1e6, 1e6)))
        assert tree.search_ids(Rect((0, 0), (1, 1))) == {rid}


class TestPartitioning:
    def test_regions_tile_space(self):
        tree, _ = _build(RPlusTree, random_segments(800, seed=40))
        check_rplus(tree)  # asserts containment + disjointness + coverage

    def test_replication_occurs(self):
        tree, _ = _build(RPlusTree, random_segments(800, seed=41, long_fraction=0.3))
        assert tree.replication_factor() > 1.0

    def test_search_deduplicates_replicas(self):
        tree, data = _build(RPlusTree, random_segments(600, seed=42, long_fraction=0.3))
        q = Rect((0, 0), (100_000, 100_000))
        results = tree.search(q)
        ids = [rid for rid, _ in results]
        assert len(ids) == len(set(ids)) == len(data)

    def test_matches_brute_force_segments(self):
        tree, data = _build(RPlusTree, random_segments(900, seed=43, long_fraction=0.2))
        check_rplus(tree)
        rng = random.Random(44)
        for _ in range(100):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 2500, cy + 2500))
            assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_matches_brute_force_boxes(self):
        tree, data = _build(RPlusTree, random_boxes(700, seed=45))
        check_rplus(tree)
        rng = random.Random(46)
        for _ in range(100):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 5000, cy + 1000))
            assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_coincident_points_tolerated(self):
        # More identical points than leaf capacity: no guillotine cut can
        # separate them; the leaf is allowed to stay overfull.
        tree = RPlusTree(SMALL, domain=DOMAIN)
        ids = {tree.insert(Rect((50, 50), (50, 50))) for _ in range(30)}
        check_rplus(tree)
        assert tree.search_ids(Rect((50, 50), (50, 50))) == ids


class TestDelete:
    def test_delete_removes_all_replicas(self):
        tree, data = _build(RPlusTree, random_segments(500, seed=47, long_fraction=0.4))
        victim = max(data, key=lambda rid: data[rid].extent(0))  # most replicated
        removed = tree.delete(victim)
        assert removed >= 1
        del data[victim]
        q = Rect((0, 0), (100_000, 100_000))
        assert tree.search_ids(q) == set(data)
        check_rplus(tree)

    def test_delete_missing(self):
        tree = RPlusTree(domain=DOMAIN)
        tree.insert(segment(0, 1, 0))
        assert tree.delete(999) == 0
        assert len(tree) == 1


class TestSegmentRPlus:
    def test_matches_brute_force(self):
        tree, data = _build(SRPlusTree, random_segments(900, seed=48, long_fraction=0.25))
        check_rplus(tree)
        assert tree.stats.spanning_placements > 0
        rng = random.Random(49)
        for _ in range(100):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 1500, cy + 20_000))
            assert tree.search_ids(q) == brute_force_ids(data, q)

    def test_spanning_reduces_replication(self):
        """Section 2.1.1: storing long intervals high means fewer replicated
        index records in the lower levels.  (The saving needs leaf cells
        fine relative to the interval lengths — same scale dependence as
        the paper's main result — hence the tiny leaf capacity here.)"""
        fine = IndexConfig(leaf_node_bytes=204)
        rects = random_segments(2000, seed=50, long_fraction=0.25)
        rplus, _ = _build(RPlusTree, rects, fine)
        srplus, _ = _build(SRPlusTree, rects, fine)
        assert srplus.replication_factor() < rplus.replication_factor()

    def test_spanning_reduces_leaf_fragments_of_long_records(self):
        rects = random_segments(1200, seed=51, long_fraction=0.25)
        long_ids = {
            i + 1 for i, r in enumerate(rects) if r.extent(0) > 10_000
        }

        def leaf_fragments(tree):
            count = 0
            for node in tree.iter_nodes():
                count += sum(1 for e in node.data_entries if e.record_id in long_ids)
            return count

        rplus, _ = _build(RPlusTree, rects)
        srplus, _ = _build(SRPlusTree, rects)
        assert leaf_fragments(srplus) < leaf_fragments(rplus)

    def test_delete_spanning_record(self):
        tree, data = _build(SRPlusTree, random_segments(400, seed=52, long_fraction=0.0))
        rid = tree.insert(segment(0, 100_000, 50_000))
        assert tree.delete(rid) >= 1
        q = Rect((0, 0), (100_000, 100_000))
        assert tree.search_ids(q) == set(data)
