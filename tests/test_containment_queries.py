"""Tests for the within/containing query extensions."""

import os
import random

import pytest

from repro import Rect, RTree, SRStarTree, SRTree, check_index, point, segment

from .conftest import (
    CUT_CONFIG,
    cut_heavy_rects,
    fragment_aligned_queries,
    random_segments,
)

SEED = int(os.environ.get("REPRO_DIFF_SEED", "0"))


def _brute_within(data, q):
    return {rid for rid, r in data.items() if q.contains(r)}


def _brute_containing(data, q):
    return {rid for rid, r in data.items() if r.contains(q)}


class TestSearchWithin:
    def test_basic(self):
        tree = RTree()
        inside = tree.insert(Rect((2, 2), (3, 3)), "in")
        tree.insert(Rect((2, 2), (30, 3)), "sticks-out")
        got = tree.search_within(Rect((0, 0), (10, 10)))
        assert got == [(inside, "in")]

    def test_touching_boundary_counts_as_within(self):
        tree = RTree()
        rid = tree.insert(Rect((0, 0), (10, 10)))
        assert tree.search_within(Rect((0, 0), (10, 10))) == [(rid, None)]

    def test_cut_record_not_within_when_partially_outside(self):
        """A record cut into fragments only counts when it lies inside as
        a whole.  ``search_within`` counts no fragments: that every
        fragment it *meets* lies inside the query must already mean the
        record does, also when the query ends exactly where a record was
        cut.  Re-seed with ``REPRO_DIFF_SEED``."""
        for cls in (SRTree, SRStarTree):
            tree = cls(CUT_CONFIG)
            data = {tree.insert(r): r for r in cut_heavy_rects(1500, seed=SEED + 72)}
            pieces = {}
            for rid, rect, _ in tree.items():
                pieces.setdefault(rid, []).append(rect)
            cut = [rid for rid, rects in pieces.items() if len(rects) > 1]
            assert len(cut) >= 100
            for rid in cut:
                original = data[rid]
                # Query covering only the left half of the record.
                mid = (original.lows[0] + original.highs[0]) / 2
                q = Rect(
                    (original.lows[0] - 1, original.lows[1] - 1), (mid, original.highs[1] + 1)
                )
                assert rid not in {r for r, _ in tree.search_within(q)}
                # Covering the whole record (plus slack) finds it.
                q_full = Rect(
                    (original.lows[0] - 1, original.lows[1] - 1),
                    (original.highs[0] + 1, original.highs[1] + 1),
                )
                assert rid in {r for r, _ in tree.search_within(q_full)}
            for q in fragment_aligned_queries(pieces, seed=SEED + 73):
                got = {rid for rid, _ in tree.search_within(q)}
                assert got == _brute_within(data, q), f"REPRO_DIFF_SEED={SEED}: {q}"


class TestSearchContaining:
    def test_basic(self):
        tree = RTree()
        big = tree.insert(Rect((0, 0), (100, 100)), "big")
        tree.insert(Rect((10, 10), (20, 20)), "small")
        got = tree.search_containing(Rect((40, 40), (50, 50)))
        assert got == [(big, "big")]

    def test_point_query_equals_stab(self):
        tree = RTree()
        data = {}
        for i in range(50):
            r = Rect((i, 0), (i + 10, 10))
            data[tree.insert(r)] = r
        q = point(25, 5)
        got = {rid for rid, _ in tree.search_containing(q)}
        assert got == {rid for rid, _ in tree.stab(25, 5)}

    def test_cut_record_containing_across_fragments(self, small_config):
        """A query spanning a cut boundary is covered by two fragments
        together — neither alone contains it."""
        tree = SRTree(small_config)
        data = {}
        for rect in random_segments(400, seed=75, long_fraction=0.4):
            data[tree.insert(rect)] = rect
        rng = random.Random(76)
        for _ in range(100):
            # 1-D-style queries along segments: y degenerate.
            rid = rng.choice(sorted(data))
            r = data[rid]
            if r.extent(0) < 10:
                continue
            a = r.lows[0] + r.extent(0) * 0.25
            b = r.lows[0] + r.extent(0) * 0.75
            q = Rect((a, r.lows[1]), (b, r.lows[1]))
            got = {x for x, _ in tree.search_containing(q)}
            assert rid in got


class TestFragmentCount:
    def test_simple_record(self):
        tree = SRTree()
        rid = tree.insert(segment(0, 10, 5))
        assert tree.fragment_count(rid) == 1

    def test_unknown_record(self):
        tree = SRTree()
        with pytest.raises(KeyError):
            tree.fragment_count(42)

    def test_counts_match_reality(self, small_config):
        from repro.core.validation import collect_fragments

        tree = SRTree(small_config)
        for rect in random_segments(600, seed=77, long_fraction=0.35):
            tree.insert(rect)
        check_index(tree)  # validation now cross-checks the counts
        fragments = collect_fragments(tree)
        for rid, rects in fragments.items():
            assert tree.fragment_count(rid) == len(rects)

    def test_counts_after_delete(self, small_config):
        tree = SRTree(small_config)
        data = {}
        for rect in random_segments(300, seed=78, long_fraction=0.3):
            data[tree.insert(rect)] = rect
        victim = next(iter(data))
        tree.delete(victim, hint=data.pop(victim))
        with pytest.raises(KeyError):
            tree.fragment_count(victim)
        check_index(tree)
