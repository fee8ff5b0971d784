"""Tests for the statistics counters."""

from collections import Counter

from repro import AccessStats, Rect, SRTree, segment
from repro.core.stats import SearchStats


class TestAccessStats:
    def test_search_counts_accesses_by_level(self):
        """A read settles its visits once per query: every node it visited
        is counted once, at its level, and once in ``node_accesses``."""
        tree = SRTree()
        for i in range(800):
            tree.insert(segment(i % 43, i % 43 + 1.0, float(i)))
        stats = tree.stats
        stats.accesses_by_level.clear()
        before = stats.node_accesses
        rect = Rect((3.0, 100.0), (20.0, 400.0))
        want = Counter()
        stack = [tree.root]
        while stack:  # the nodes an intersection search must visit
            node = stack.pop()
            want[node.level] += 1
            stack.extend(b.child for b in node.branches if b.rect.intersects(rect))
        tree.search(rect)
        assert stats.accesses_by_level == want and len(want) == tree.height
        assert stats.node_accesses - before == sum(want.values())

    def test_avg_nodes_per_search(self):
        stats = AccessStats()
        assert stats.avg_nodes_per_search == 0.0
        stats.searches = 4
        stats.search_node_accesses = 10
        assert stats.avg_nodes_per_search == 2.5

    def test_reset_search_counters_keeps_build_side(self):
        stats = AccessStats()
        stats.inserts = 100
        stats.splits = 5
        stats.searches = 3
        stats.search_node_accesses = 30
        stats.reset_search_counters()
        assert stats.searches == 0
        assert stats.search_node_accesses == 0
        assert stats.inserts == 100
        assert stats.splits == 5

    def test_snapshot_is_plain_dict(self):
        stats = AccessStats()
        stats.inserts = 7
        snap = stats.snapshot()
        assert snap["inserts"] == 7
        assert isinstance(snap, dict)
        snap["inserts"] = 0
        assert stats.inserts == 7  # snapshot detached

    def test_snapshot_includes_accesses_by_level(self):
        stats = AccessStats()
        stats.accesses_by_level.update([0, 0, 2])
        snap = stats.snapshot()
        assert snap["accesses_by_level"] == {0: 2, 2: 1}
        # detached from the live counter
        snap["accesses_by_level"][0] = 99
        assert stats.accesses_by_level[0] == 2

    def test_snapshot_accesses_by_level_empty_when_untouched(self):
        assert AccessStats().snapshot()["accesses_by_level"] == {}


class TestSearchStats:
    def test_fields(self):
        s = SearchStats(nodes_accessed=5, records_found=2)
        assert s.nodes_accessed == 5
        assert s.records_found == 2
