"""Tests for the Priority Search Tree."""

import random

import pytest

from repro.cg import PrioritySearchTree
from repro.exceptions import WorkloadError


def _random_intervals(n, seed, beta=50.0):
    rng = random.Random(seed)
    return [
        (lo, lo + rng.expovariate(1 / beta), i)
        for i, lo in enumerate(rng.uniform(0, 1000) for _ in range(n))
    ]


class TestPrioritySearchTree:
    def test_basic_stab(self):
        pst = PrioritySearchTree([(1, 5, "a"), (3, 9, "b"), (7, 8, "c")])
        assert {p for _, _, p in pst.stab(4)} == {"a", "b"}
        assert {p for _, _, p in pst.stab(8)} == {"b", "c"}
        assert pst.stab(100) == []

    def test_endpoints_inclusive(self):
        pst = PrioritySearchTree([(1, 5, "a")])
        assert pst.count_stab(1) == 1
        assert pst.count_stab(5) == 1
        assert pst.count_stab(5.0001) == 0

    def test_three_sided(self):
        pst = PrioritySearchTree([(1, 5, "a"), (3, 9, "b"), (7, 8, "c")])
        # lo <= 3 and hi >= 6 -> only "b"
        assert {p for _, _, p in pst.three_sided(3, 6)} == {"b"}
        # lo <= 10 and hi >= 0 -> everything
        assert len(pst.three_sided(10, 0)) == 3

    def test_matches_brute_force(self):
        items = _random_intervals(800, seed=1)
        pst = PrioritySearchTree(items)
        rng = random.Random(2)
        for _ in range(400):
            x = rng.choice(
                [rng.uniform(-10, 1100), rng.choice(items)[0], rng.choice(items)[1]]
            )
            want = {p for lo, hi, p in items if lo <= x <= hi}
            assert {p for _, _, p in pst.stab(x)} == want

    def test_duplicate_lows(self):
        pst = PrioritySearchTree([(5, 10, "a"), (5, 20, "b"), (5, 6, "c")])
        assert {p for _, _, p in pst.stab(7)} == {"a", "b"}

    def test_empty_and_inverted_rejected(self):
        with pytest.raises(WorkloadError):
            PrioritySearchTree([])
        with pytest.raises(WorkloadError):
            PrioritySearchTree([(5, 1, "x")])

    def test_size_and_depth(self):
        pst = PrioritySearchTree(_random_intervals(500, seed=3))
        assert pst.size == 500
        assert pst.depth() < 60  # median split keeps it shallow
