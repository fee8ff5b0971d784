"""Tests for the Guttman node-split algorithms."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect
from repro.core.split import linear_split, quadratic_split, split_rects
from repro.exceptions import ConfigError

from . import _reference_split as reference
from .conftest import rects


def _boxes(*bounds):
    return [Rect((lo_x, lo_y), (hi_x, hi_y)) for lo_x, lo_y, hi_x, hi_y in bounds]


class TestQuadraticSplit:
    def test_two_clusters_separate(self):
        cluster_a = _boxes((0, 0, 1, 1), (1, 1, 2, 2), (0.5, 0.5, 1.5, 1.5))
        cluster_b = _boxes((100, 100, 101, 101), (101, 101, 102, 102))
        groups = quadratic_split(cluster_a + cluster_b, min_entries=2)
        sets = [set(g) for g in groups]
        assert {0, 1, 2} in sets
        assert {3, 4} in sets

    def test_partition_is_exact(self):
        boxes = _boxes(*[(i, i, i + 1, i + 1) for i in range(10)])
        a, b = quadratic_split(boxes, min_entries=4)
        assert sorted(a + b) == list(range(10))
        assert not set(a) & set(b)

    def test_min_fill_respected(self):
        # Nine identical boxes plus one far away: min fill must still hold.
        boxes = _boxes(*[(0, 0, 1, 1)] * 9, (500, 500, 501, 501))
        a, b = quadratic_split(boxes, min_entries=4)
        assert min(len(a), len(b)) >= 4

    def test_cannot_split_single(self):
        with pytest.raises(ValueError):
            split_rects([Rect((0, 0), (1, 1))], 1, "quadratic")

    def test_two_entries(self):
        a, b = quadratic_split(_boxes((0, 0, 1, 1), (5, 5, 6, 6)), min_entries=1)
        assert len(a) == len(b) == 1


class TestLinearSplit:
    def test_partition_is_exact(self):
        boxes = _boxes(*[(i * 3, 0, i * 3 + 1, 1) for i in range(8)])
        a, b = linear_split(boxes, min_entries=3)
        assert sorted(a + b) == list(range(8))

    def test_separates_extremes(self):
        boxes = _boxes((0, 0, 1, 1), (99, 0, 100, 1), (50, 0, 51, 1), (2, 0, 3, 1))
        a, b = linear_split(boxes, min_entries=1)
        group_of = {}
        for idx in a:
            group_of[idx] = "a"
        for idx in b:
            group_of[idx] = "b"
        assert group_of[0] != group_of[1]

    def test_identical_rects_split_evenly_enough(self):
        boxes = _boxes(*[(0, 0, 1, 1)] * 6)
        a, b = linear_split(boxes, min_entries=2)
        assert min(len(a), len(b)) >= 2


class TestDispatch:
    def test_unknown_algorithm_is_rejected(self):
        # IndexConfig rejects unknown names upstream; a caller that reaches
        # split_rects directly must not silently get the quadratic split.
        boxes = _boxes((0, 0, 1, 1), (10, 10, 11, 11), (1, 1, 2, 2))
        with pytest.raises(ConfigError, match="cubic"):
            split_rects(boxes, 1, "cubic")

    @pytest.mark.parametrize("algorithm", ["quadratic", "linear", "rstar"])
    def test_every_known_algorithm_partitions(self, algorithm):
        boxes = _boxes((0, 0, 1, 1), (10, 10, 11, 11), (1, 1, 2, 2))
        a, b = split_rects(boxes, 1, algorithm)
        assert sorted(a + b) == [0, 1, 2]

    def test_min_entries_clamped_to_half(self):
        boxes = _boxes((0, 0, 1, 1), (10, 10, 11, 11), (1, 1, 2, 2))
        a, b = split_rects(boxes, min_entries=5, algorithm="quadratic")
        assert sorted(a + b) == [0, 1, 2]


@settings(max_examples=100, deadline=None)
@given(st.lists(rects(), min_size=2, max_size=30), st.sampled_from(["quadratic", "linear"]))
def test_property_split_partitions(boxes, algorithm):
    min_entries = max(1, len(boxes) // 3)
    a, b = split_rects(boxes, min_entries, algorithm)
    assert sorted(a + b) == list(range(len(boxes)))
    assert len(a) >= 1 and len(b) >= 1
    assert min(len(a), len(b)) >= min(min_entries, len(boxes) // 2)


# ---------------------------------------------------------------------------
# The flat kernel against the Rect-based oracle (tests/_reference_split.py):
# the same groups, in the same order.
# ---------------------------------------------------------------------------
ALGORITHMS = ("quadratic", "linear")
FILLS = (0.0, 0.3, 0.4, 0.5)  # min_entries as a share of n (0.0 -> m = 1)
DIMS = (1, 2, 3, 4)
INF = math.inf


def _random_rects(rng, n, dims, *, grid):
    """``n`` boxes, each dimension degenerate half the time; on an integer
    grid (``grid``) areas, wastes and enlargements tie constantly.  One
    bound in twenty is infinite, which makes areas and enlargements inf or
    NaN (``inf - inf``, ``0 * inf``): a NaN preference must never win
    PickNext."""
    out = []
    for _ in range(n):
        lows, highs = [], []
        for _ in range(dims):
            lo = float(rng.randrange(12)) if grid else rng.uniform(0.0, 1000.0)
            if rng.random() < 0.5:
                extent = 0.0
            else:
                extent = float(rng.randrange(1, 6)) if grid else rng.expovariate(1 / 40.0)
            hi = lo + extent
            if rng.random() < 0.05:
                lo = -INF
            if rng.random() < 0.05:
                hi = INF
            lows.append(lo)
            highs.append(hi)
        out.append(Rect(lows, highs))
    return out


def _assert_same_split(boxes):
    for algorithm in ALGORITHMS:
        for fill in FILLS:
            m = max(1, int(len(boxes) * fill))
            assert split_rects(boxes, m, algorithm) == reference.split_rects(
                boxes, m, algorithm
            ), (algorithm, m, boxes)


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("n", [2, 3, 5, 26, 51, 101])
@pytest.mark.parametrize("grid", [False, True], ids=["floats", "grid"])
def test_kernel_matches_reference_on_seeded_sets(dims, n, grid):
    rng = random.Random(1000 * dims + n + (7 if grid else 0))
    for _ in range(12 if n <= 51 else 4):
        _assert_same_split(_random_rects(rng, n, dims, grid=grid))


@pytest.mark.parametrize("dims", DIMS)
def test_kernel_matches_reference_on_degenerate_and_identical_sets(dims):
    rng = random.Random(dims)
    unit = Rect([0.0] * dims, [1.0] * dims)
    dot = Rect([3.0] * dims, [3.0] * dims)
    far = Rect([500.0] * dims, [501.0] * dims)
    everything = Rect([-INF] * dims, [INF] * dims)
    left = Rect([-INF] * dims, [2.0] * dims)
    right = Rect([4.0] * dims, [INF] * dims)
    for boxes in (
        [unit] * 9,
        [dot] * 9,
        [unit] * 8 + [far],
        [dot] * 5 + [unit] * 5,
        [dot, far],
        # one shared low corner, growing extents: every cover is nested
        [Rect([0.0] * dims, [float(k)] * dims) for k in range(1, 12)],
        # infinite bounds: areas are inf, enlargements inf - inf = NaN
        [everything] * 6,
        [left, right, unit, dot, far, everything, unit, far],
        [unit] * 5 + [left] * 5 + [right] * 2,
        [dot] * 4 + [right] * 4,
    ):
        _assert_same_split(boxes)
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        _assert_same_split(shuffled)


@st.composite
def _rect_sets(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        coord = st.integers(min_value=0, max_value=8).map(float)  # ties
    else:
        coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
    if draw(st.booleans()):
        coord = coord | st.sampled_from([-INF, INF])
    corners = st.tuples(
        st.lists(coord, min_size=dims, max_size=dims),
        st.lists(coord, min_size=dims, max_size=dims),
    )
    pairs = draw(st.lists(corners, min_size=2, max_size=30))
    return [
        Rect([min(a, b) for a, b in zip(p, q)], [max(a, b) for a, b in zip(p, q)])
        for p, q in pairs
    ]


@settings(max_examples=150, deadline=None)
@given(_rect_sets())
def test_property_kernel_matches_reference(boxes):
    _assert_same_split(boxes)
