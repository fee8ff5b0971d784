"""Unit and property tests for the geometry kernel."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings

from repro import Rect, interval, point, segment, union_all
from repro.core.geometry import GeometryError

from .conftest import rects


class TestConstruction:
    def test_basic(self):
        r = Rect((0, 1), (2, 3))
        assert r.lows == (0.0, 1.0)
        assert r.highs == (2.0, 3.0)
        assert r.dims == 2

    def test_point_is_degenerate(self):
        p = point(3, 4)
        assert p.lows == p.highs == (3.0, 4.0)
        assert p.area == 0.0

    def test_interval_factory(self):
        r = interval(2, 9)
        assert r.dims == 1
        assert r.extent(0) == 7.0

    def test_segment_factory(self):
        s = segment(10, 20, 5)
        assert s.lows == (10.0, 5.0)
        assert s.highs == (20.0, 5.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(GeometryError):
            Rect((5,), (4,))

    @pytest.mark.parametrize("lows, highs", [
        ((math.nan,), (1,)), ((0,), (math.nan,)), ((math.nan, 10), (20, 10)),
        ((0, 0), (1, math.nan)),
    ])
    def test_nan_bounds_rejected(self, lows, highs):
        with pytest.raises(GeometryError, match="NaN"):
            Rect(lows, highs)

    def test_infinite_bounds_accepted(self):
        r = Rect((-math.inf, 0), (math.inf, math.inf))
        assert r.contains(Rect((0, 5), (1, 6)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            Rect((0, 0), (1,))

    def test_zero_dimensions_rejected(self):
        with pytest.raises(GeometryError):
            Rect((), ())

    def test_immutable(self):
        r = Rect((0,), (1,))
        with pytest.raises(AttributeError):
            r.lows = (5,)

    def test_equality_and_hash(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((0.0, 0.0), (1.0, 1.0))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect((0, 0), (1, 2))

    def test_iter_yields_bounds_pairs(self):
        r = Rect((0, 1), (2, 3))
        assert list(r) == [(0.0, 2.0), (1.0, 3.0)]

    def test_pickle_and_copy_rebuild_an_equal_rect(self):
        r = Rect((0, -math.inf, 1), (2, 3, math.inf))
        for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert type(clone) is Rect
            assert clone == r and hash(clone) == hash(r)
            with pytest.raises(AttributeError):
                clone.lows = (5,)

    def test_deepcopy_of_an_index(self):
        from repro import SRTree, check_index

        tree = SRTree()
        for i in range(600):
            tree.insert(segment(i % 43, i % 43 + 2, float(i)))
        clone = copy.deepcopy(tree)
        check_index(clone)
        q = Rect((10.0, 0.0), (20.0, 300.0))
        assert clone.search_ids(q) == tree.search_ids(q)
        clone.insert(segment(1, 2, 3))
        assert len(clone) == len(tree) + 1


class TestMeasures:
    def test_area(self):
        assert Rect((0, 0), (4, 5)).area == 20.0

    def test_margin(self):
        assert Rect((0, 0), (4, 5)).margin == 9.0

    def test_center(self):
        assert Rect((0, 2), (4, 6)).center == (2.0, 4.0)

    def test_degenerate_area_zero(self):
        assert segment(0, 10, 5).area == 0.0


class TestPredicates:
    def test_intersects_overlap(self):
        assert Rect((0, 0), (5, 5)).intersects(Rect((3, 3), (8, 8)))

    def test_intersects_touching_edges(self):
        # Closed boxes: touching counts as intersecting.
        assert Rect((0, 0), (5, 5)).intersects(Rect((5, 0), (9, 5)))

    def test_disjoint(self):
        assert not Rect((0, 0), (1, 1)).intersects(Rect((2, 2), (3, 3)))

    def test_contains(self):
        outer = Rect((0, 0), (10, 10))
        assert outer.contains(Rect((1, 1), (9, 9)))
        assert outer.contains(outer)
        assert not outer.contains(Rect((5, 5), (11, 9)))

    def test_contains_point(self):
        r = Rect((0, 0), (10, 10))
        assert r.contains_point((5, 5))
        assert r.contains_point((0, 10))
        assert not r.contains_point((5, 11))

    def test_spans_dim(self):
        long = segment(0, 100, 5)
        cell = Rect((20, 0), (30, 10))
        assert long.spans_dim(cell, 0)
        assert not long.spans_dim(cell, 1)

    def test_spans_requires_overlap_in_other_dims(self):
        long = segment(0, 100, 50)  # y=50
        cell = Rect((20, 0), (30, 10))  # y in [0,10]: segment is far above
        assert long.spans_dim(cell, 0)
        assert not long.spans(cell)

    def test_spans_happy_path(self):
        long = segment(0, 100, 5)
        cell = Rect((20, 0), (30, 10))
        assert long.spans(cell)

    def test_spans_either_dimension_for_rectangles(self):
        tall = Rect((4, 0), (6, 100))
        cell = Rect((0, 20), (10, 30))
        assert tall.spans(cell)  # spans in Y, overlaps in X

    def test_spans_false_when_disjoint(self):
        assert not segment(0, 100, 5).spans(Rect((200, 0), (300, 10)))


class TestConstructive:
    def test_union(self):
        u = Rect((0, 0), (2, 2)).union(Rect((1, 1), (5, 3)))
        assert u == Rect((0, 0), (5, 3))

    def test_intersection(self):
        i = Rect((0, 0), (4, 4)).intersection(Rect((2, 2), (8, 8)))
        assert i == Rect((2, 2), (4, 4))

    def test_intersection_disjoint_is_none(self):
        assert Rect((0, 0), (1, 1)).intersection(Rect((5, 5), (6, 6))) is None

    def test_enlargement_zero_when_contained(self):
        assert Rect((0, 0), (10, 10)).enlargement(Rect((2, 2), (3, 3))) == 0.0

    def test_enlargement_positive(self):
        e = Rect((0, 0), (2, 2)).enlargement(Rect((3, 0), (4, 2)))
        assert e == pytest.approx(8.0 - 4.0)

    def test_translated(self):
        t = Rect((0, 0), (1, 1)).translated((5, -2))
        assert t == Rect((5, -2), (6, -1))

    def test_union_all(self):
        u = union_all([Rect((0, 0), (1, 1)), Rect((5, -1), (6, 0)), Rect((2, 2), (3, 3))])
        assert u == Rect((0, -1), (6, 3))

    def test_union_all_empty_rejected(self):
        with pytest.raises(GeometryError):
            union_all([])


class TestCut:
    def test_cut_fully_inside_no_remnants(self):
        inner = Rect((2, 2), (3, 3))
        portion, remnants = inner.cut(Rect((0, 0), (10, 10)))
        assert portion == inner
        assert remnants == []

    def test_cut_one_side(self):
        seg = segment(0, 100, 5)
        outer = Rect((20, 0), (120, 10))
        portion, remnants = seg.cut(outer)
        assert portion == segment(20, 100, 5)
        assert remnants == [segment(0, 20, 5)]

    def test_cut_both_sides(self):
        seg = segment(0, 100, 5)
        outer = Rect((20, 0), (80, 10))
        portion, remnants = seg.cut(outer)
        assert portion == segment(20, 80, 5)
        assert sorted(r.lows[0] for r in remnants) == [0.0, 80.0]

    def test_cut_disjoint(self):
        seg = segment(0, 10, 5)
        portion, remnants = seg.cut(Rect((50, 0), (60, 10)))
        assert portion is None
        assert remnants == [seg]

    def test_cut_2d_corner(self):
        box = Rect((0, 0), (10, 10))
        outer = Rect((5, 5), (20, 20))
        portion, remnants = box.cut(outer)
        assert portion == Rect((5, 5), (10, 10))
        # Remnants tile box - outer without overlap.
        total = portion.area + sum(r.area for r in remnants)
        assert total == pytest.approx(box.area)
        for i in range(len(remnants)):
            for j in range(i + 1, len(remnants)):
                overlap = remnants[i].intersection(remnants[j])
                assert overlap is None or overlap.area == 0.0


@settings(max_examples=200)
@given(rects(), rects())
def test_property_intersection_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)
    ia, ib = a.intersection(b), b.intersection(a)
    assert ia == ib


@settings(max_examples=200)
@given(rects(), rects())
def test_property_union_contains_both(a, b):
    u = a.union(b)
    assert u.contains(a) and u.contains(b)


@settings(max_examples=200)
@given(rects(), rects())
def test_property_cut_preserves_measure(a, outer):
    portion, remnants = a.cut(outer)
    pieces = ([portion] if portion is not None else []) + remnants
    total = sum(p.area for p in pieces)
    assert math.isclose(total, a.area, rel_tol=1e-9, abs_tol=1e-6)
    for p in pieces:
        assert a.contains(p)
    if portion is not None:
        assert outer.contains(portion)
    for r in remnants:
        inter = r.intersection(outer)
        assert inter is None or inter.area == 0.0


@settings(max_examples=200)
@given(rects(), rects())
def test_property_spans_implies_intersects(a, b):
    if a.spans(b):
        assert a.intersects(b)


@settings(max_examples=200)
@given(rects())
def test_property_contains_self(a):
    assert a.contains(a)
    assert a.spans(a)
    assert a.enlargement(a) == 0.0
