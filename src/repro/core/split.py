"""Guttman node-splitting algorithms (quadratic and linear).

Both algorithms partition a list of rectangles into two groups subject to a
minimum fill ``m``.  They are written against bare rectangles so that leaf
splits (data entries) and non-leaf splits (branches) share one
implementation; the SR-Tree then carries spanning records over with their
branches (Section 3.1.2, Figure 4).

The two Guttman splits are the write side's geometry kernel (DESIGN §3.2):
they read each rectangle's ``lows`` / ``highs`` once and decide on those
coordinates — two running covers and their areas — without constructing a
``Rect``.  Every float is the one the ``Rect`` methods would have produced,
in the same order, so the groups are those of the ``Rect``-based version
kept as the test oracle (``tests/_reference_split.py``).
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import ConfigError
from .floatcmp import fne
from .geometry import Rect

__all__ = ["split_rects", "quadratic_split", "linear_split", "rstar_split"]


def split_rects(rects: list[Rect], min_entries: int, algorithm: str) -> tuple[list[int], list[int]]:
    """Partition ``rects`` (by index) into two groups using ``algorithm``.

    Args:
        rects: The rectangles of the overflowing node's entries.
        min_entries: Guttman's m - each group receives at least this many.
        algorithm: "quadratic", "linear", or "rstar".

    Returns:
        Two disjoint index lists covering ``range(len(rects))``.
    """
    if len(rects) < 2:
        raise ConfigError("cannot split fewer than two entries")
    min_entries = min(min_entries, len(rects) // 2)
    if algorithm == "linear":
        return linear_split(rects, min_entries)
    if algorithm == "rstar":
        return rstar_split(rects, min_entries)
    if algorithm == "quadratic":
        return quadratic_split(rects, min_entries)
    raise ConfigError(f"unknown split algorithm {algorithm!r}")


#: One bound (all the lows, or all the highs) of every rectangle of a split.
_Bounds = list[tuple[float, ...]]


def _flat(rects: list[Rect]) -> tuple[_Bounds, _Bounds, list[float]]:
    """The rectangles as the kernel reads them: their ``lows`` and ``highs``
    tuples and their areas, each taken once."""
    return [r.lows for r in rects], [r.highs for r in rects], [r.area for r in rects]


def _area(lows: Sequence[float], highs: Sequence[float]) -> float:
    """``Rect.area`` for a cover's flat bounds: ``1.0``, then ``*= hi - lo``
    per dimension."""
    area = 1.0
    for lo, hi in zip(lows, highs):
        area *= hi - lo
    return area


def _grown_area(
    clo: Sequence[float], chi: Sequence[float], lo: Sequence[float], hi: Sequence[float]
) -> float:
    """Area of the union of cover ``(clo, chi)`` and box ``(lo, hi)`` — the
    product ``Rect.enlargement`` and ``Rect.union(...).area`` both take, in
    the same order, with ``max`` / ``min`` keeping the cover's float on a tie."""
    grown = 1.0
    for d in range(len(clo)):
        a, b, c, e = chi[d], hi[d], clo[d], lo[d]
        grown *= (b if b > a else a) - (e if e < c else c)
    return grown


def _grow(clo: list[float], chi: list[float], lo: Sequence[float], hi: Sequence[float]) -> float:
    """Grow the cover in place to enclose the box; returns its new area,
    recomputed from the grown bounds (never accumulated)."""
    for d in range(len(clo)):
        if lo[d] < clo[d]:
            clo[d] = lo[d]
        if hi[d] > chi[d]:
            chi[d] = hi[d]
    return _area(clo, chi)


def _pick_seeds_quadratic(lows: _Bounds, highs: _Bounds, areas: list[float]) -> tuple[int, int]:
    """PickSeeds: the pair wasting the most area when grouped together
    (strict ``>``: the first such pair wins a tie).

    The pair loop here and PickNext's probe loop are the split's two O(n²)
    loops; both spell :func:`_grown_area` out in place, because a call per
    pair nearly doubles the time of the whole split."""
    n = len(lows)
    dims = range(len(lows[0]))
    worst_pair = (0, 1)
    worst_waste = float("-inf")
    for i in range(n):
        ilo, ihi, area_i = lows[i], highs[i], areas[i]
        for j in range(i + 1, n):
            jlo, jhi = lows[j], highs[j]
            union = 1.0
            for d in dims:
                a, b, c, e = ihi[d], jhi[d], ilo[d], jlo[d]
                union *= (b if b > a else a) - (e if e < c else c)
            waste = union - area_i - areas[j]
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (i, j)
    return worst_pair


def quadratic_split(rects: list[Rect], min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's quadratic-cost split."""
    lows, highs, areas = _flat(rects)
    seed_a, seed_b = _pick_seeds_quadratic(lows, highs, areas)
    group_a, group_b = [seed_a], [seed_b]
    alo, ahi, area_a = list(lows[seed_a]), list(highs[seed_a]), areas[seed_a]
    blo, bhi, area_b = list(lows[seed_b]), list(highs[seed_b]), areas[seed_b]
    remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]
    dims = range(len(alo))

    while remaining:
        # If one group needs every remaining entry to reach min fill,
        # assign them all to it.
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break

        # PickNext: entry with the greatest preference for one group.
        best_idx = -1
        best_diff = -1.0
        enl_a = enl_b = 0.0
        for pos, i in enumerate(remaining):
            lo, hi = lows[i], highs[i]
            to_a = to_b = 1.0
            for d in dims:
                l, h = lo[d], hi[d]
                c, a = alo[d], ahi[d]
                to_a *= (h if h > a else a) - (l if l < c else c)
                c, a = blo[d], bhi[d]
                to_b *= (h if h > a else a) - (l if l < c else c)
            to_a -= area_a
            to_b -= area_b
            diff = abs(to_a - to_b)
            if diff > best_diff:
                best_diff = diff
                best_idx = pos
                enl_a, enl_b = to_a, to_b
        i = remaining.pop(best_idx)

        if enl_a < enl_b:
            choose_a = True
        elif enl_b < enl_a:
            choose_a = False
        elif fne(area_a, area_b):
            choose_a = area_a < area_b
        else:
            choose_a = len(group_a) <= len(group_b)

        if choose_a:
            group_a.append(i)
            area_a = _grow(alo, ahi, lows[i], highs[i])
        else:
            group_b.append(i)
            area_b = _grow(blo, bhi, lows[i], highs[i])

    return group_a, group_b


def rstar_split(rects: list[Rect], min_entries: int) -> tuple[list[int], list[int]]:
    """The R*-Tree split (Beckmann et al. 1990).

    ChooseSplitAxis: for every axis, sort by low then by high bound and sum
    the margins of all legal two-group distributions; pick the axis with
    the smallest sum.  ChooseSplitIndex: on that axis, pick the
    distribution with the least overlap between the two covering
    rectangles, ties broken by least combined area.
    """
    min_entries = max(1, min_entries)
    n = len(rects)
    dims = rects[0].dims
    best_axis = 0
    best_axis_margin = float("inf")
    best_axis_orders: list[list[int]] = []

    for axis in range(dims):
        orders = [
            sorted(range(n), key=lambda i: (rects[i].lows[axis], rects[i].highs[axis])),
            sorted(range(n), key=lambda i: (rects[i].highs[axis], rects[i].lows[axis])),
        ]
        margin_sum = 0.0
        for order in orders:
            prefix, suffix = _running_covers(rects, order)
            for k in range(min_entries, n - min_entries + 1):
                margin_sum += prefix[k - 1].margin + suffix[k].margin
        if margin_sum < best_axis_margin:
            best_axis_margin = margin_sum
            best_axis = axis
            best_axis_orders = orders

    best_groups: tuple[list[int], list[int]] | None = None
    best_overlap = float("inf")
    best_area = float("inf")
    for order in best_axis_orders:
        prefix, suffix = _running_covers(rects, order)
        for k in range(min_entries, n - min_entries + 1):
            left = prefix[k - 1]
            right = suffix[k]
            inter = left.intersection(right)
            overlap = inter.area if inter is not None else 0.0
            area = left.area + right.area
            if overlap < best_overlap or (overlap == best_overlap and area < best_area):
                best_overlap = overlap
                best_area = area
                best_groups = (list(order[:k]), list(order[k:]))
    assert best_groups is not None
    return best_groups


def _running_covers(rects: list[Rect], order: list[int]) -> tuple[list[Rect], list[Rect]]:
    """prefix[i] = cover of order[:i+1]; suffix[i] = cover of order[i:]."""
    n = len(order)
    prefix = [rects[order[0]]] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1].union(rects[order[i]])
    suffix = [rects[order[-1]]] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1].union(rects[order[i]])
    return prefix, suffix


def _pick_seeds_linear(lows: _Bounds, highs: _Bounds) -> tuple[int, int]:
    """Linear PickSeeds: the pair with the greatest normalised separation."""
    best_pair = (0, 1)
    best_separation = float("-inf")
    for d in range(len(lows[0])):
        low_col = [lo[d] for lo in lows]
        high_col = [hi[d] for hi in highs]
        # Highest low side and lowest high side (the first entry with each).
        highest_low = max(low_col)
        lowest_high = min(high_col)
        high_low = low_col.index(highest_low)
        low_high = high_col.index(lowest_high)
        if high_low == low_high:
            continue
        width = max(high_col) - min(low_col)
        if width <= 0.0:
            continue
        separation = (highest_low - lowest_high) / width
        if separation > best_separation:
            best_separation = separation
            best_pair = (low_high, high_low)
    return best_pair


def linear_split(rects: list[Rect], min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's linear-cost split."""
    lows, highs, areas = _flat(rects)
    seed_a, seed_b = _pick_seeds_linear(lows, highs)
    group_a, group_b = [seed_a], [seed_b]
    alo, ahi, area_a = list(lows[seed_a]), list(highs[seed_a]), areas[seed_a]
    blo, bhi, area_b = list(lows[seed_b]), list(highs[seed_b]), areas[seed_b]
    remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]

    for pos, i in enumerate(remaining):
        rest = len(remaining) - pos
        if len(group_a) + rest == min_entries:
            group_a.extend(remaining[pos:])
            return group_a, group_b
        if len(group_b) + rest == min_entries:
            group_b.extend(remaining[pos:])
            return group_a, group_b
        lo, hi = lows[i], highs[i]
        enl_a = _grown_area(alo, ahi, lo, hi) - area_a
        enl_b = _grown_area(blo, bhi, lo, hi) - area_b
        if enl_a < enl_b or (enl_a == enl_b and len(group_a) <= len(group_b)):
            group_a.append(i)
            area_a = _grow(alo, ahi, lo, hi)
        else:
            group_b.append(i)
            area_b = _grow(blo, bhi, lo, hi)
    return group_a, group_b
