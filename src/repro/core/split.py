"""Node-splitting algorithms: Guttman's quadratic and linear splits, and R*'s.

Each partitions a list of boxes into two groups subject to a minimum fill
``m``.  A box is anything with ``lows`` / ``highs``: a ``Rect``, or the
entries of the overflowing node themselves — data entries on a leaf,
branches above — whose flat mirrors the splits read (``RTree._split_node``).
The SR-Tree then carries spanning records over with their branches
(Section 3.1.2, Figure 4).

The two Guttman splits are the write side's geometry kernel (DESIGN §3.2):
templates compiled per dimensionality K by :func:`repro.core.kernel.unrolled`,
like ChooseLeaf.  The per-dimension work of PickSeeds' pair loop, PickNext
and the growth of the two group covers is spelled out once per dimension,
and each cover is a set of unrolled locals plus its area.  Every float is
the one the ``Rect`` methods would have produced, in the same order, so the
groups are those of the ``Rect``-based version kept as the test oracle
(``tests/_reference_split.py``).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from ..exceptions import ConfigError
from .geometry import Rect
from .kernel import unrolled

__all__ = ["split_rects", "quadratic_split", "linear_split", "rstar_split"]


class Box(Protocol):
    """What a split reads of each entry: its bounds."""

    @property
    def lows(self) -> Sequence[float]: ...

    @property
    def highs(self) -> Sequence[float]: ...


def split_rects(
    boxes: Sequence[Box], min_entries: int, algorithm: str
) -> tuple[list[int], list[int]]:
    """Partition ``boxes`` (by index) into two groups using ``algorithm``.

    Args:
        boxes: The overflowing node's entries, or their rectangles.
        min_entries: Guttman's m - each group receives at least this many.
        algorithm: "quadratic", "linear", or "rstar".

    Returns:
        Two disjoint index lists covering ``range(len(boxes))``.
    """
    if len(boxes) < 2:
        raise ConfigError("cannot split fewer than two entries")
    min_entries = min(min_entries, len(boxes) // 2)
    if algorithm == "linear":
        return linear_split(boxes, min_entries)
    if algorithm == "rstar":
        return rstar_split(boxes, min_entries)
    if algorithm == "quadratic":
        return quadratic_split(boxes, min_entries)
    raise ConfigError(f"unknown split algorithm {algorithm!r}")


# The floats of both templates are the ``Rect`` methods' (DESIGN §3.2 "Float
# identity"): an area is 1.0 times each extent in dimension order; a grown
# extent is ``max(cover_hi, hi) - min(cover_lo, lo)``, spelled so that the
# cover's bound (the first argument) survives a tie; an enlargement is
# ``grown - area``; ``<`` and ``>`` are strict, so the first index wins a tie.

#: Guttman's quadratic split, compiled per K.  PickSeeds: the pair wasting
#: the most area together, ``union - area_i - area_j``.  PickNext keeps every
#: remaining entry's enlargement of each cover in ``enl_a`` / ``enl_b``; an
#: assignment grows one cover only, so only that group's list is recomputed
#: (``None`` until the next PickNext) — the other holds the same floats it
#: would be recomputed to.  The argmax starts at position -1: a NaN
#: preference (an infinite bound) never wins, and when every one is NaN the
#: last remaining entry is taken; its enlargements then compare false both
#: ways, so the area tie-break decides.
_QUADRATIC = """
from repro.core.floatcmp import fne

def quadratic(boxes, min_entries):
    flat = []
    for box in boxes:
        <<|l{d}, >>= box.lows
        <<|h{d}, >>= box.highs
        flat.append((<<|l{d}, >><<|h{d}, >>1.0<<| * (h{d} - l{d})>>))
    n = len(flat)
    seed_a = 0
    seed_b = 1
    worst = float("-inf")
    for i in range(n - 1):
        <<|l{d}, >><<|h{d}, >>area_i = flat[i]
        for j in range(i + 1, n):
            <<|x{d}, >><<|y{d}, >>area_j = flat[j]
            w = 1.0<<| * ((y{d} if y{d} > h{d} else h{d}) - (x{d} if x{d} < l{d} else l{d}))>>
            w = w - area_i - area_j
            if w > worst:
                worst = w
                seed_a = i
                seed_b = j

    group_a = [seed_a]
    group_b = [seed_b]
    <<|al{d}, >><<|ah{d}, >>area_a = flat[seed_a]
    <<|bl{d}, >><<|bh{d}, >>area_b = flat[seed_b]
    remaining = [i for i in range(n) if i != seed_a and i != seed_b]
    rest = [flat[i] for i in remaining]
    enl_a = enl_b = None
    while remaining:
        # If one group needs every remaining entry to reach min fill,
        # assign them all to it.
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break

        if enl_a is None:
            enl_a = [
                1.0<<| * ((y{d} if y{d} > ah{d} else ah{d}) - (x{d} if x{d} < al{d} else al{d}))>>
                - area_a
                for <<|x{d}, >><<|y{d}, >>_ in rest
            ]
        if enl_b is None:
            enl_b = [
                1.0<<| * ((y{d} if y{d} > bh{d} else bh{d}) - (x{d} if x{d} < bl{d} else bl{d}))>>
                - area_b
                for <<|x{d}, >><<|y{d}, >>_ in rest
            ]
        best = -1
        best_diff = -1.0
        pos = 0
        for p, q in zip(enl_a, enl_b):
            diff = abs(p - q)
            if diff > best_diff:
                best_diff = diff
                best = pos
            pos += 1
        i = remaining.pop(best)
        <<|x{d}, >><<|y{d}, >>_ = rest.pop(best)
        p = enl_a.pop(best)
        q = enl_b.pop(best)

        if p < q:
            to_a = True
        elif q < p:
            to_a = False
        elif fne(area_a, area_b):
            to_a = area_a < area_b
        else:
            to_a = len(group_a) <= len(group_b)

        if to_a:
            group_a.append(i)
            <<; |al{d} = x{d} if x{d} < al{d} else al{d}>>
            <<; |ah{d} = y{d} if y{d} > ah{d} else ah{d}>>
            area_a = 1.0<<| * (ah{d} - al{d})>>
            enl_a = None
        else:
            group_b.append(i)
            <<; |bl{d} = x{d} if x{d} < bl{d} else bl{d}>>
            <<; |bh{d} = y{d} if y{d} > bh{d} else bh{d}>>
            area_b = 1.0<<| * (bh{d} - bl{d})>>
            enl_b = None

    return group_a, group_b
"""

#: Guttman's linear split after its PickSeeds, compiled per K: each entry in
#: turn joins the group whose cover it enlarges less; on a tie, the smaller
#: group.
_LINEAR = """
def linear(boxes, min_entries, seed_a, seed_b):
    group_a = [seed_a]
    group_b = [seed_b]
    <<|al{d}, >>= boxes[seed_a].lows
    <<|ah{d}, >>= boxes[seed_a].highs
    <<|bl{d}, >>= boxes[seed_b].lows
    <<|bh{d}, >>= boxes[seed_b].highs
    area_a = 1.0<<| * (ah{d} - al{d})>>
    area_b = 1.0<<| * (bh{d} - bl{d})>>
    remaining = [i for i in range(len(boxes)) if i != seed_a and i != seed_b]

    for pos, i in enumerate(remaining):
        rest = len(remaining) - pos
        if len(group_a) + rest == min_entries:
            group_a.extend(remaining[pos:])
            return group_a, group_b
        if len(group_b) + rest == min_entries:
            group_b.extend(remaining[pos:])
            return group_a, group_b
        <<|x{d}, >>= boxes[i].lows
        <<|y{d}, >>= boxes[i].highs
        p = 1.0<<| * ((y{d} if y{d} > ah{d} else ah{d}) - (x{d} if x{d} < al{d} else al{d}))>>
        p -= area_a
        q = 1.0<<| * ((y{d} if y{d} > bh{d} else bh{d}) - (x{d} if x{d} < bl{d} else bl{d}))>>
        q -= area_b
        if p < q or (p == q and len(group_a) <= len(group_b)):
            group_a.append(i)
            <<; |al{d} = x{d} if x{d} < al{d} else al{d}>>
            <<; |ah{d} = y{d} if y{d} > ah{d} else ah{d}>>
            area_a = 1.0<<| * (ah{d} - al{d})>>
        else:
            group_b.append(i)
            <<; |bl{d} = x{d} if x{d} < bl{d} else bl{d}>>
            <<; |bh{d} = y{d} if y{d} > bh{d} else bh{d}>>
            area_b = 1.0<<| * (bh{d} - bl{d})>>
    return group_a, group_b
"""


def quadratic_split(boxes: Sequence[Box], min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's quadratic-cost split."""
    split = unrolled(_QUADRATIC, "quadratic", len(boxes[0].lows))
    groups: tuple[list[int], list[int]] = split(boxes, min_entries)
    return groups


def rstar_split(boxes: Sequence[Box], min_entries: int) -> tuple[list[int], list[int]]:
    """The R*-Tree split (Beckmann et al. 1990).

    ChooseSplitAxis: for every axis, sort by low then by high bound and sum
    the margins of all legal two-group distributions; pick the axis with
    the smallest sum.  ChooseSplitIndex: on that axis, pick the
    distribution with the least overlap between the two covering
    rectangles, ties broken by least combined area.  It works on ``Rect``
    objects throughout (DESIGN §3.2 "What was left alone").
    """
    rects = [Rect(b.lows, b.highs) for b in boxes]
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


def _pick_seeds_linear(boxes: Sequence[Box]) -> tuple[int, int]:
    """Linear PickSeeds: the pair with the greatest normalised separation,
    one dimension (a column of lows and one of highs) at a time."""
    best_pair = (0, 1)
    best_separation = float("-inf")
    low_cols = zip(*(b.lows for b in boxes))
    high_cols = zip(*(b.highs for b in boxes))
    for low_col, high_col in zip(low_cols, high_cols):
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


def linear_split(boxes: Sequence[Box], min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's linear-cost split."""
    split = unrolled(_LINEAR, "linear", len(boxes[0].lows))
    groups: tuple[list[int], list[int]] = split(boxes, min_entries, *_pick_seeds_linear(boxes))
    return groups
