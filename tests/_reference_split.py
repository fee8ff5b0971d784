"""Guttman's quadratic and linear splits written over ``Rect`` objects.

This is ``repro.core.split`` as it stood before the write-side kernel
(DESIGN §3.2): every candidate pair is a ``Rect.union(...).area`` and every
PickNext probe two ``Rect.enlargement`` calls.  It is kept, verbatim, as the
oracle the flat implementation must agree with *group for group, in order*
(``tests/test_split.py``) and build for build (``tests/test_write_kernel.py``).
Only :func:`split_rects` changed: ``RTree._split_node`` now passes the
node's entries, and the oracle splits their ``rect``s.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.core import split as kernel
from repro.core.floatcmp import fne
from repro.core.geometry import Rect

__all__ = ["split_rects", "quadratic_split", "linear_split"]


def split_rects(boxes: list, min_entries: int, algorithm: str) -> tuple[list[int], list[int]]:
    """``repro.core.split.split_rects`` with the ``Rect``-based Guttman
    splits behind it; everything else (``rstar``, the error cases) is the
    kernel's own.  ``boxes`` are ``Rect`` objects or a node's entries,
    whose ``rect`` is split."""
    if len(boxes) < 2 or algorithm not in ("quadratic", "linear"):
        return kernel.split_rects(boxes, min_entries, algorithm)
    rects = [box if isinstance(box, Rect) else box.rect for box in boxes]
    split = quadratic_split if algorithm == "quadratic" else linear_split
    return split(rects, min(min_entries, len(rects) // 2))


def _pick_seeds_quadratic(rects: list[Rect]) -> tuple[int, int]:
    """PickSeeds: the pair wasting the most area when grouped together."""
    worst_pair = (0, 1)
    worst_waste = float("-inf")
    for i in range(len(rects)):
        area_i = rects[i].area
        for j in range(i + 1, len(rects)):
            waste = rects[i].union(rects[j]).area - area_i - rects[j].area
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (i, j)
    return worst_pair


def quadratic_split(rects: list[Rect], min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's quadratic-cost split."""
    seed_a, seed_b = _pick_seeds_quadratic(rects)
    group_a, group_b = [seed_a], [seed_b]
    cover_a, cover_b = rects[seed_a], rects[seed_b]
    remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]

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
        best_enl: tuple[float, float] = (0.0, 0.0)
        for pos, i in enumerate(remaining):
            enl_a = cover_a.enlargement(rects[i])
            enl_b = cover_b.enlargement(rects[i])
            diff = abs(enl_a - enl_b)
            if diff > best_diff:
                best_diff = diff
                best_idx = pos
                best_enl = (enl_a, enl_b)
        i = remaining.pop(best_idx)
        enl_a, enl_b = best_enl

        if enl_a < enl_b:
            choose_a = True
        elif enl_b < enl_a:
            choose_a = False
        elif fne(cover_a.area, cover_b.area):
            choose_a = cover_a.area < cover_b.area
        else:
            choose_a = len(group_a) <= len(group_b)

        if choose_a:
            group_a.append(i)
            cover_a = cover_a.union(rects[i])
        else:
            group_b.append(i)
            cover_b = cover_b.union(rects[i])

    return group_a, group_b


def _pick_seeds_linear(rects: list[Rect]) -> tuple[int, int]:
    """Linear PickSeeds: the pair with the greatest normalised separation."""
    dims = rects[0].dims
    best_pair = (0, 1)
    best_separation = float("-inf")
    for d in range(dims):
        # Highest low side and lowest high side.
        high_low = max(range(len(rects)), key=lambda i: rects[i].lows[d])
        low_high = min(range(len(rects)), key=lambda i: rects[i].highs[d])
        if high_low == low_high:
            continue
        width = max(r.highs[d] for r in rects) - min(r.lows[d] for r in rects)
        if width <= 0.0:
            continue
        separation = (rects[high_low].lows[d] - rects[low_high].highs[d]) / width
        if separation > best_separation:
            best_separation = separation
            best_pair = (low_high, high_low)
    return best_pair


def linear_split(rects: list[Rect], min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's linear-cost split."""
    seed_a, seed_b = _pick_seeds_linear(rects)
    group_a, group_b = [seed_a], [seed_b]
    cover_a, cover_b = rects[seed_a], rects[seed_b]
    remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]

    for pos, i in enumerate(remaining):
        rest = len(remaining) - pos
        if len(group_a) + rest == min_entries:
            group_a.extend(remaining[pos:])
            return group_a, group_b
        if len(group_b) + rest == min_entries:
            group_b.extend(remaining[pos:])
            return group_a, group_b
        enl_a = cover_a.enlargement(rects[i])
        enl_b = cover_b.enlargement(rects[i])
        if enl_a < enl_b or (enl_a == enl_b and len(group_a) <= len(group_b)):
            group_a.append(i)
            cover_a = cover_a.union(rects[i])
        else:
            group_b.append(i)
            cover_b = cover_b.union(rects[i])
    return group_a, group_b
