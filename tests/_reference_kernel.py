"""The hot geometric loops as they stood before they were compiled per K.

``repro.core.kernel`` instantiates the read kernel's overlap test (for
one query and for a batch) and fragment collection, ChooseLeaf and the
SR-Tree's spanned-branch scan once per dimensionality from one template
each.  The loops they
replaced are kept here verbatim, ``for d in range(K)``, ``Rect.intersects``
and all, as the oracle those instances must agree with: the same hits in
the same order, the same node count, the same branch chosen
(``tests/test_kernel.py``, and the builds of
``tests/test_write_kernel.py``).  Test-only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.entry import BranchEntry
from repro.core.geometry import Rect, spans
from repro.core.node import Node
from repro.core.query import Fetch, SpanningHit
from repro.exceptions import IndexStructureError

__all__ = ["intersecting", "intersecting_many", "fragments", "choose_branch", "first_spanned"]


def intersecting(
    fetch: Fetch | None, root: Any, rect: Rect, on_spanning_hit: SpanningHit | None = None
) -> tuple[list[Any], list[Any]]:
    """``repro.core.query.intersecting``."""
    hits: list[Any] = []
    seen: set[int] = set()
    visited: list[Any] = []
    rlo, rhi = rect.lows, rect.highs
    dims = range(len(rlo))
    stack = [root] if root else []
    while stack:
        node = stack.pop()
        visited.append(node)
        if fetch is not None:
            node = fetch(node)
        for e in node.data_entries:
            lo, hi = e.lows, e.highs
            for d in dims:
                if lo[d] > rhi[d] or hi[d] < rlo[d]:
                    break
            else:
                if e.record_id not in seen:
                    seen.add(e.record_id)
                    hits.append(e)
        for b in node.branches:
            for e in b.spanning:
                lo, hi = e.lows, e.highs
                for d in dims:
                    if lo[d] > rhi[d] or hi[d] < rlo[d]:
                        break
                else:
                    if e.record_id not in seen:
                        seen.add(e.record_id)
                        hits.append(e)
                        if on_spanning_hit is not None:
                            on_spanning_hit(node, e)
            lo, hi = b.lows, b.highs
            for d in dims:
                if lo[d] > rhi[d] or hi[d] < rlo[d]:
                    break
            else:
                stack.append(b.child)
    return hits, visited


def intersecting_many(
    fetch: Fetch | None,
    root: Any,
    rects: Sequence[Rect],
    on_spanning_hit: SpanningHit | None = None,
) -> tuple[list[list[Any]], list[Any]]:
    """``repro.core.query.intersecting_many``: the shared depth-first
    search it replaced, which carried each node down with the indices of
    the queries still active there."""
    hits: list[list[Any]] = [[] for _ in rects]
    seen: list[set[int]] = [set() for _ in rects]
    visited: list[Any] = []
    stack: list[tuple[Any, list[int]]] = [(root, list(range(len(rects))))] if rects else []
    while stack:
        node, active = stack.pop()
        visited.append(node)
        if fetch is not None:
            node = fetch(node)
        for e in node.data_entries:
            for qi in active:
                if e.rect.intersects(rects[qi]) and e.record_id not in seen[qi]:
                    seen[qi].add(e.record_id)
                    hits[qi].append(e)
        for b in node.branches:
            for e in b.spanning:
                for qi in active:
                    if e.rect.intersects(rects[qi]) and e.record_id not in seen[qi]:
                        seen[qi].add(e.record_id)
                        hits[qi].append(e)
                        if on_spanning_hit is not None:
                            on_spanning_hit(node, e)
            sub = [qi for qi in active if b.rect.intersects(rects[qi])]
            if sub:
                stack.append((b.child, sub))
    return hits, visited


def fragments(
    fetch: Fetch | None, root: Any, rect: Rect, extra: Iterable[Any] = ()
) -> tuple[dict[int, list[Any]], list[Any]]:
    """``repro.core.query.fragments``."""
    found: dict[int, list[Any]] = {}
    visited: list[Any] = []

    def collect(records: Iterable[Any]) -> None:
        for e in records:
            if e.rect.intersects(rect):
                found.setdefault(e.record_id, []).append(e)

    stack = [root] if root else []
    while stack:
        node = stack.pop()
        visited.append(node)
        if fetch is not None:
            node = fetch(node)
        collect(node.data_entries)
        for b in node.branches:
            collect(b.spanning)
            if b.rect.intersects(rect):
                stack.append(b.child)
    collect(extra)
    return found, visited


def choose_branch(self: Any, node: Node, rect: Rect) -> BranchEntry:
    """``RTree._choose_branch``: Guttman's ChooseLeaf step, least
    enlargement, ties by area."""
    rlo, rhi = rect.lows, rect.highs
    dims = range(len(rlo))
    best: BranchEntry | None = None
    best_enl = float("inf")
    best_area = float("inf")
    for b in node.branches:
        blo, bhi = b.lows, b.highs
        area = 1.0
        grown = 1.0
        for d in dims:
            lo, hi = blo[d], bhi[d]
            area *= hi - lo
            l, h = rlo[d], rhi[d]
            grown *= (hi if hi >= h else h) - (lo if lo <= l else l)
        enl = grown - area
        if enl < best_enl or (enl == best_enl and area < best_area):
            best = b
            best_enl = enl
            best_area = area
    if best is None:
        raise IndexStructureError("non-leaf node with no branches")
    return best


def first_spanned(
    branches: Sequence[BranchEntry], plo: Sequence[float], phi: Sequence[float]
) -> BranchEntry | None:
    """The spanned-branch scan of ``SRTree._try_place_spanning``."""
    target: BranchEntry | None = None
    dims = range(len(plo))
    for branch in branches:
        blo, bhi = branch.lows, branch.highs
        for d in dims:
            if plo[d] > bhi[d] or phi[d] < blo[d]:
                break
        else:
            if spans(plo, phi, blo, bhi):
                target = branch
                break
    return target
