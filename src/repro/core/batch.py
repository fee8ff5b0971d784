"""Batched search: one shared traversal answers a whole batch of queries.

Every index in this repo answers queries one at a time: each search
descends from the root independently, re-faulting the same upper-level
pages through the buffer pool once per query.  :func:`batch_search`
amortizes that I/O across a *batch*: it orders the query rectangles along
a Hilbert curve so spatially close queries sit together, and runs one
shared depth-first traversal per cluster.  Each node is visited **at most
once per cluster** and the set of still-active queries is fanned down
with the traversal, so a page that serves twenty queries is faulted once
instead of twenty times.  Results are set-identical to calling
``tree.search`` per rectangle, on every member of the R-Tree family.

There is no batched insert: a multi-record insert is the tree's own
``insert`` in a loop, and bulk loading is :func:`repro.core.packed.pack_tree`
(DESIGN §3, "Batched search").  The curve keys live here because the
sharded serving tier partitions by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..exceptions import ConfigError
from .geometry import Rect, union_all
from .query import SpanningHit
from .rtree import RTree

__all__ = [
    "batch_search",
    "batch_search_with_stats",
    "hilbert_index",
    "curve_key",
    "curve_keyspace",
    "CURVE_ORDER",
    "batch_order",
    "cluster_batch",
    "BatchSearchStats",
]

#: Bits per dimension for the space-filling-curve keys.  The sharded
#: serving tier partitions the key space ``[0, curve_keyspace(dims))``
#: produced at this order, so it is part of the public surface.
CURVE_ORDER = 16

_CURVE_ORDER = CURVE_ORDER


# ----------------------------------------------------------------------
# Space-filling-curve ordering
# ----------------------------------------------------------------------
def hilbert_index(x: int, y: int, order: int = _CURVE_ORDER) -> int:
    """Index of cell ``(x, y)`` along a 2-D Hilbert curve of ``2**order``
    cells per side (the classic iterative xy-to-d conversion)."""
    d = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the curve stays continuous.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def _morton_index(coords: Sequence[int], order: int) -> int:
    """Bit-interleaved (Z-order) key for dimensions other than 2."""
    key = 0
    for bit in range(order - 1, -1, -1):
        for c in coords:
            key = (key << 1) | ((c >> bit) & 1)
    return key


def curve_keyspace(dims: int, order: int = CURVE_ORDER) -> int:
    """Size of the curve-key space for ``dims`` dimensions at ``order``.

    :func:`curve_key` maps every rectangle into ``[0, curve_keyspace)``;
    contiguous sub-ranges of that interval are what the sharded serving
    tier partitions across workers.
    """
    return 1 << (order * dims)


def curve_key(rect: Rect, bounds: Rect, order: int = CURVE_ORDER) -> int:
    """Space-filling-curve key of a rectangle's center within ``bounds``.

    Hilbert in two dimensions, Z-order (Morton) otherwise — the same
    ordering :func:`batch_order` clusters batches by, exposed so the
    sharding partitioner routes records with the locality the batch
    engine already exploits.  Centers outside ``bounds`` clamp to its
    edge cells, so every rectangle gets a key in ``[0, curve_keyspace)``.
    """
    scale = (1 << order) - 1
    cell: list[int] = []
    center = rect.center
    for d in range(rect.dims):
        lo, hi = bounds.lows[d], bounds.highs[d]
        extent = hi - lo
        frac = (center[d] - lo) / extent if extent > 0.0 else 0.0
        q = int(frac * scale)
        cell.append(min(scale, max(0, q)))
    if rect.dims == 2:
        return hilbert_index(cell[0], cell[1], order)
    return _morton_index(cell, order)


def batch_order(rects: Sequence[Rect], bounds: Rect | None = None) -> list[int]:
    """Indices of ``rects`` sorted by Hilbert (2-D) or Z-order locality."""
    if len(rects) <= 1:
        return list(range(len(rects)))
    if bounds is None:
        bounds = union_all(rects)
    keys = [curve_key(r, bounds, _CURVE_ORDER) for r in rects]
    return sorted(range(len(rects)), key=lambda i: keys[i])


def cluster_batch(
    rects: Sequence[Rect], max_cluster: int | None = None
) -> list[list[int]]:
    """Hilbert-order the batch and chunk it into spatially local clusters.

    ``max_cluster=None`` keeps the whole batch as one cluster (one shared
    traversal); smaller clusters trade traversal sharing for tighter
    active-query sets at each node.
    """
    if max_cluster is not None and max_cluster < 1:
        raise ConfigError(f"max_cluster must be positive, got {max_cluster}")
    order = batch_order(rects)
    if max_cluster is None or max_cluster >= len(order):
        return [order] if order else []
    return [order[i : i + max_cluster] for i in range(0, len(order), max_cluster)]


# ----------------------------------------------------------------------
# Batched search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSearchStats:
    """Traversal statistics for one :func:`batch_search` call."""

    queries: int
    clusters: int
    nodes_accessed: int
    records_found: int


def batch_search(
    tree: RTree, rects: Sequence[Rect], *, max_cluster: int | None = None
) -> list[list[tuple[int, Any]]]:
    """Answer every query in ``rects`` with shared traversals.

    Returns one result list per query, positionally aligned with the
    input.  Result *sets* are identical to calling ``tree.search`` per
    rectangle; only the visit order (and therefore I/O) differs.
    """
    results, _ = batch_search_with_stats(tree, rects, max_cluster=max_cluster)
    return results


def batch_search_with_stats(
    tree: RTree, rects: Sequence[Rect], *, max_cluster: int | None = None
) -> tuple[list[list[tuple[int, Any]]], BatchSearchStats]:
    """Like :func:`batch_search` but also reports traversal statistics."""
    for rect in rects:
        tree._check_rect(rect)
    hits: list[list[Any]] = [[] for _ in rects]
    seen: list[set[int]] = [set() for _ in rects]
    clusters = cluster_batch(rects, max_cluster)
    tracer = tree.tracer
    on_spanning_hit = tree._trace_spanning_hit if tracer.enabled else None
    accessed = 0
    with tracer.span("batch_search", queries=len(rects)) as sp:
        for cluster in clusters:
            visited = _shared_search(tree.root, rects, cluster, hits, seen, on_spanning_hit)
            tree._settle(visited)
            accessed += len(visited)
        found = sum(len(h) for h in hits)
        sp.set(nodes_accessed=accessed, records_found=found, clusters=len(clusters))
    for e in tree._loose_entries():
        for qi, rect in enumerate(rects):
            if e.rect.intersects(rect):
                hits[qi].append(e)
    stats = tree.stats
    stats.searches += len(rects)
    stats.node_accesses += accessed
    stats.search_node_accesses += accessed
    return [[(e.record_id, e.payload) for e in h] for h in hits], BatchSearchStats(
        queries=len(rects),
        clusters=len(clusters),
        nodes_accessed=accessed,
        records_found=sum(len(h) for h in hits),
    )


def _shared_search(
    root: Any,
    rects: Sequence[Rect],
    cluster: list[int],
    hits: list[list[Any]],
    seen: list[set[int]],
    on_spanning_hit: SpanningHit | None,
) -> list[Any]:
    """One shared depth-first traversal for the queries in ``cluster``,
    over the same live node view as the single-query kernel
    (:mod:`repro.core.query`); returns the nodes visited, in visit order,
    for the tree to settle once per cluster.

    It is a second function, not a mode of that kernel, because it is a
    different algorithm: each stack frame carries the node plus the
    indices of queries still *active* there (those whose rectangle
    intersects the node's region), so a node is visited — and its page
    faulted — at most once per cluster.  The bookkeeping costs about 3x
    per query on resident nodes and pays only when pages fault.
    """
    visited: list[Any] = []
    stack: list[tuple[Any, list[int]]] = [(root, list(cluster))]
    while stack:
        node, active = stack.pop()
        visited.append(node)
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
    return visited
