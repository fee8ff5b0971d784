"""Batched execution engine: shared-traversal search and grouped insert.

Every index in this repo answers queries one at a time: each search or
insert descends from the root independently, re-faulting the same
upper-level pages through the buffer pool once per operation.  This module
amortizes that I/O across a *batch*:

* :func:`batch_search` — takes a list of query rectangles, orders them
  along a Hilbert curve so spatially close queries sit together, and runs
  one shared depth-first traversal per cluster.  Each node is visited **at
  most once per cluster** and the set of still-active queries is fanned
  down with the traversal, so a page that serves twenty queries is faulted
  once instead of twenty times.
* :func:`batch_insert` — takes a list of (rect, payload) records, groups
  them by their ChooseLeaf target at every level, appends whole groups to
  their destination leaves, and **defers** split handling and MBR
  adjustment to one pass per touched node instead of one pass per record.
  Oversized overflow (a whole batch landing in one leaf) is resolved with
  a Sort-Tile-Recursive bulk split rather than repeated binary splits.

Both functions work uniformly across the R-Tree family — :class:`RTree`,
:class:`SRTree`, the skeleton variants and packed trees — including
spanning-record placement, cutting, demotion and promotion in the SR
variants: the engine drives the exact same hooks
(``_try_place_spanning`` / ``_check_spanning_node`` / ``_split_node``) the
sequential path uses, so every structural invariant checked by
:func:`repro.core.validation.check_index` is preserved.  Results are
set-identical to issuing the operations one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..exceptions import IndexStructureError
from .entry import BranchEntry, DataEntry
from .geometry import Rect, union_all
from .node import Node
from .packed import str_partition
from .query import Fetch, SpanningHit
from .rtree import RTree

__all__ = [
    "batch_search",
    "batch_search_with_stats",
    "batch_insert",
    "batch_insert_with_stats",
    "hilbert_index",
    "curve_key",
    "curve_keyspace",
    "CURVE_ORDER",
    "batch_order",
    "cluster_batch",
    "BatchSearchStats",
    "BatchInsertStats",
]

#: Bits per dimension for the space-filling-curve keys.  The sharded
#: serving tier partitions the key space ``[0, curve_keyspace(dims))``
#: produced at this order, so it is part of the public surface.
CURVE_ORDER = 16

_CURVE_ORDER = CURVE_ORDER

#: A node more than this many times over capacity is split with one
#: Sort-Tile-Recursive pass instead of repeated quadratic splits (which
#: are O(n^2) per pass and would make bulk-sized batches quadratic).
_BULK_SPLIT_FACTOR = 3

#: Fill factor for nodes produced by a bulk split: full enough to keep the
#: tree compact, loose enough that the next insert does not re-split.
_BULK_SPLIT_FILL = 0.7


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
    order = batch_order(rects)
    if max_cluster is None or max_cluster >= len(order):
        return [order] if order else []
    if max_cluster < 1:
        raise IndexStructureError("max_cluster must be positive")
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
            accessed += _shared_search(
                tree._access, tree.root, rects, cluster, hits, seen, on_spanning_hit
            )
        found = sum(len(h) for h in hits)
        sp.set(nodes_accessed=accessed, records_found=found, clusters=len(clusters))
    for e in tree._loose_entries():
        for qi, rect in enumerate(rects):
            if e.rect.intersects(rect):
                hits[qi].append(e)
    tree.stats.searches += len(rects)
    tree.stats.search_node_accesses += accessed
    return [[(e.record_id, e.payload) for e in h] for h in hits], BatchSearchStats(
        queries=len(rects),
        clusters=len(clusters),
        nodes_accessed=accessed,
        records_found=sum(len(h) for h in hits),
    )


def _shared_search(
    fetch: Fetch,
    root: Any,
    rects: Sequence[Rect],
    cluster: list[int],
    hits: list[list[Any]],
    seen: list[set[int]],
    on_spanning_hit: SpanningHit | None,
) -> int:
    """One shared depth-first traversal for the queries in ``cluster``,
    over the same node view and ``fetch`` callback as the single-query
    kernel (:mod:`repro.core.query`).

    It is a second function, not a mode of that kernel, because it is a
    different algorithm: each stack frame carries the node plus the
    indices of queries still *active* there (those whose rectangle
    intersects the node's region), so a node is visited — and its page
    faulted — at most once per cluster.  The bookkeeping costs about 3x
    per query on resident nodes and pays only when pages fault.
    """
    accessed = 0
    stack: list[tuple[Any, list[int]]] = [(root, list(cluster))]
    while stack:
        handle, active = stack.pop()
        node = fetch(handle)
        accessed += 1
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
    return accessed


# ----------------------------------------------------------------------
# Batched insert
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchInsertStats:
    """Structural statistics for one :func:`batch_insert` call."""

    records: int
    leaves_touched: int
    splits: int
    reinserted: int


def batch_insert(
    tree: RTree, items: Sequence[tuple[Rect, Any]], *, reorder: bool = True
) -> list[int]:
    """Insert every (rect, payload) in ``items``; returns their record ids.

    Records are routed down the tree in ChooseLeaf groups, appended to
    their destination leaves in bulk, and split/MBR maintenance is paid
    once per touched node.  SR-variants place spanning records (with
    cutting) during the routing descent exactly as the sequential path
    does; remnants and demoted records drain through the standard
    insertion queue at the end of the batch.
    """
    ids, _ = batch_insert_with_stats(tree, items, reorder=reorder)
    return ids


def batch_insert_with_stats(
    tree: RTree, items: Sequence[tuple[Rect, Any]], *, reorder: bool = True
) -> tuple[list[int], BatchInsertStats]:
    """Like :func:`batch_insert` but also reports structural statistics."""
    pending_items = list(items)
    ids: list[int] = []
    consumed = 0
    # A skeleton index still buffering for distribution prediction owns
    # record-id assignment and may materialize mid-batch; feed it through
    # its own insert until the prediction phase ends.
    while consumed < len(pending_items) and getattr(tree, "predicting", False):
        rect, payload = pending_items[consumed]
        ids.append(tree.insert(rect, payload))
        consumed += 1
    rest = pending_items[consumed:]
    if not rest:
        return ids, BatchInsertStats(len(ids), 0, 0, 0)

    for rect, _ in rest:
        tree._check_rect(rect)
    entries: list[DataEntry] = []
    for rect, payload in rest:
        record_id = tree._next_record_id
        tree._next_record_id += 1
        tree._fragment_counts[record_id] = 1
        entries.append(DataEntry(rect, record_id, payload))
        ids.append(record_id)
    tree._size += len(entries)
    tree.stats.inserts += len(entries)

    splits_before = tree.stats.splits
    with tree.tracer.span("batch_insert", records=len(entries)) as sp:
        leaves_touched, reinserted = _grouped_insert(tree, entries, reorder)
        splits = tree.stats.splits - splits_before
        sp.set(leaves_touched=leaves_touched, splits=splits, reinserted=reinserted)
    tree._after_batch_insert(len(entries))
    return ids, BatchInsertStats(
        records=len(ids),
        leaves_touched=leaves_touched,
        splits=tree.stats.splits - splits_before,
        reinserted=reinserted,
    )


def _grouped_insert(
    tree: RTree, entries: list[DataEntry], reorder: bool
) -> tuple[int, int]:
    """Route ``entries`` down in groups; returns (leaves touched, reinserts).

    The routing pass appends records to leaves (or places them as spanning
    records) without splitting leaves or re-checking spanning links; those
    two maintenance passes run once afterwards, over the touched/grown
    node sets, and any queued work (remnants from cuts, demoted records)
    drains through the standard insertion loop.
    """
    if reorder and len(entries) > 1:
        order = batch_order([e.rect for e in entries])
        entries = [entries[i] for i in order]

    tree._demote_counts = {}
    pending: list[DataEntry] = []
    touched: list[Node] = []
    grown: dict[int, Node] = {}
    start_root = tree.root
    _route(tree, start_root, entries, pending, touched, grown)

    # Deferred split propagation: one pass per touched leaf.
    for leaf in touched:
        if tree._node_overflowing(leaf):
            _bulk_split(tree, leaf, pending)

    # Deferred demotion checks: once per node whose parent branch grew
    # (the sequential path checks after every single record).
    for child in grown.values():
        owner = child.parent
        if owner is not None:
            tree._check_spanning_node(owner, pending)

    # Splits during routing may have pushed the root above the subtree the
    # batch descended into; re-tighten the branch rectangles on that path.
    _tighten_upward(tree, start_root)

    reinserted = len(pending)
    if pending:
        tree._drain_insertion(pending)
    return len(touched), reinserted


def _route(
    tree: RTree,
    node: Node,
    group: list[DataEntry],
    pending: list[DataEntry],
    touched: list[Node],
    grown: dict[int, Node],
    via: BranchEntry | None = None,
) -> Rect | None:
    """Recursively route ``group`` below ``node``, reached through branch
    ``via`` (``None`` at the root).

    Returns the union of the rectangles that landed in leaves of this
    subtree (``None`` when every record was placed as a spanning record),
    which is exactly the contribution the parent's branch rectangle must
    grow by — spanning placements are already inside their node's region
    and contribute nothing, matching the sequential insertion's semantics.
    """
    if node.is_leaf:
        node.data_entries.extend(group)
        tree._touch(node)
        touched.append(node)
        return union_all([e.rect for e in group])

    descend: list[DataEntry] = []
    for entry in group:
        allow = tree._demote_counts.get(entry.record_id, 0) < 2
        region = None if via is None else via.rect
        if allow and tree._try_place_spanning(node, entry, pending, region):
            if via is None and node.parent is not None:
                # The placement split the root: ``node`` now has a region.
                via = node.parent.branch_for_child(node)
            continue
        descend.append(entry)
    if not descend:
        return None

    # Group the remaining records by their ChooseLeaf branch.  Placement
    # above may have split ``node``; grouping over its current branches
    # keeps every record inside this subtree, which is all correctness
    # needs (search never relies on ChooseLeaf being optimal).
    by_branch: dict[int, tuple[BranchEntry, list[DataEntry]]] = {}
    for entry in descend:
        branch = tree._choose_branch(node, entry.rect)
        slot = by_branch.get(id(branch))
        if slot is None:
            by_branch[id(branch)] = (branch, [entry])
        else:
            slot[1].append(entry)

    contribution: Rect | None = None
    for branch, sub in by_branch.values():
        child_rect = _route(tree, branch.child, sub, pending, touched, grown, branch)
        if child_rect is None:
            continue
        if not branch.rect.contains(child_rect):
            branch.rect = branch.rect.union(child_rect)
            tree._touch(node)
            grown[id(branch.child)] = branch.child
        contribution = (
            child_rect if contribution is None else contribution.union(child_rect)
        )
    return contribution


def _tighten_upward(tree: RTree, node: Node) -> None:
    """Grow stale branch rectangles on the path from ``node`` to the root.

    Needed when a split during routing created new ancestors above the
    node the batch started from: their branch rectangles were computed
    before the batch finished growing the subtree.
    """
    child = node
    while child.parent is not None:
        parent = child.parent
        branch = parent.branch_for_child(child)
        rect = tree._node_rect(child)
        if not branch.rect.contains(rect):
            branch.rect = branch.rect.union(rect)
            tree._touch(parent)
        child = parent


def _bulk_split(tree: RTree, node: Node, pending: list[DataEntry]) -> None:
    """Split an overfull node, once, however far over capacity it is.

    Mildly overfull nodes use the tree's configured split algorithm (so
    batched trees stay structurally comparable to sequential ones).  A
    node holding several nodes' worth of entries — a whole batch routed to
    one leaf — is instead tiled into ``k`` siblings with one
    Sort-Tile-Recursive pass: the quadratic splitter is O(n^2) *per
    split* and would be re-run O(n / capacity) times.
    """
    capacity = tree.config.capacity(node.level)
    if node.slots_used <= capacity:
        return
    if node.slots_used <= _BULK_SPLIT_FACTOR * capacity:
        tree._split_node(node, pending)
        return

    config = tree.config
    siblings: list[Node] = []
    if node.is_leaf:
        entries = node.data_entries
        group_size = max(
            config.min_entries(0) * 2, int(config.capacity(0) * _BULK_SPLIT_FILL)
        )
        groups = str_partition([e.rect for e in entries], group_size, config.dims)
        node.data_entries = [entries[i] for i in groups[0]]
        for group in groups[1:]:
            sibling = Node(level=0)
            sibling.data_entries = [entries[i] for i in group]
            tree._touch(sibling)
            siblings.append(sibling)
    else:
        branches = node.branches
        group_size = max(
            2,
            int(config.branch_capacity(node.level, tree.segment_index) * _BULK_SPLIT_FILL),
        )
        groups = str_partition([b.rect for b in branches], group_size, config.dims)
        node.branches = [branches[i] for i in groups[0]]
        for group in groups[1:]:
            sibling = Node(level=node.level)
            sibling.branches = [branches[i] for i in group]
            for b in sibling.branches:
                b.child.parent = sibling
            tree._touch(sibling)
            siblings.append(sibling)
    if not siblings:
        # str_partition kept everything in one group (cannot happen while
        # the node is over capacity, but guard the invariant explicitly).
        raise IndexStructureError("bulk split produced no siblings")

    # A split node stops being a skeleton cell (same rule as _split_node).
    node.assigned_region = None
    tree._touch(node)
    tree.stats.splits += len(siblings)
    if tree.tracer.enabled:
        for sibling in siblings:
            tree.tracer.event(
                "split",
                node_id=node.node_id,
                sibling_id=sibling.node_id,
                level=node.level,
                page_bytes=config.node_bytes(node.level),
            )

    parent = node.parent
    if parent is None:
        parent = Node(level=node.level + 1)
        parent.branches.append(BranchEntry(tree._node_rect(node), node))
        node.parent = parent
        tree.root = parent
        tree._height += 1
        tree._mark(parent)
    else:
        parent.branch_for_child(node).rect = tree._node_rect(node)
        tree._touch(parent)
    for sibling in siblings:
        sibling.parent = parent
        parent.branches.append(BranchEntry(tree._node_rect(sibling), sibling))

    # Spanning records rode along with their branches; a tiled half can
    # exceed its spanning quota, and the shrunken regions can invalidate
    # links on the parent — same post-split obligations as _split_node
    # (promotion is skipped: records stay exactly as placed, which is
    # always legal; the next split or demotion pass may promote them).
    tree._check_spanning_node(parent, pending)
    for half in (node, *siblings):
        if tree._node_overflowing(half):
            tree._split_node(half, pending)
    if tree._node_overflowing(parent):
        _bulk_split(tree, parent, pending)
