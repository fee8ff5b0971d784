"""Structural invariant checker for the R-Tree / SR-Tree family.

Used by the test suite after arbitrary operation sequences; raising
:class:`~repro.exceptions.IndexStructureError` with a precise message makes
hypothesis shrinking effective.
"""

from __future__ import annotations

from collections import defaultdict

from ..exceptions import IndexStructureError
from .floatcmp import exact_zero
from .geometry import Rect, spans
from .node import Node
from .rtree import RTree

__all__ = ["check_index", "collect_fragments"]


def check_index(tree: RTree) -> None:
    """Assert every structural invariant of ``tree``.

    Checks performed:

    * parent/child pointers are mutually consistent and levels decrease by
      exactly one along each branch;
    * every branch rectangle contains its child's full contents (data
      entries, child branches, spanning records, and any skeleton assigned
      region);
    * every spanning record is linked to a branch it spans and lies inside
      the node that stores it (non-root nodes), per Section 3.1.3's
      containment requirement;
    * capacity limits: leaves within leaf capacity, non-leaf branch counts
      within the branch reservation (SR-Trees), with the documented
      tolerance for spanning pressure on nodes too small to split;
    * leaves appear only at level 0 and all at the same depth;
    * fragments of one logical record never overlap with positive measure;
    * the number of distinct record ids equals ``len(tree)``.
    """
    if tree.root.parent is not None:
        raise IndexStructureError("root must not have a parent")
    leaf_depths: set[int] = set()
    _check_node(tree, tree.root, region=None, depth=0, leaf_depths=leaf_depths)
    if len(leaf_depths) > 1:
        raise IndexStructureError(f"leaves at multiple depths: {sorted(leaf_depths)}")

    fragments = collect_fragments(tree)
    buffered = 0
    predictor = getattr(tree, "_predictor", None)
    if predictor is not None:
        buffered = len(predictor.buffered)
    if len(fragments) + buffered != len(tree):
        raise IndexStructureError(
            f"{len(fragments)} distinct record ids in tree + {buffered} buffered "
            f"!= logical size {len(tree)}"
        )
    for record_id, rects in fragments.items():
        tracked = tree._fragment_counts.get(record_id)
        if tracked != len(rects):
            raise IndexStructureError(
                f"record {record_id}: fragment count {tracked} tracked but "
                f"{len(rects)} stored"
            )
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if _fragments_overlap(rects[i], rects[j]):
                    raise IndexStructureError(
                        f"fragments of record {record_id} overlap: "
                        f"{rects[i]} vs {rects[j]}"
                    )


def _fragments_overlap(a: Rect, b: Rect) -> bool:
    """True when two fragments of one record overlap with positive measure
    *relative to the record's own dimensionality*.

    Cutting produces fragments that may share boundary faces but never
    interior: the intersection must be degenerate in some dimension in
    which at least one fragment is extended.  (A zero-area intersection is
    not enough — two horizontal segments overlapping in X intersect with
    zero area but positive length.)
    """
    inter = a.intersection(b)
    if inter is None:
        return False
    for d in range(inter.dims):
        if exact_zero(inter.extent(d)) and (a.extent(d) > 0.0 or b.extent(d) > 0.0):
            return False  # they only touch on a boundary face
    return True


def collect_fragments(tree: RTree) -> dict[int, list[Rect]]:
    """All fragment rectangles in the tree, grouped by record id."""
    fragments: dict[int, list[Rect]] = defaultdict(list)
    for record_id, rect, _ in tree.items():
        fragments[record_id].append(rect)
    return dict(fragments)


def _check_node(
    tree: RTree,
    node: Node,
    region: Rect | None,
    depth: int,
    leaf_depths: set[int],
) -> None:
    config = tree.config

    if node.is_leaf:
        leaf_depths.add(depth)
        if node.branches:
            raise IndexStructureError(f"leaf node {node.node_id} has branches")
        if len(node.data_entries) > config.capacity(0):
            raise IndexStructureError(
                f"leaf node {node.node_id} overfull: {len(node.data_entries)}"
            )
        if region is not None:
            for e in node.data_entries:
                if not region.contains(e.rect):
                    raise IndexStructureError(
                        f"leaf entry {e!r} outside branch rect {region!r}"
                    )
            if node.assigned_region is not None and not region.contains(
                node.assigned_region
            ):
                raise IndexStructureError(
                    f"assigned region of node {node.node_id} outside branch rect"
                )
        return

    if node.data_entries:
        raise IndexStructureError(f"non-leaf node {node.node_id} has data entries")
    if not node.branches:
        raise IndexStructureError(f"non-leaf node {node.node_id} has no branches")

    # A non-leaf node reduced to a single branch cannot be split further,
    # so spanning records carried over from a split may leave it over quota
    # (documented tolerance); all other nodes obey the capacities.
    splittable = len(node.branches) >= 2
    capacity = config.capacity(node.level)
    if node.slots_used > capacity and splittable:
        raise IndexStructureError(
            f"node {node.node_id} overfull: {node.slots_used} slots > {capacity}"
        )
    if tree.segment_index and splittable:
        spanning_cap = config.spanning_capacity(node.level)
        if node.spanning_count > spanning_cap:
            raise IndexStructureError(
                f"node {node.node_id} spanning overflow: "
                f"{node.spanning_count} > {spanning_cap}"
            )

    for branch in node.branches:
        if branch.child.parent is not node:
            raise IndexStructureError(
                f"child {branch.child.node_id} parent pointer inconsistent"
            )
        if branch.child.level != node.level - 1:
            raise IndexStructureError(
                f"level gap between node {node.node_id} (L{node.level}) and "
                f"child {branch.child.node_id} (L{branch.child.level})"
            )
        if region is not None and not region.contains(branch.rect):
            raise IndexStructureError(
                f"branch rect {branch.rect!r} of node {node.node_id} pokes out "
                f"of enclosing rect {region!r}"
            )
        for record in branch.spanning:
            if not tree.segment_index:
                raise IndexStructureError(
                    f"plain R-Tree node {node.node_id} holds spanning records"
                )
            if not spans(record.lows, record.highs, branch.lows, branch.highs):
                raise IndexStructureError(
                    f"spanning record {record!r} does not span its branch "
                    f"{branch.rect!r} on node {node.node_id}"
                )
            if region is not None and not region.contains(record.rect):
                raise IndexStructureError(
                    f"spanning record {record!r} outside node region {region!r}"
                )
        _check_node(tree, branch.child, branch.rect, depth + 1, leaf_depths)
