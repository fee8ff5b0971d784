"""The SR-Tree: the Segment Index adaptation of the R-Tree (Section 3).

The SR-Tree extends the R-Tree with the paper's first two tactics:

* **Spanning index records** — during the insertion descent, each visited
  non-leaf node checks whether the new record *spans* the region of one of
  its branches.  If so, the record is stored on that node, linked to the
  spanned branch, and the descent stops (Section 3.1.1, Figure 2).
* **Cutting** — a spanning record must be wholly contained by the node that
  stores it.  A record that pokes out of the node's region is cut into a
  *spanning portion* (clipped to the region) and *remnant portions* that are
  reinserted from the root (Figure 3).  All fragments share one record id.
* **Demotion** — an insertion that expands branch rectangles can break
  former spanning relationships; such records are removed and reinserted
  (possibly landing in a leaf).
* **Promotion** — after a non-leaf split, records that span a whole result
  node move up to the parent, linked to the corresponding branch
  (Section 3.1.2, Figure 4).

Non-leaf nodes reserve ``config.branch_fraction`` of their entry slots for
branches (paper: 2/3), leaving the rest for spanning records; node sizes
double per level (Section 2.1.2) so the reservation does not destroy fanout.
"""

from __future__ import annotations

from typing import Sequence

from .entry import BranchEntry, DataEntry
from .floatcmp import exact_zero
from .geometry import Rect, spans
from .node import Node
from .rtree import RTree

__all__ = ["SRTree"]

#: A non-leaf node needs at least this many branches before it may be split
#: to make room for spanning records; below it the record descends
#: normally.  Two is the minimum that still halves the branch set.
_MIN_BRANCHES_FOR_SPANNING_SPLIT = 2


class SRTree(RTree):
    """Segment R-Tree: an R-Tree that stores spanning records in non-leaf
    nodes.

    >>> from repro.core.geometry import segment, Rect
    >>> tree = SRTree()
    >>> for i in range(1000):
    ...     _ = tree.insert(segment(i % 97, i % 97 + 1.0, float(i)))
    >>> long_id = tree.insert(segment(0.0, 100.0, 500.0))
    >>> long_id in tree.search_ids(Rect((50, 499), (51, 501)))
    True
    """

    segment_index = True

    # ------------------------------------------------------------------
    # Spanning placement (insertion descent hook)
    # ------------------------------------------------------------------
    def _try_place_spanning(
        self, node: Node, entry: DataEntry, pending: list[DataEntry], region: Rect | None
    ) -> bool:
        # The spanning portion is the record clipped to the node's region,
        # worked out on flat bounds; the cut itself (``Rect.cut``) waits
        # until a spanned branch is found and has room.
        plo: Sequence[float] = entry.lows
        phi: Sequence[float] = entry.highs
        if region is not None:
            elo, ehi = plo, phi
            plo = [r if r > e else e for e, r in zip(elo, region.lows)]
            phi = [r if r < e else e for e, r in zip(ehi, region.highs)]
            for lo, hi, e_lo, e_hi in zip(plo, phi, elo, ehi):
                if lo > hi:
                    return False  # the record lies outside the region
                # Degenerate clip: the node region only touches the record's
                # boundary, so the "spanning portion" would be a zero-measure
                # slice duplicating a remnant's edge.  Skip spanning placement
                # and let the record descend whole.
                if exact_zero(hi - lo) and e_hi - e_lo > 0.0:
                    return False

        # Most branches do not even meet the portion; telling those apart in
        # place leaves ``spans`` a call or two per node instead of one per
        # branch (a third of an SR-Tree build at 50 K records).
        target: BranchEntry | None = None
        dims = range(len(plo))
        for branch in node.branches:
            blo, bhi = branch.lows, branch.highs
            for d in dims:
                if plo[d] > bhi[d] or phi[d] < blo[d]:
                    break
            else:
                if spans(plo, phi, blo, bhi):
                    target = branch
                    break
        if target is None:
            return False

        # The spanning area holds the 1 - branch_fraction share of the
        # slots.  When a spanning insert finds it (or the node) full, the
        # configured policy decides: "split" the node — the paper's
        # "overflow due to an attempt to insert ... a spanning index record
        # onto an already full node" — or let the record "descend" towards
        # the leaves.  Nodes too small to split into two useful halves
        # always refuse.
        over_quota = node.spanning_count >= self.config.spanning_capacity(node.level)
        full = node.slots_used >= self.config.capacity(node.level)
        if over_quota or full:
            can_split = (
                self.config.spanning_overflow_policy == "split"
                and len(node.branches) >= _MIN_BRANCHES_FOR_SPANNING_SPLIT
            )
            if not can_split:
                return False

        remnant_rects = [] if region is None else entry.rect.cut(region)[1]
        if remnant_rects:
            self.stats.cuts += 1
            self.stats.remnants += len(remnant_rects)
            self._fragment_counts[entry.record_id] = (
                self._fragment_counts.get(entry.record_id, 1) + len(remnant_rects)
            )
            record = entry.with_rect(Rect(plo, phi))
            for rect in remnant_rects:
                pending.append(entry.with_rect(rect, is_remnant=True))
            if self.tracer.enabled:
                self.tracer.event(
                    "cut",
                    record_id=entry.record_id,
                    node_id=node.node_id,
                    level=node.level,
                    remnants=len(remnant_rects),
                )
        else:
            record = entry
        target.spanning.append(record)
        self._touch(node)
        self.stats.spanning_placements += 1
        if self.tracer.enabled:
            self.tracer.event(
                "spanning_place",
                record_id=entry.record_id,
                node_id=node.node_id,
                level=node.level,
            )

        if self._node_overflowing(node):
            self._split_node(node, pending)
        return True

    def _node_overflowing(self, node: Node) -> bool:
        if node.is_leaf:
            return len(node.data_entries) > self.config.capacity(0)
        if len(node.branches) < _MIN_BRANCHES_FOR_SPANNING_SPLIT:
            return False  # cannot split a single-branch node any further
        if node.slots_used > self.config.capacity(node.level):
            return True
        if self.config.spanning_overflow_policy != "split":
            return False
        return node.spanning_count > self.config.spanning_capacity(node.level)

    # ------------------------------------------------------------------
    # Demotion (after branch rectangles change)
    # ------------------------------------------------------------------
    def _check_spanning_node(self, node: Node, pending: list[DataEntry]) -> None:
        """Demote or relink spanning records that no longer span their branch.

        Section 3.1.1: "each node that has been expanded is checked to
        determine whether it has any demotable spanning index records ...
        each such demotable index record is removed from its node and
        reinserted into the index."
        """
        if node.is_leaf:
            return
        for branch in list(node.branches):
            if not branch.spanning:
                continue
            keep: list[DataEntry] = []
            for record in branch.spanning:
                if spans(record.lows, record.highs, branch.lows, branch.highs):
                    keep.append(record)
                    continue
                new_home = None
                for other in node.branches:
                    if other is not branch and spans(
                        record.lows, record.highs, other.lows, other.highs
                    ):
                        new_home = other
                        break
                if new_home is not None:
                    new_home.spanning.append(record)
                else:
                    self.stats.demotions += 1
                    self._demote_counts[record.record_id] = (
                        self._demote_counts.get(record.record_id, 0) + 1
                    )
                    pending.append(record)
                    if self.tracer.enabled:
                        self.tracer.event(
                            "demote",
                            record_id=record.record_id,
                            node_id=node.node_id,
                            level=node.level,
                        )
            if len(keep) != len(branch.spanning):
                branch.spanning = keep
                self._touch(node)

    # ------------------------------------------------------------------
    # Promotion (after a non-leaf split)
    # ------------------------------------------------------------------
    def _promote_after_split(
        self, node: Node, sibling: Node, parent: Node, pending: list[DataEntry]
    ) -> None:
        """Move spanning records that span a whole split half to the parent.

        Section 3.1.2: "after a node N is split, all spanning index records
        on these nodes are checked to determine if they span the region of N
        or N-sibling.  Each one that does is removed from its node, inserted
        onto its parent node, and linked to the branch of the node which it
        spans."
        """
        if node.is_leaf:
            return
        node_branch = parent.branch_for_child(node)
        sibling_branch = parent.branch_for_child(sibling)
        quota = self.config.spanning_capacity(parent.level)
        for half in (node, sibling):
            for branch in half.branches:
                if not branch.spanning:
                    continue
                keep: list[DataEntry] = []
                for record in branch.spanning:
                    if parent.spanning_count >= quota:
                        keep.append(record)  # parent's spanning area is full
                        continue
                    if spans(record.lows, record.highs, node_branch.lows, node_branch.highs):
                        target = node_branch
                    elif spans(
                        record.lows, record.highs, sibling_branch.lows, sibling_branch.highs
                    ):
                        target = sibling_branch
                    else:
                        keep.append(record)
                        continue
                    target.spanning.append(record)
                    self.stats.promotions += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "promote",
                            record_id=record.record_id,
                            node_id=half.node_id,
                            parent_id=parent.node_id,
                            level=parent.level,
                        )
                if len(keep) != len(branch.spanning):
                    branch.spanning = keep
                    self._touch(half)
