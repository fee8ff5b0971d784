"""R+-Tree and Segment R+-Tree.

The R+-Tree [SELL87] avoids node overlap by *partitioning*: node regions
tile the space, and a data rectangle intersecting several regions is
replicated (clipped) into each.  Section 2.1.1 of the paper argues the
Segment Index tactic helps here too:

    "In the case of R+-Trees which partition data in order to avoid node
    overlap, by storing 'long' intervals in higher-level nodes the
    lower-level nodes would have fewer replicated index records ...
    Storing a 'long' interval in a higher level node as a single index
    record is more space efficient than the R+-Tree approach of breaking
    it up into many sub-intervals."

:class:`RPlusTree` implements the partitioned index (guillotine-cut
splits, clipped replication, duplicate-free search);
:class:`SRPlusTree` adds spanning records, and
``replication_factor()`` quantifies the claim above — the benchmark
``benchmarks/test_rplus_replication.py`` reproduces it.

Deletion removes all replicas of a record but never merges regions (the
partitioning must keep tiling space); historical workloads only need
insertion and search (Section 3.1.1).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from ..exceptions import IndexStructureError, WorkloadError
from ..obs.tracer import NULL_TRACER, Tracer
from . import query
from .config import IndexConfig
from .entry import BranchEntry, DataEntry
from .floatcmp import exact_zero
from .geometry import Rect
from .node import Node
from .stats import AccessStats, SearchStats

__all__ = ["RPlusTree", "SRPlusTree", "check_rplus"]

#: Default indexed domain when none is given.
_DEFAULT_DOMAIN = (-1.0e9, 1.0e9)


class RPlusTree(query.QuerySurface):
    """A partitioned (zero-overlap) R+-Tree over a fixed domain.

    >>> from repro.core.geometry import segment, Rect
    >>> tree = RPlusTree(domain=[(0, 100), (0, 100)])
    >>> rid = tree.insert(segment(10, 90, 50))
    >>> tree.search_ids(Rect((40, 40), (60, 60))) == {rid}
    True
    """

    segment_index = False

    def __init__(
        self,
        config: IndexConfig | None = None,
        domain: Sequence[tuple[float, float]] | None = None,
    ) -> None:
        self.config = config or IndexConfig()
        if domain is None:
            domain = [_DEFAULT_DOMAIN] * self.config.dims
        if len(domain) != self.config.dims:
            raise WorkloadError(
                f"domain must give bounds for all {self.config.dims} dimensions"
            )
        self.domain = Rect(
            tuple(float(lo) for lo, _ in domain),
            tuple(float(hi) for _, hi in domain),
        )
        self.root = Node(level=0, assigned_region=self.domain)
        self.stats = AccessStats()
        self.tracer: Tracer = NULL_TRACER
        self._size = 0
        self._next_record_id = 1
        self._height = 1
        #: Leaves allowed to exceed capacity because no guillotine cut can
        #: separate their (heavily replicated / coincident) contents.
        self._stuck_leaves: set[int] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self._height

    @property
    def dims(self) -> int:
        return self.config.dims

    def __len__(self) -> int:
        return self._size

    def insert(self, rect: Rect, payload: Any = None) -> int:
        self._check_rect(rect)
        if not self.domain.contains(rect):
            raise WorkloadError(f"{rect!r} lies outside the indexed domain")
        record_id = self._next_record_id
        self._next_record_id += 1
        self._size += 1
        self.stats.inserts += 1
        entry = DataEntry(rect, record_id, payload)
        self._insert_into(self.root, rect, entry)
        return record_id

    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        """Answer one query through the shared read kernel, which reports
        a replicated record once (it de-duplicates on record id)."""
        hits, visited = query.answer(kind, None, self.root, rect)
        self.stats.count_visit(visited, 1)
        return [(e.record_id, e.payload) for e in hits]

    def search_with_stats(self, rect: Rect) -> tuple[list[tuple[int, Any]], SearchStats]:
        before = self.stats.search_node_accesses
        results = self.search(rect)
        return results, SearchStats(
            nodes_accessed=self.stats.search_node_accesses - before,
            records_found=len(results),
        )

    def delete(self, record_id: int) -> int:
        """Remove every replica/fragment of ``record_id``."""
        removed = 0
        for node in self.iter_nodes():
            if node.is_leaf:
                before = len(node.data_entries)
                node.data_entries = [
                    e for e in node.data_entries if e.record_id != record_id
                ]
                removed += before - len(node.data_entries)
            else:
                for branch in node.branches:
                    before = len(branch.spanning)
                    branch.spanning = [
                        r for r in branch.spanning if r.record_id != record_id
                    ]
                    removed += before - len(branch.spanning)
        if removed:
            self._size -= 1
            self.stats.deletes += 1
        return removed

    def iter_nodes(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(b.child for b in node.branches)

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def replication_factor(self) -> float:
        """Stored fragments per logical record (1.0 = no replication).

        This is the quantity Section 2.1.1 says spanning records reduce.
        """
        fragments = 0
        for node in self.iter_nodes():
            fragments += len(node.data_entries) + node.spanning_count
        return fragments / self._size if self._size else 0.0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert_into(self, node: Node, rect: Rect, entry: DataEntry) -> None:
        """Insert ``rect`` (already clipped to ``node``'s region)."""
        if node.is_leaf:
            node.data_entries.append(entry.with_rect(rect, is_remnant=False))
            node.touch()
            if (
                len(node.data_entries) > self.config.capacity(0)
                and node.node_id not in self._stuck_leaves
            ):
                self._split_leaf(node)
            return
        if self._try_place_spanning(node, rect, entry):
            return
        for branch in list(node.branches):
            portion = self._owned_portion(rect, branch.rect)
            if portion is not None:
                self._insert_into(branch.child, portion, entry)

    def _owned_portion(self, rect: Rect, region: Rect) -> Rect | None:
        """The part of ``rect`` a region is responsible for storing.

        Degenerate boundary slices of an extended rectangle belong to the
        neighbouring region; rectangles that are themselves degenerate in a
        dimension are owned by every region touching them (harmless
        replication, search de-duplicates).
        """
        portion = rect.intersection(region)
        if portion is None:
            return None
        for d in range(rect.dims):
            if rect.extent(d) > 0.0 and exact_zero(portion.extent(d)):
                return None
        return portion

    def _try_place_spanning(self, node: Node, rect: Rect, entry: DataEntry) -> bool:
        """Spanning-record hook: the plain R+-Tree always replicates."""
        return False

    # ------------------------------------------------------------------
    # Leaf splitting (guillotine cut + clipping)
    # ------------------------------------------------------------------
    def _split_leaf(self, node: Node) -> None:
        region = node.assigned_region
        assert region is not None
        cut = self._choose_leaf_cut(node, region)
        if cut is None:
            self._stuck_leaves.add(node.node_id)
            return
        axis, value = cut
        self.stats.splits += 1
        if self.tracer.enabled:
            self.tracer.event(
                "split",
                node_id=node.node_id,
                level=node.level,
                page_bytes=self.config.node_bytes(node.level),
            )
        left_region, right_region = _split_region(region, axis, value)
        left_entries: list[DataEntry] = []
        right_entries: list[DataEntry] = []
        for e in node.data_entries:
            placed = False
            lp = self._owned_portion(e.rect, left_region)
            if lp is not None:
                left_entries.append(e.with_rect(lp))
                placed = True
            rp = self._owned_portion(e.rect, right_region)
            if rp is not None:
                right_entries.append(e.with_rect(rp, is_remnant=placed))
                if placed:
                    self.stats.cuts += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "cut",
                            record_id=e.record_id,
                            node_id=node.node_id,
                            level=node.level,
                            remnants=1,
                        )
        node.assigned_region = left_region
        node.data_entries = left_entries
        sibling = Node(level=0, parent=node.parent, assigned_region=right_region)
        sibling.data_entries = right_entries
        self._attach_sibling(node, sibling)
        for half in (node, sibling):
            if len(half.data_entries) > self.config.capacity(0):
                self._split_leaf(half)

    def _choose_leaf_cut(self, node: Node, region: Rect) -> tuple[int, float] | None:
        """A cut that strictly reduces the larger side, or None."""
        entries = node.data_entries
        n = len(entries)
        best: tuple[int, float] | None = None
        best_score: tuple[int, int] | None = None
        axes = sorted(range(region.dims), key=lambda d: -region.extent(d))
        for axis in axes:
            candidates = set()
            for e in entries:
                candidates.add(e.rect.lows[axis])
                candidates.add(e.rect.highs[axis])
            candidates.add((region.lows[axis] + region.highs[axis]) / 2.0)
            for value in candidates:
                if not region.lows[axis] < value < region.highs[axis]:
                    continue
                left = right = 0
                for e in entries:
                    if e.rect.lows[axis] < value or (
                        e.rect.lows[axis] == e.rect.highs[axis]
                        and e.rect.lows[axis] <= value
                    ):
                        left += 1
                    if e.rect.highs[axis] > value:
                        right += 1
                if left >= n or right >= n:
                    continue  # no progress: one side keeps everything
                score = (max(left, right), abs(left - right))
                if best_score is None or score < best_score:
                    best_score = score
                    best = (axis, value)
        return best

    # ------------------------------------------------------------------
    # Inner-node splitting
    # ------------------------------------------------------------------
    def _attach_sibling(self, node: Node, sibling: Node) -> None:
        if node.parent is None:
            new_root = Node(
                level=node.level + 1, assigned_region=self.domain
            )
            new_root.branches.append(BranchEntry(node.assigned_region, node))
            new_root.branches.append(BranchEntry(sibling.assigned_region, sibling))
            node.parent = new_root
            sibling.parent = new_root
            self.root = new_root
            self._height += 1
            return
        parent = node.parent
        branch = parent.branch_for_child(node)
        branch.rect = node.assigned_region
        parent.branches.append(BranchEntry(sibling.assigned_region, sibling))
        parent.touch()
        if len(parent.branches) + parent.spanning_count > self.config.capacity(
            parent.level
        ):
            self._split_inner(parent)

    def _split_inner(self, node: Node) -> None:
        region = node.assigned_region
        assert region is not None
        cut = self._choose_inner_cut(node, region)
        if cut is None:
            return  # soft overflow: no guillotine line separates children
        axis, value = cut
        self.stats.splits += 1
        if self.tracer.enabled:
            self.tracer.event(
                "split",
                node_id=node.node_id,
                level=node.level,
                page_bytes=self.config.node_bytes(node.level),
            )
        left_region, right_region = _split_region(region, axis, value)
        left: list[BranchEntry] = []
        right: list[BranchEntry] = []
        orphaned: list[DataEntry] = [r for _, r in node.iter_spanning()]
        for branch in node.branches:
            branch.spanning = []
            if branch.rect.highs[axis] <= value:
                left.append(branch)
            else:
                right.append(branch)
        node.assigned_region = left_region
        node.branches = left
        sibling = Node(
            level=node.level, parent=node.parent, assigned_region=right_region
        )
        sibling.branches = right
        for branch in right:
            branch.child.parent = sibling
        self._attach_sibling(node, sibling)
        # Re-place spanning records locally: each orphan is cut along the
        # new partition line and re-offered to the side(s) it falls in,
        # where it becomes a spanning record again or descends.
        for record in orphaned:
            for side in (node, sibling):
                portion = self._owned_portion(record.rect, side.assigned_region)
                if portion is not None:
                    self._insert_into(side, portion, record)

    def _choose_inner_cut(self, node: Node, region: Rect) -> tuple[int, float] | None:
        """A child-boundary line no child straddles, most balanced."""
        best: tuple[int, float] | None = None
        best_score: int | None = None
        for axis in range(region.dims):
            candidates = {b.rect.highs[axis] for b in node.branches}
            candidates.update(b.rect.lows[axis] for b in node.branches)
            for value in candidates:
                if not region.lows[axis] < value < region.highs[axis]:
                    continue
                left = right = 0
                straddle = False
                for b in node.branches:
                    if b.rect.lows[axis] < value < b.rect.highs[axis]:
                        straddle = True
                        break
                    if b.rect.highs[axis] <= value:
                        left += 1
                    else:
                        right += 1
                if straddle or left == 0 or right == 0:
                    continue
                score = abs(left - right)
                if best_score is None or score < best_score:
                    best_score = score
                    best = (axis, value)
        return best

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} size={self._size} height={self._height} "
            f"nodes={self.node_count()} replication={self.replication_factor():.2f}>"
        )


class SRPlusTree(RPlusTree):
    """Segment R+-Tree: spanning records on the partitioned index.

    A record that would be replicated across several child partitions and
    spans at least one of them is stored once on the parent instead —
    exactly the space saving Section 2.1.1 describes.
    """

    segment_index = True

    def _try_place_spanning(self, node: Node, rect: Rect, entry: DataEntry) -> bool:
        if node.spanning_count >= self.config.spanning_capacity(node.level):
            return False
        touched = []
        spanned = None
        for branch in node.branches:
            if self._owned_portion(rect, branch.rect) is not None:
                touched.append(branch)
                if spanned is None and rect.spans(branch.rect):
                    spanned = branch
        if spanned is None or len(touched) < 2:
            return False  # not replicated, or spans nothing: descend
        spanned.spanning.append(entry.with_rect(rect))
        node.touch()
        self.stats.spanning_placements += 1
        return True


def check_rplus(tree: RPlusTree) -> None:
    """Structural invariants of the partitioned index family."""
    _check_rplus_node(tree, tree.root, tree.domain)


def _check_rplus_node(tree: RPlusTree, node: Node, region: Rect) -> None:
    if node.assigned_region != region:
        raise IndexStructureError(
            f"node {node.node_id} region {node.assigned_region!r} != "
            f"expected {region!r}"
        )
    if node.is_leaf:
        if (
            len(node.data_entries) > tree.config.capacity(0)
            and node.node_id not in tree._stuck_leaves
        ):
            raise IndexStructureError(f"leaf {node.node_id} overfull")
        for e in node.data_entries:
            if not region.contains(e.rect):
                raise IndexStructureError(
                    f"fragment {e!r} outside leaf region {region!r}"
                )
        return
    # Children tile the region: contained, pairwise zero-measure overlap.
    for branch in node.branches:
        if not region.contains(branch.rect):
            raise IndexStructureError(
                f"child region {branch.rect!r} outside {region!r}"
            )
        if branch.child.parent is not node:
            raise IndexStructureError("broken parent pointer")
        for record in branch.spanning:
            if not region.contains(record.rect):
                raise IndexStructureError(
                    f"spanning record {record!r} outside node region"
                )
    rects = [b.rect for b in node.branches]
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            inter = rects[i].intersection(rects[j])
            if inter is not None and inter.area > 0:
                raise IndexStructureError(
                    f"overlapping partitions {rects[i]!r} / {rects[j]!r}"
                )
    covered = sum(r.area for r in rects)
    if abs(covered - region.area) > 1e-6 * max(region.area, 1.0):
        raise IndexStructureError(
            f"partitions of node {node.node_id} do not tile its region "
            f"({covered} vs {region.area})"
        )
    for branch in node.branches:
        _check_rplus_node(tree, branch.child, branch.rect)


def _split_region(region: Rect, axis: int, value: float) -> tuple[Rect, Rect]:
    left_highs = list(region.highs)
    left_highs[axis] = value
    right_lows = list(region.lows)
    right_lows[axis] = value
    return (
        Rect(region.lows, tuple(left_highs)),
        Rect(tuple(right_lows), region.highs),
    )
