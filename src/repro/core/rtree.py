"""Dynamic R-Tree (Guttman 1984) — the substrate the Segment Index extends.

This module implements the classic paged R-Tree: ChooseLeaf descent by least
area enlargement, quadratic/linear node splitting, depth-first intersection
search, and deletion with tree condensation.  Node capacities are byte-based
and grow with the level when the paper's node-size-doubling tactic is on
(Section 2.1.2), so the same class reproduces both the paper's baseline
"R-Tree" and serves as the base class of :class:`repro.core.srtree.SRTree`.

The implementation keeps parent pointers, which lets splits, demotions and
promotions be applied at any point during an operation instead of only on
recursion unwind; the resulting trees are structurally identical to
Guttman's.

Reads go through :mod:`repro.core.query`: the public query methods are
inherited from its ``QuerySurface``, and the kernel returns the nodes a
query visited, in visit order.  :meth:`RTree._settle` takes that list
once per query or batch: the per-level count, the (when attached) simulated
storage layer's page touches, and the trace.  Its length is the paper's
node-access metric.

Writes report what they change: every content modification goes through
:meth:`RTree._touch` and every other change to a node's page image through
:meth:`RTree._mark`, which is all the storage layer needs to log a write
(DESIGN §3.2).
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional, Sequence

from ..exceptions import IndexStructureError, NotFoundError
from ..obs.tracer import NULL_TRACER, Tracer
from . import query
from .config import IndexConfig
from .entry import BranchEntry, DataEntry
from .geometry import Rect, union_all
from .kernel import unrolled
from .node import Node
from .split import split_rects
from .stats import AccessStats, SearchStats

__all__ = ["RTree"]

_LEVEL = attrgetter("level")


@functools.cache
def _everywhere(k: int) -> Rect:
    """The hint of a hint-less delete: every branch overlaps it."""
    return Rect((-math.inf,) * k, (math.inf,) * k)


def _kept_lists(
    holders: list[tuple[Node, Optional[BranchEntry]]], record_id: int
) -> tuple[list[list[DataEntry]], int]:
    """Each located holder's entries without ``record_id``'s fragments, and
    how many fragments that drops; nothing is assigned."""
    kept = []
    removed = 0
    for holder, branch in holders:
        entries = holder.data_entries if branch is None else branch.spanning
        rest = [e for e in entries if e.record_id != record_id]
        removed += len(entries) - len(rest)
        kept.append(rest)
    return kept, removed


#: ChooseLeaf over one node's branches, compiled per K by
#: :func:`repro.core.kernel.unrolled`.  The floats are ``Rect.area`` and
#: ``Rect.enlargement``'s: products in dimension order starting from 1.0,
#: the branch's bound surviving a tie of ``max`` / ``min``; the first of
#: equal enlargements and areas wins.
_CHOOSE_BRANCH = """
def choose_branch(branches, rect):
    <<|ql{d}, >>= rect.lows
    <<|qh{d}, >>= rect.highs
    best = None
    best_enl = best_area = float("inf")
    for b in branches:
        <<|l{d}, >>= b.lows
        <<|h{d}, >>= b.highs
        area = 1.0<<| * (h{d} - l{d})>>
        grown = 1.0<<| * ((h{d} if h{d} >= qh{d} else qh{d}) - (l{d} if l{d} <= ql{d} else ql{d}))>>
        enl = grown - area
        if enl < best_enl or (enl == best_enl and area < best_area):
            best = b
            best_enl = enl
            best_area = area
    return best
"""


class RTree(query.QuerySurface):
    """A dynamic R-Tree over K-dimensional rectangle/interval data.

    >>> from repro.core.geometry import Rect
    >>> tree = RTree()
    >>> rid = tree.insert(Rect((0, 0), (10, 10)), payload="a")
    >>> [p for _, p in tree.search(Rect((5, 5), (6, 6)))]
    ['a']
    """

    #: Class-level flag: SR-Trees flip this to reserve spanning slots.
    segment_index: bool = False

    def __init__(self, config: IndexConfig | None = None) -> None:
        self.config = config or IndexConfig()
        self.root: Node = Node(level=0)
        self.stats = AccessStats()
        self._size = 0
        self._next_record_id = 1
        self._height = 1
        #: Per-operation demotion counts (record_id -> times demoted); used
        #: to stop demotion/reinsertion cycles: after two demotions in one
        #: operation a record is forced down to a leaf.
        self._demote_counts: dict[int, int] = {}
        #: Fragments currently stored per record id (cutting raises it);
        #: containment queries need it to know when they have seen a whole
        #: record.
        self._fragment_counts: dict[int, int] = {}
        #: Optional storage hook: called with each read's visited nodes.
        self._storage_hook: Optional[Callable[[list[Node]], None]] = None
        #: The write path's report to storage (DESIGN §3.2): every node whose
        #: page image a mutation changed, created or unlinked since the last
        #: commit.  ``None`` — nothing is recorded — until a storage manager
        #: with a log or a version cache arms it.
        self._dirty: Optional[set[Node]] = None
        #: ``(disk, {node id: page id})`` on a tree a storage loader read
        #: from ``disk``; a manager attached over that disk keeps the pages
        #: (DESIGN §3.2 "Opening a store").  ``None`` on a tree that was built.
        self._loaded_pages: Optional[tuple[Any, dict[int, int]]] = None
        #: Observability: spans and typed events flow through here.  The
        #: shared NULL_TRACER is disabled; replace it with a live
        #: :class:`repro.obs.Tracer` to capture traces.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self.config.dims

    @property
    def height(self) -> int:
        """Number of levels, leaves included."""
        return self._height

    def __len__(self) -> int:
        """Number of logical records (cut fragments count once)."""
        return self._size

    def insert(self, rect: Rect, payload: Any = None) -> int:
        """Insert a record; returns its record id.

        The rectangle may be degenerate in any subset of dimensions, so
        points, line segments and boxes all insert through this method.
        """
        self._check_rect(rect)
        record_id = self._next_record_id
        self._next_record_id += 1
        entry = DataEntry(rect, record_id, payload)
        self.stats.inserts += 1
        self._size += 1
        self._fragment_counts[record_id] = 1
        with self.tracer.span("insert", record_id=record_id) as sp:
            self._run_insertion([entry])
            self._after_insert()
            sp.set(fragments=self._fragment_counts[record_id])
        return record_id

    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        """Answer one query through the read kernel over the live nodes,
        then settle the nodes it visited: page touches, the per-level
        count and the ``node_access`` trace, once per query."""
        tracer = self.tracer
        if kind in (query.WITHIN, query.CONTAINING):
            span = tracer.span("search", mode="fragments")
        else:
            span = tracer.span("search")
        with span as sp:
            hits, visited = query.answer(
                kind,
                None,
                self.root,
                rect,
                self._loose_entries(),
                self._trace_spanning_hit if tracer.enabled else None,
            )
            self._settle(visited)
            sp.set(nodes_accessed=len(visited), records_found=len(hits))
        stats = self.stats
        stats.searches += 1
        stats.node_accesses += len(visited)
        stats.search_node_accesses += len(visited)
        return [(e.record_id, e.payload) for e in hits]

    def _query_batch(self, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
        """Answer a whole batch in one traversal of the live nodes
        (:func:`repro.core.query.intersecting_many`), each node visited at
        most once, then settle the visit once for the batch."""
        tracer = self.tracer
        with tracer.span("batch_search", queries=len(rects)) as sp:
            hits, visited = query.intersecting_many(
                None, self.root, rects, self._trace_spanning_hit if tracer.enabled else None
            )
            self._settle(visited)
            sp.set(nodes_accessed=len(visited), records_found=sum(map(len, hits)))
        for e in self._loose_entries():
            for found, rect in zip(hits, rects):
                if e.rect.intersects(rect):
                    found.append(e)
        stats = self.stats
        stats.searches += len(rects)
        stats.node_accesses += len(visited)
        stats.search_node_accesses += len(visited)
        return [[(e.record_id, e.payload) for e in found] for found in hits]

    def search_with_stats(self, rect: Rect) -> tuple[list[tuple[int, Any]], SearchStats]:
        """Like :meth:`search` but also reports per-query node accesses."""
        before = self.stats.search_node_accesses
        results = self.search(rect)
        accessed = self.stats.search_node_accesses - before
        return results, SearchStats(nodes_accessed=accessed, records_found=len(results))

    def fragment_count(self, record_id: int) -> int:
        """Number of fragments record ``record_id`` is stored as (>= 1)."""
        try:
            return self._fragment_counts[record_id]
        except KeyError:
            raise NotFoundError(f"unknown record id {record_id}") from None

    def delete(self, record_id: int, hint: Rect | None = None) -> int:
        """Remove every fragment of ``record_id``; returns fragments removed.

        ``hint`` (the record's original rectangle) bounds the traversal; the
        paper notes that without it the *entire* index must be searched for
        related spanning/remnant fragments (Section 3.1.1), which is what we
        do when no hint is given, or when the hint meets fewer fragments
        than the record has.  The fragments are located and every node
        visited is settled before anything changes, so a page fault leaves
        the tree untouched.
        """
        if hint is not None:
            self._check_rect(hint)
        with self.tracer.span("delete", record_id=record_id) as sp:
            everywhere = _everywhere(self.dims)
            holders, visited = query.locate(self.root, record_id, hint or everywhere)
            kept, removed = _kept_lists(holders, record_id)
            if hint is not None and removed < self._fragment_counts.get(record_id, 0):
                # A hint that misses some of the record's fragments must
                # degrade to the full-index scan the paper describes, not
                # delete part of the record.
                holders, rescan = query.locate(self.root, record_id, everywhere)
                visited += rescan
                kept, removed = _kept_lists(holders, record_id)
            self._settle(visited)
            self.stats.node_accesses += len(visited)
            # Holders and their ancestors, each counted once; only a holder's
            # own page image changed, so only the holders are marked.
            changed: dict[Node, None] = {}
            for (holder, branch), entries in zip(holders, kept):
                if branch is None:
                    holder.data_entries = entries
                else:
                    branch.spanning = entries
                self._mark(holder)
                node = holder
                while node is not None and node not in changed:
                    changed[node] = None
                    node.touch()
                    node = node.parent
            if removed:
                self._size -= 1
                self.stats.deletes += 1
                self._fragment_counts.pop(record_id, None)
                self._condense(sorted(changed, key=_LEVEL))
            sp.set(fragments_removed=removed)
        return removed

    def items(self) -> Iterator[tuple[int, Rect, Any]]:
        """Yield (record_id, fragment_rect, payload) for every fragment
        (an uncounted walk: no statistics or page faults)."""
        for e in itertools.chain(
            query.walk(None, self.root), self._loose_entries()
        ):
            yield e.record_id, e.rect, e.payload

    def bounding_rect(self) -> Rect | None:
        """MBR of the whole index (None when empty)."""
        return self.root.mbr()

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(b.child for b in node.branches)

    def total_index_bytes(self) -> int:
        """Simulated on-disk footprint of the index."""
        return sum(self.config.node_bytes(n.level) for n in self.iter_nodes())

    # ------------------------------------------------------------------
    # Search internals
    # ------------------------------------------------------------------
    def _settle(self, nodes: list[Node]) -> None:
        """Account for the nodes one read visited, in visit order: the one
        place visits are faulted in, counted per level and traced.  The
        caller adds ``len(nodes)`` to ``stats.node_accesses``; a read the
        hook fails counts nothing in either."""
        hook = self._storage_hook
        if hook is not None:
            hook(nodes)
        self.stats.accesses_by_level.update(map(_LEVEL, nodes))
        tracer = self.tracer
        if tracer.enabled:
            for node in nodes:
                tracer.event("node_access", node_id=node.node_id, level=node.level)

    def _trace_spanning_hit(self, node: Node, record: DataEntry) -> None:
        self.tracer.event(
            "spanning_hit",
            node_id=node.node_id,
            level=node.level,
            record_id=record.record_id,
        )

    def _loose_entries(self) -> Sequence[DataEntry]:
        """Records held outside the nodes (a skeleton index's prediction
        buffer); every query kind and :meth:`items` sees them."""
        return ()

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _run_insertion(self, pending: list[DataEntry]) -> None:
        """Drain the insertion work queue.

        The queue starts with the user's record and grows with remnant
        fragments produced by cutting and with records demoted after node
        expansions (both SR-Tree behaviours; the plain R-Tree never enqueues
        extra work).
        """
        self._demote_counts = {}
        guard = 0
        while pending:
            guard += 1
            if guard > 100000:
                raise IndexStructureError("insertion work queue failed to drain")
            entry = pending.pop()
            allow_spanning = self._demote_counts.get(entry.record_id, 0) < 2
            self._insert_one(entry, pending, allow_spanning)

    def _insert_one(
        self,
        entry: DataEntry,
        pending: list[DataEntry],
        allow_spanning: bool = True,
    ) -> None:
        node = self.root
        region: Rect | None = None  # the root has no enclosing region
        path: list[tuple[Node, BranchEntry]] = []
        while not node.is_leaf:
            if allow_spanning and self._try_place_spanning(node, entry, pending, region):
                return
            branch = self._choose_branch(node, entry.rect)
            path.append((node, branch))
            node = branch.child
            region = branch.rect

        node.data_entries.append(entry)
        self._touch(node)

        # Adjust covering rectangles bottom-up; remember nodes whose branch
        # rectangles grew so the SR-Tree can re-check spanning relationships.
        expanded_parents: list[Node] = []
        for parent, branch in reversed(path):
            if branch.rect.contains(entry.rect):
                break
            branch.rect = branch.rect.union(entry.rect)
            self._mark(parent)
            expanded_parents.append(parent)

        if node.slots_used > self.config.capacity(node.level):
            self._split_node(node, pending)

        for parent in expanded_parents:
            self._check_spanning_node(parent, pending)

    def _choose_branch(self, node: Node, rect: Rect) -> BranchEntry:
        """Guttman's ChooseLeaf step: least enlargement, ties by area."""
        choose = unrolled(_CHOOSE_BRANCH, "choose_branch", len(rect.lows))
        best: BranchEntry | None = choose(node.branches, rect)
        if best is None:
            raise IndexStructureError("non-leaf node with no branches")
        return best

    # --- SR-Tree hooks (no-ops in the plain R-Tree) -------------------
    def _try_place_spanning(
        self, node: Node, entry: DataEntry, pending: list[DataEntry], region: Rect | None
    ) -> bool:
        """Attempt to store ``entry`` as a spanning record on ``node``,
        whose covering region — the rectangle of the branch the descent
        came through, ``None`` at the root — is ``region``.

        The plain R-Tree stores data only in leaves, so this always fails.
        """
        return False

    def _check_spanning_node(self, node: Node, pending: list[DataEntry]) -> None:
        """Re-validate spanning records after branch rectangles change (SR-Tree)."""

    def _promote_after_split(
        self, node: Node, sibling: Node, parent: Node, pending: list[DataEntry]
    ) -> None:
        """Move spanning records that span a whole split half upward (SR-Tree)."""

    # ------------------------------------------------------------------
    # Node splitting
    # ------------------------------------------------------------------
    def _node_rect(self, node: Node) -> Rect:
        rects = node.content_rects()
        if not rects:
            if node.assigned_region is not None:
                return node.assigned_region
            raise IndexStructureError(f"cannot compute rect of empty node {node.node_id}")
        return union_all(rects)

    def _split_node(self, node: Node, pending: list[DataEntry]) -> None:
        self.stats.splits += 1
        min_entries = self.config.min_entries(node.level)

        sibling = Node(level=node.level, parent=node.parent)
        if node.is_leaf:
            entries = node.data_entries
            group_a, group_b = split_rects(entries, min_entries, self.config.split_algorithm)
            node.data_entries = [entries[i] for i in group_a]
            sibling.data_entries = [entries[i] for i in group_b]
        else:
            branches = node.branches
            group_a, group_b = split_rects(branches, min_entries, self.config.split_algorithm)
            node.branches = [branches[i] for i in group_a]
            sibling.branches = [branches[i] for i in group_b]
            for b in sibling.branches:
                b.child.parent = sibling
        self._touch(node)
        self._touch(sibling)
        if self.tracer.enabled:
            self.tracer.event(
                "split",
                node_id=node.node_id,
                sibling_id=sibling.node_id,
                level=node.level,
                page_bytes=self.config.node_bytes(node.level),
            )

        # A split node stops being a skeleton cell: its coverage now follows
        # its actual contents (the skeleton "adapts", Section 4).
        node.assigned_region = None

        node_rect = self._node_rect(node)
        sibling_rect = self._node_rect(sibling)

        if node.parent is None:
            new_root = Node(level=node.level + 1)
            new_root.branches.append(BranchEntry(node_rect, node))
            new_root.branches.append(BranchEntry(sibling_rect, sibling))
            node.parent = new_root
            sibling.parent = new_root
            self.root = new_root
            self._height += 1
            # Marked once, here: what the rest of this operation hangs on the
            # new root (siblings, promoted records) is part of the same report.
            self._mark(new_root)
            parent = new_root
        else:
            parent = node.parent
            branch = parent.branch_for_child(node)
            branch.rect = node_rect
            parent.branches.append(BranchEntry(sibling_rect, sibling))
            self._touch(parent)

        self._promote_after_split(node, sibling, parent, pending)
        # The split node's covering rectangle may have shrunk, which can
        # invalidate spanning links on the parent; re-check them.
        self._check_spanning_node(parent, pending)

        # Spanning records follow their branches, so one half can still be
        # over its spanning quota; keep splitting until every node fits.
        for half in (node, sibling):
            if self._node_overflowing(half):
                self._split_node(half, pending)

        if self._node_overflowing(parent):
            self._split_node(parent, pending)

    def _node_overflowing(self, node: Node) -> bool:
        """Branches and spanning records share the node's entry slots; a
        node overflows when they exceed the slot count (Section 3.1.2)."""
        return node.slots_used > self.config.capacity(node.level)

    # ------------------------------------------------------------------
    # Deletion internals
    # ------------------------------------------------------------------
    def _condense(self, changed: Sequence[Node]) -> None:
        """Unlink the children a delete emptied and shrink a trivial root.

        This is a pragmatic variant of Guttman's CondenseTree: empty nodes
        are unlinked; underfull-but-nonempty nodes are left in place (legal
        for R-Trees, which never require rebalancing for correctness).

        ``changed`` is what :meth:`delete` touched, child-first: the holders
        of the record's fragments and their ancestors.  A child becomes
        removable only under one of those nodes — it lost its last entry or
        last child, or its branch lost its last spanning record — so only
        their branches are examined, and a parent is reached after the
        children that may have emptied it.  An unlinked node's ``parent`` is
        cleared: that is how storage tells a freed page from a live one.
        """
        for node in changed:
            emptied = [
                b for b in node.branches
                if not (b.spanning or b.child.branches or b.child.data_entries
                        or (b.child.is_leaf and b.child.assigned_region is not None))
            ]
            if emptied:
                for b in emptied:
                    b.child.parent = None
                    self._mark(b.child)
                node.branches = [b for b in node.branches if b not in emptied]
                self._mark(node)
        while (
            not self.root.is_leaf
            and len(self.root.branches) == 1
            and not self.root.branches[0].spanning
        ):
            self._mark(self.root)  # replaced: no parent and no longer the root
            self.root = self.root.branches[0].child
            self.root.parent = None
            self._height -= 1
        if not self.root.is_leaf and not self.root.branches:
            # Every subtree emptied out (the last records were spanning
            # records on the root): collapse to a fresh empty leaf root.
            self._mark(self.root)
            self.root = Node(level=0)
            self._height = 1

    # ------------------------------------------------------------------
    # Hooks and helpers
    # ------------------------------------------------------------------
    def _mark(self, node: Node) -> None:
        """Report ``node`` to storage: its page image changed, or it was
        just created or unlinked."""
        if self._dirty is not None:
            self._dirty.add(node)

    def _touch(self, node: Node) -> None:
        """A content modification: bump the paper's least-frequently-modified
        counter (coalescing reads it) and report the node.  Marking alone
        leaves the counter — and with it which leaves coalesce — untouched."""
        node.touch()
        self._mark(node)

    def _after_insert(self) -> None:
        """Post-insert hook (skeleton indexes run coalescing here)."""

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} size={self._size} height={self._height} "
            f"nodes={self.node_count()}>"
        )
