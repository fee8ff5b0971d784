"""R*-Tree and Segment R*-Tree.

The paper cites the R*-Tree [BECK90] as a member of "a class of database
indexing structures" its tactics apply to.  This module provides:

* :class:`RStarTree` — the R*-Tree: overlap-minimising ChooseSubtree at
  the leaf-pointing level, the margin/overlap split (``rstar_split``), and
  forced reinsertion of the farthest 30 % of a leaf on first overflow;
* :class:`SRStarTree` — the Segment Index adaptation of the R*-Tree,
  demonstrating that the paper's tactics are not R-Tree specific: spanning
  records, cutting, demotion and promotion run unchanged on top of the R*
  ChooseSubtree and split.  (Forced reinsertion is disabled there: pulling
  a leaf's farthest entries out re-routes them through spanning placement,
  which fights the demotion machinery for no measurable gain.)
"""

from __future__ import annotations

from dataclasses import replace

from .config import IndexConfig
from .entry import BranchEntry, DataEntry
from .geometry import Rect
from .node import Node
from .rtree import RTree
from .srtree import SRTree

__all__ = ["RStarTree", "SRStarTree"]

#: Fraction of a leaf's entries removed and reinserted on first overflow.
_REINSERT_FRACTION = 0.3


def _rstar_config(config: IndexConfig | None) -> IndexConfig:
    config = config or IndexConfig()
    if config.split_algorithm != "rstar":
        config = replace(config, split_algorithm="rstar")
    return config


class _RStarChooseMixin:
    """Overlap-aware ChooseSubtree shared by both R* variants."""

    #: Overlap enlargement is O(|branches|) per candidate; following the
    #: R* paper's optimisation, only this many least-area-enlargement
    #: candidates are scored by overlap on big nodes.
    _OVERLAP_CANDIDATES = 8

    def _choose_branch(self, node: Node, rect: Rect) -> BranchEntry:
        # For nodes whose children are leaves the R*-Tree minimises
        # *overlap* enlargement; higher up it keeps Guttman's area rule.
        if node.level != 1 or len(node.branches) == 1:
            return super()._choose_branch(node, rect)
        branches = node.branches
        candidates = branches
        if len(branches) > self._OVERLAP_CANDIDATES:
            candidates = sorted(branches, key=lambda b: b.rect.enlargement(rect))[
                : self._OVERLAP_CANDIDATES
            ]
        best = None
        best_key = None
        for branch in candidates:
            grown = branch.rect.union(rect)
            overlap_before = 0.0
            overlap_after = 0.0
            for other in branches:
                if other is branch:
                    continue
                inter = branch.rect.intersection(other.rect)
                if inter is not None:
                    overlap_before += inter.area
                inter = grown.intersection(other.rect)
                if inter is not None:
                    overlap_after += inter.area
            key = (
                overlap_after - overlap_before,
                branch.rect.enlargement(rect),
                branch.rect.area,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = branch
        return best


class RStarTree(_RStarChooseMixin, RTree):
    """The R*-Tree (Beckmann, Kriegel, Schneider, Seeger 1990).

    >>> from repro.core.geometry import point
    >>> tree = RStarTree()
    >>> ids = [tree.insert(point(i % 37, i % 91)) for i in range(500)]
    >>> len(tree)
    500
    """

    def __init__(self, config: IndexConfig | None = None) -> None:
        super().__init__(_rstar_config(config))
        self._reinserted_levels: set[int] = set()

    def _run_insertion(self, pending: list[DataEntry]) -> None:
        self._reinserted_levels = set()
        super()._run_insertion(pending)

    def _split_node(self, node: Node, pending: list[DataEntry]) -> None:
        # Forced reinsertion: on the *first* leaf overflow of an insertion,
        # remove the entries farthest from the node's centre and re-route
        # them instead of splitting (R* paper, section 4.3).
        if (
            node.is_leaf
            and node.parent is not None
            and node.level not in self._reinserted_levels
        ):
            self._reinserted_levels.add(node.level)
            self._forced_reinsert(node, pending)
            return
        super()._split_node(node, pending)

    def _forced_reinsert(self, node: Node, pending: list[DataEntry]) -> None:
        self.stats.forced_reinserts += 1
        if self.tracer.enabled:
            self.tracer.event("reinsert", node_id=node.node_id, level=node.level)
        count = max(1, int(len(node.data_entries) * _REINSERT_FRACTION))
        center_rect = self._node_rect(node)
        cx = center_rect.center

        def distance(entry: DataEntry) -> float:
            ec = entry.rect.center
            return sum((a - b) ** 2 for a, b in zip(ec, cx))

        node.data_entries.sort(key=distance)
        victims = node.data_entries[-count:]
        node.data_entries = node.data_entries[:-count]
        self._touch(node)
        # Tighten the branch rectangle around what remains (shrinking is
        # always containment-safe for ancestors).
        branch = node.parent.branch_for_child(node)
        branch.rect = self._node_rect(node)
        self._mark(node.parent)
        pending.extend(victims)


class SRStarTree(_RStarChooseMixin, SRTree):
    """Segment R*-Tree: the paper's tactics applied to the R*-Tree.

    Spanning records, cutting, demotion and promotion are inherited from
    :class:`SRTree`; ChooseSubtree and node splitting come from the R*.
    """

    def __init__(self, config: IndexConfig | None = None) -> None:
        super().__init__(_rstar_config(config))
