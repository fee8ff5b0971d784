"""Skeleton Indexes: adaptable pre-constructed indexes (Section 4).

A skeleton index pre-partitions the whole domain into a nested grid of node
regions before any data arrives.  The number of levels and of nodes per
level follows the paper's sizing loop::

    n = number_of_tuples; level = 0
    while n > 1:
        number_of_nodes[level] = ceil(sqrt(ceil(n / fanout[level]))) ** 2
        n = number_of_nodes[level]; level += 1

(the D-dimensional generalisation rounds the D-th root up so the grid is
regular in every dimension).  Partition boundaries in each dimension come
from equi-depth histograms of the (estimated or predicted) input
distribution, so skewed inputs get fine partitions where the data is dense.

After construction the index *adapts*: dense regions refine through normal
node splitting, and sparse adjacent regions are **coalesced** — after every
``coalesce_interval`` insertions the ``coalesce_candidates`` least
frequently modified leaves are examined and merged with an adjacent sibling
when the combined contents fit one node.

Two concrete classes are exported: :class:`SkeletonRTree` (tactic 3 alone)
and :class:`SkeletonSRTree` (all three tactics), matching the four index
types in the paper's experiments.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Sequence

from ..exceptions import WorkloadError
from ..histogram.equidepth import EquiDepthHistogram, uniform_histogram
from ..histogram.predictor import DistributionPredictor
from .config import IndexConfig
from .entry import BranchEntry, DataEntry
from .geometry import Rect, union_all
from .node import Node
from .rtree import RTree
from .srtree import SRTree

__all__ = [
    "SkeletonRTree",
    "SkeletonSRTree",
    "SkeletonMixin",
    "plan_levels",
    "build_skeleton_root",
]


def plan_levels(
    expected_tuples: int, config: IndexConfig, segment_index: bool
) -> list[int]:
    """Partitions per dimension at each level, leaf first (paper's loop)."""
    if expected_tuples < 1:
        raise WorkloadError("expected_tuples must be positive")
    dims = config.dims
    per_dim_by_level: list[int] = []
    n = expected_tuples
    level = 0
    while True:
        fanout = (
            config.capacity(0)
            if level == 0
            else config.branch_capacity(level, segment_index)
        )
        needed = math.ceil(n / fanout)
        per_dim = _int_root_ceil(needed, dims)
        if per_dim ** dims >= n:
            # Degenerate fanout (tiny test configs): the perfect-square
            # round-up failed to shrink the level; force progress.
            per_dim = max(1, _int_root_floor(n - 1, dims))
            if per_dim ** dims >= n:
                per_dim = 1
        per_dim_by_level.append(per_dim)
        n = per_dim ** dims
        level += 1
        if n <= 1:
            return per_dim_by_level


def build_skeleton_root(
    histograms: Sequence[EquiDepthHistogram],
    expected_tuples: int,
    config: IndexConfig,
    segment_index: bool,
) -> Node:
    """Materialise the pre-partitioned node structure; returns the root.

    The leaf grid is cut at equi-depth quantiles of the histograms; each
    upper level groups contiguous blocks of the grid below it, so regions
    nest exactly and long records are likely to span lower-level cells.
    """
    dims = config.dims
    if len(histograms) != dims:
        raise WorkloadError(f"need one histogram per dimension ({dims})")
    plan = plan_levels(expected_tuples, config, segment_index)
    leaf_per_dim = plan[0]

    boundaries = [h.boundaries(leaf_per_dim) for h in histograms]
    grid: dict[tuple[int, ...], Node] = {}
    for idx in itertools.product(range(leaf_per_dim), repeat=dims):
        region = Rect(
            tuple(boundaries[d][idx[d]] for d in range(dims)),
            tuple(boundaries[d][idx[d] + 1] for d in range(dims)),
        )
        grid[idx] = Node(level=0, assigned_region=region)

    level = 0
    per_dim = leaf_per_dim
    while len(grid) > 1:
        level += 1
        target = plan[level] if level < len(plan) else 1
        block = math.ceil(per_dim / target)
        if block < 2:
            block = 2  # always make progress towards a single root
        parent_grid: dict[tuple[int, ...], Node] = {}
        for idx, child in grid.items():
            pidx = tuple(i // block for i in idx)
            parent = parent_grid.get(pidx)
            if parent is None:
                parent = Node(level=level)
                parent_grid[pidx] = parent
            region = child.assigned_region
            assert region is not None
            parent.branches.append(BranchEntry(region, child))
            child.parent = parent
        for parent in parent_grid.values():
            parent.assigned_region = union_all(b.rect for b in parent.branches)
        grid = parent_grid
        per_dim = math.ceil(per_dim / block)

    (root,) = grid.values()
    return root


def _int_root_ceil(value: int, power: int) -> int:
    """Smallest integer r with r**power >= value (float-error safe)."""
    if value <= 1:
        return 1
    r = int(round(value ** (1.0 / power)))
    while r ** power < value:
        r += 1
    while r > 1 and (r - 1) ** power >= value:
        r -= 1
    return r


def _int_root_floor(value: int, power: int) -> int:
    """Largest integer r with r**power <= value."""
    if value <= 1:
        return 1
    r = _int_root_ceil(value, power)
    while r > 1 and r ** power > value:
        r -= 1
    return r


class SkeletonMixin:
    """Adds pre-construction, distribution prediction and coalescing to an
    R-Tree-family index.

    Construction modes (mutually exclusive):

    * ``histograms=...`` + ``expected_tuples=...`` — build the skeleton
      immediately from known per-dimension distributions.
    * ``domain=...`` + ``expected_tuples=...`` + ``prediction_fraction=f``
      — buffer the first ``f * expected_tuples`` inserts, predict the
      distribution from them, then build and populate (Section 4's
      *distribution prediction*; paper uses f in [0.05, 0.10]).
    * ``domain=...`` + ``expected_tuples=...`` alone — assume a uniform
      distribution over the domain.
    """

    def __init__(
        self,
        config: IndexConfig | None = None,
        *,
        expected_tuples: int,
        histograms: Sequence[EquiDepthHistogram] | None = None,
        domain: Sequence[tuple[float, float]] | None = None,
        prediction_fraction: float | None = None,
    ) -> None:
        super().__init__(config)
        self.expected_tuples = expected_tuples
        self._inserts_since_coalesce = 0
        self._predictor: DistributionPredictor | None = None

        if histograms is not None:
            self._materialize(histograms)
        elif domain is None:
            raise WorkloadError("skeleton index needs histograms or a domain")
        elif prediction_fraction:
            self._predictor = DistributionPredictor(
                self.config.dims, expected_tuples, prediction_fraction, list(domain)
            )
        else:
            self._materialize([uniform_histogram(d) for d in domain])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _materialize(self, histograms: Sequence[EquiDepthHistogram]) -> None:
        root = build_skeleton_root(
            histograms, self.expected_tuples, self.config, self.segment_index
        )
        self.root = root
        self._height = root.level + 1

    @property
    def predicting(self) -> bool:
        """True while inserts are still being buffered for prediction."""
        return self._predictor is not None

    # ------------------------------------------------------------------
    # Insert / delete overrides for the prediction-buffering phase
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, payload: Any = None) -> int:
        predictor = self._predictor
        if predictor is None:
            return super().insert(rect, payload)
        self._check_rect(rect)
        record_id = self._next_record_id
        self._next_record_id += 1
        self.stats.inserts += 1
        self._size += 1
        self._fragment_counts[record_id] = 1
        if predictor.add(rect, record_id, payload):
            self._flush_predictor()
        return record_id

    def _flush_predictor(self) -> None:
        predictor = self._predictor
        assert predictor is not None
        self._materialize(predictor.histograms())
        self._predictor = None
        for rect, record_id, payload in predictor.drain():
            self._run_insertion([DataEntry(rect, record_id, payload)])
            self._after_insert()

    def _loose_entries(self) -> Sequence[DataEntry]:
        """The prediction buffer, in the shape the read kernel tests."""
        predictor = self._predictor
        if predictor is None:
            return ()
        return [DataEntry(*buffered) for buffered in predictor.buffered]

    def delete(self, record_id: int, hint: Rect | None = None) -> int:
        predictor = self._predictor
        if predictor is not None:
            for i, (_, rid, _) in enumerate(predictor.buffered):
                if rid == record_id:
                    del predictor.buffered[i]
                    self._size -= 1
                    self.stats.deletes += 1
                    self._fragment_counts.pop(record_id, None)
                    return 1
        return super().delete(record_id, hint)

    def flush(self) -> None:
        """Force skeleton construction from whatever has been buffered."""
        if self._predictor is not None and self._predictor.buffered:
            self._flush_predictor()
        elif self._predictor is not None:
            # Nothing buffered: fall back to a uniform skeleton.
            self._materialize([uniform_histogram(d) for d in self._predictor.domain])
            self._predictor = None

    # ------------------------------------------------------------------
    # Coalescing (Section 4 adaptation)
    # ------------------------------------------------------------------
    def _after_insert(self) -> None:
        interval = self.config.coalesce_interval
        if interval == 0:
            return
        self._inserts_since_coalesce += 1
        if self._inserts_since_coalesce >= interval:
            self._inserts_since_coalesce = 0
            self._coalesce_pass()

    def _coalesce_pass(self) -> None:
        """Merge sparse adjacent sibling leaves among the least frequently
        modified nodes."""
        leaves = [n for n in self.iter_nodes() if n.is_leaf and n.parent is not None]
        candidates = heapq.nsmallest(
            self.config.coalesce_candidates, leaves, key=lambda n: n.modifications
        )
        capacity = self.config.capacity(0)
        for leaf in candidates:
            parent = leaf.parent
            if parent is None:  # absorbed earlier in this pass
                continue
            try:
                leaf_branch = parent.branch_for_child(leaf)
            except KeyError:
                continue
            partner: BranchEntry | None = None
            for branch in parent.branches:
                if branch.child is leaf or not branch.child.is_leaf:
                    continue
                combined = len(branch.child.data_entries) + len(leaf.data_entries)
                if combined <= capacity and branch.rect.intersects(leaf_branch.rect):
                    partner = branch
                    break
            if partner is None:
                continue
            self._merge_leaves(parent, leaf_branch, partner)

    def _merge_leaves(
        self, parent: Node, keep: BranchEntry, absorb: BranchEntry
    ) -> None:
        survivor = keep.child
        absorbed = absorb.child
        survivor.data_entries.extend(absorbed.data_entries)
        keep.rect = keep.rect.union(absorb.rect)
        survivor.assigned_region = keep.rect
        survivor.modifications += absorbed.modifications
        self._touch(survivor)
        absorbed.parent = None
        self._mark(absorbed)  # unlinked: storage frees its page
        parent.branches.remove(absorb)
        self._touch(parent)
        self.stats.coalesces += 1
        if self.tracer.enabled:
            self.tracer.event(
                "coalesce",
                node_id=survivor.node_id,
                absorbed_id=absorbed.node_id,
                level=survivor.level,
                entries=len(survivor.data_entries),
            )

        # Spanning records linked to the absorbed branch move to the merged
        # branch; the merged branch also *grew*, which can break spanning
        # relationships of records already linked to it.  One demotion pass
        # over the parent relinks or reinserts everything invalid.
        keep.spanning.extend(absorb.spanning)
        absorb.spanning = []
        pending: list[DataEntry] = []
        self._check_spanning_node(parent, pending)
        if pending:
            self._run_insertion(pending)


class SkeletonRTree(SkeletonMixin, RTree):
    """Skeleton R-Tree: pre-constructed/adaptive, no spanning records."""


class SkeletonSRTree(SkeletonMixin, SRTree):
    """Skeleton SR-Tree: all three Segment Index tactics combined — the
    paper's best-performing index for skewed interval data."""
