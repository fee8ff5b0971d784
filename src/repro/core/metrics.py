"""Structural metrics for index analysis.

The paper explains its results through structural properties — node
overlap ("overlapping nodes degrade search performance"), region aspect
ratios ("nodes may have regions whose aspect ratios are extremely large or
small"), and where data records live.  This module measures those
properties on a built index so the benchmarks and EXPERIMENTS.md can show
*why* one index beats another, not just that it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import NotFoundError
from .floatcmp import is_zero
from .geometry import Rect
from .node import Node
from .rtree import RTree

__all__ = ["LevelMetrics", "IndexMetrics", "measure_index"]

#: Nodes per level above which pairwise overlap is measured on a window.
OVERLAP_SAMPLE_LIMIT = 2000


@dataclass
class LevelMetrics:
    """Aggregates for one level of the index (0 = leaves)."""

    level: int
    nodes: int = 0
    branch_entries: int = 0
    data_entries: int = 0
    spanning_entries: int = 0
    total_area: float = 0.0
    overlap_area: float = 0.0
    mean_aspect_ratio: float = 0.0
    mean_fill: float = 0.0

    @property
    def overlap_fraction(self) -> float:
        """Pairwise-overlap area relative to total covered area."""
        return self.overlap_area / self.total_area if self.total_area else 0.0

    def to_dict(self) -> dict:
        """JSON-ready copy (all values finite)."""
        return {
            "level": self.level,
            "nodes": self.nodes,
            "branch_entries": self.branch_entries,
            "data_entries": self.data_entries,
            "spanning_entries": self.spanning_entries,
            "total_area": self.total_area,
            "overlap_area": self.overlap_area,
            "overlap_fraction": self.overlap_fraction,
            "mean_aspect_ratio": self.mean_aspect_ratio,
            "mean_fill": self.mean_fill,
        }


@dataclass
class IndexMetrics:
    """Whole-index structural summary."""

    height: int
    node_count: int
    index_bytes: int
    levels: list[LevelMetrics] = field(default_factory=list)

    @property
    def records_above_leaves(self) -> int:
        return sum(lv.spanning_entries for lv in self.levels if lv.level > 0)

    @property
    def leaf_records(self) -> int:
        for lv in self.levels:
            if lv.level == 0:
                return lv.data_entries
        return 0

    @property
    def spanning_fraction(self) -> float:
        """Fraction of index records stored above the leaf level."""
        total = self.leaf_records + self.records_above_leaves
        return self.records_above_leaves / total if total else 0.0

    def level(self, level: int) -> LevelMetrics:
        for lv in self.levels:
            if lv.level == level:
                return lv
        raise NotFoundError(f"no level {level} in this index")

    def to_dict(self) -> dict:
        """JSON-ready whole-index summary."""
        return {
            "height": self.height,
            "node_count": self.node_count,
            "index_bytes": self.index_bytes,
            "leaf_records": self.leaf_records,
            "records_above_leaves": self.records_above_leaves,
            "spanning_fraction": self.spanning_fraction,
            "levels": [lv.to_dict() for lv in sorted(self.levels, key=lambda l: l.level)],
        }

    def summary(self) -> str:
        lines = [
            f"height={self.height} nodes={self.node_count} "
            f"bytes={self.index_bytes} "
            f"spanning_fraction={self.spanning_fraction:.3f}"
        ]
        for lv in sorted(self.levels, key=lambda l: -l.level):
            lines.append(
                f"  L{lv.level}: nodes={lv.nodes} fill={lv.mean_fill:.2f} "
                f"overlap={lv.overlap_fraction:.3f} "
                f"aspect={lv.mean_aspect_ratio:.2f} "
                f"spanning={lv.spanning_entries}"
            )
        return "\n".join(lines)


def measure_index(tree: RTree) -> IndexMetrics:
    """Compute structural metrics for ``tree``.

    Pairwise overlap is quadratic in the number of nodes per level; levels
    with more than :data:`OVERLAP_SAMPLE_LIMIT` nodes are measured on a
    deterministic sample and scaled, which is accurate enough for the
    comparative use these numbers get.
    """
    by_level: dict[int, list[Node]] = {}
    for node in tree.iter_nodes():
        by_level.setdefault(node.level, []).append(node)

    levels = []
    for level, nodes in sorted(by_level.items()):
        metrics = LevelMetrics(level=level, nodes=len(nodes))
        aspect_sum = 0.0
        fill_sum = 0.0
        rects: list[Rect] = []
        capacity = tree.config.capacity(level)
        for node in nodes:
            metrics.branch_entries += len(node.branches)
            metrics.data_entries += len(node.data_entries)
            metrics.spanning_entries += node.spanning_count
            fill_sum += node.slots_used / capacity if capacity else 0.0
            rect = node.mbr()
            if rect is not None:
                rects.append(rect)
                metrics.total_area += rect.area
                aspect_sum += _aspect_ratio(rect)
        metrics.mean_aspect_ratio = aspect_sum / len(nodes)
        metrics.mean_fill = fill_sum / len(nodes)
        metrics.overlap_area = _pairwise_overlap(rects)
        levels.append(metrics)

    return IndexMetrics(
        height=tree.height,
        node_count=tree.node_count(),
        index_bytes=tree.total_index_bytes(),
        levels=levels,
    )


#: Ceiling for the aspect ratio of degenerate (zero-extent) rectangles.
#: An unbounded ratio would poison every mean and serialize as Infinity,
#: which is not valid JSON; any clamp this large still reads as "extremely
#: elongated" in the paper's sense.
ASPECT_RATIO_CAP = 1e6


def _aspect_ratio(rect: Rect) -> float:
    """Width/height ratio folded to >= 1 (1 = square, large = elongated).

    Degenerate rectangles (one zero extent) are clamped to
    :data:`ASPECT_RATIO_CAP` so aggregates stay finite and JSON-safe.
    """
    if rect.dims < 2:
        return 1.0
    w = rect.extent(0)
    h = rect.extent(1)
    if is_zero(w) and is_zero(h):
        return 1.0
    if is_zero(min(w, h)):
        return ASPECT_RATIO_CAP
    return min(max(w, h) / min(w, h), ASPECT_RATIO_CAP)


def _pairwise_overlap(rects: list[Rect], sample_limit: int = OVERLAP_SAMPLE_LIMIT) -> float:
    if len(rects) < 2:
        return 0.0
    # Node overlap is spatially local, so a contiguous window of the
    # X-sorted rectangles is representative; total overlap then scales
    # roughly linearly with the rectangle count.
    ordered = sorted(rects, key=lambda r: r.lows[0])
    scale = 1.0
    if len(ordered) > sample_limit:
        start = (len(ordered) - sample_limit) // 2
        window = ordered[start : start + sample_limit]
        scale = len(ordered) / len(window)
    else:
        window = ordered
    total = 0.0
    for i, a in enumerate(window):
        for b in window[i + 1 :]:
            if b.lows[0] > a.highs[0]:
                break
            inter = a.intersection(b)
            if inter is not None:
                total += inter.area
    return total * scale
