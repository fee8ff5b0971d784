"""Core index family: geometry, R-Tree, SR-Tree, skeleton, and the cited
variant structures (R*, R+, packed)."""

from .config import IndexConfig
from .entry import BranchEntry, DataEntry
from .geometry import GeometryError, Rect, interval, point, segment, union_all
from .metrics import IndexMetrics, LevelMetrics, measure_index
from .node import Node
from .packed import pack_tree
from .query import batch_search
from .rplus import RPlusTree, SRPlusTree, check_rplus
from .rstar import RStarTree, SRStarTree
from .rtree import RTree
from .skeleton import SkeletonRTree, SkeletonSRTree, build_skeleton_root, plan_levels
from .srtree import SRTree
from .stats import AccessStats, SearchStats
from .validation import check_index, collect_fragments

#: The paper's four index types by display name, in its plotting order.
INDEX_CLASSES: dict[str, type[RTree]] = {
    "R-Tree": RTree,
    "SR-Tree": SRTree,
    "Skeleton R-Tree": SkeletonRTree,
    "Skeleton SR-Tree": SkeletonSRTree,
}

__all__ = [
    "INDEX_CLASSES",
    "batch_search",
    "IndexConfig",
    "BranchEntry",
    "DataEntry",
    "GeometryError",
    "Rect",
    "interval",
    "point",
    "segment",
    "union_all",
    "IndexMetrics",
    "LevelMetrics",
    "measure_index",
    "Node",
    "pack_tree",
    "RPlusTree",
    "SRPlusTree",
    "check_rplus",
    "RStarTree",
    "SRStarTree",
    "RTree",
    "SkeletonRTree",
    "SkeletonSRTree",
    "build_skeleton_root",
    "plan_levels",
    "SRTree",
    "AccessStats",
    "SearchStats",
    "check_index",
    "collect_fragments",
]
