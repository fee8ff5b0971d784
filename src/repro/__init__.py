"""repro — Segment Indexes for multi-dimensional interval data.

A full reproduction of Kolovson & Stonebraker, *Segment Indexes: Dynamic
Indexing Techniques for Multi-Dimensional Interval Data* (SIGMOD 1991):
the R-Tree baseline, the SR-Tree (spanning records, cutting, demotion,
promotion, per-level node sizes), Skeleton pre-construction with
distribution prediction and coalescing, plus the workload generators,
experiment harness, and motivating applications (historical store, rule
locks) from the paper.

Quickstart::

    from repro import SRTree, Rect, segment

    tree = SRTree()
    tree.insert(segment(1985.0, 1991.0, 30_000.0), payload="alice")
    tree.search(Rect((1990.0, 0.0), (1990.5, 50_000.0)))
"""

from .core import (
    AccessStats,
    IndexConfig,
    IndexMetrics,
    Rect,
    RPlusTree,
    RStarTree,
    RTree,
    SearchStats,
    SkeletonRTree,
    SkeletonSRTree,
    SRPlusTree,
    SRStarTree,
    SRTree,
    batch_search,
    check_index,
    check_rplus,
    interval,
    measure_index,
    pack_tree,
    point,
    segment,
    union_all,
)
from .concurrency import ConcurrentIndex, RWLatch
from .exceptions import (
    CapacityError,
    ConcurrencyError,
    IndexStructureError,
    ReproError,
    StorageError,
    WorkloadError,
)
from .histogram import DistributionPredictor, EquiDepthHistogram, uniform_histogram
from .obs import (
    NULL_TRACER,
    Histogram,
    JsonlSink,
    QueryTrace,
    RingBufferSink,
    Tracer,
    trace_search,
)
from .store import Store, open_store

__version__ = "1.1.0"

__all__ = [
    "AccessStats",
    "batch_search",
    "IndexConfig",
    "IndexMetrics",
    "Rect",
    "RPlusTree",
    "RStarTree",
    "RTree",
    "SearchStats",
    "SkeletonRTree",
    "SkeletonSRTree",
    "SRPlusTree",
    "SRStarTree",
    "SRTree",
    "check_index",
    "check_rplus",
    "interval",
    "measure_index",
    "pack_tree",
    "point",
    "segment",
    "union_all",
    "CapacityError",
    "ConcurrencyError",
    "ConcurrentIndex",
    "RWLatch",
    "IndexStructureError",
    "ReproError",
    "StorageError",
    "WorkloadError",
    "DistributionPredictor",
    "EquiDepthHistogram",
    "uniform_histogram",
    "NULL_TRACER",
    "Histogram",
    "JsonlSink",
    "QueryTrace",
    "RingBufferSink",
    "Tracer",
    "trace_search",
    "Store",
    "open_store",
    "__version__",
]
