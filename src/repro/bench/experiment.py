"""Experiment harness reproducing the paper's evaluation protocol (Section 5).

One experiment = one dataset inserted in random order into each of the four
index types (R-Tree, SR-Tree, Skeleton R-Tree, Skeleton SR-Tree), followed
by the QAR sweep: for each query aspect ratio, 100 random search rectangles
of area 1 000 000, recording the average number of index nodes accessed per
search.

The paper's skeleton setup is the default: distribution prediction from the
first 5 % of the inserts (the paper buffered 10 000 of 100K/200K tuples),
coalescing every 1 000 insertions among the 10 least frequently modified
nodes, leaf nodes of 1 KB with node size doubling per level, and a 2/3
branch reservation for SR-Trees.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core import INDEX_CLASSES
from ..core.config import DOMAIN, IndexConfig
from ..core.geometry import Rect
from ..core.rtree import RTree
from ..core.skeleton import SkeletonMixin
from ..exceptions import WorkloadError
from ..obs.registry import NODES_PER_SEARCH_BUCKETS, Histogram
from ..workloads.queries import PAPER_QARS, QUERY_AREA, qar_sweep

__all__ = [
    "INDEX_TYPES",
    "ExperimentResult",
    "build_index",
    "fresh_index",
    "run_experiment",
    "default_scale",
]

#: The paper's four index types by display name, in its plotting order.
INDEX_TYPES: tuple[str, ...] = tuple(INDEX_CLASSES)

#: Fraction of the expected input buffered for distribution prediction;
#: the paper buffered the first 10 000 of 100K-200K tuples (5-10 %).
PREDICTION_FRACTION = 0.05


@dataclass
class ExperimentResult:
    """Average node accesses per search, per index type and QAR point."""

    name: str
    dataset_size: int
    qars: tuple[float, ...]
    series: dict[str, list[float]]
    build_stats: dict[str, dict] = field(default_factory=dict)
    build_seconds: dict[str, float] = field(default_factory=dict)
    query_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-index-type histogram summaries of nodes accessed per search
    #: (the distribution behind the per-QAR averages in ``series``).
    search_histograms: dict[str, dict] = field(default_factory=dict)

    def at(self, index_type: str, qar: float) -> float:
        return self.series[index_type][self.qars.index(qar)]

    def mean_over(self, index_type: str, predicate: Callable[[float], bool]) -> float:
        """Mean accesses over the QAR points satisfying ``predicate``.

        The paper discusses the VQAR range (QAR < 1) and HQAR range
        (QAR > 1) separately; pass e.g. ``lambda q: q < 1``.
        """
        values = [
            v for q, v in zip(self.qars, self.series[index_type]) if predicate(q)
        ]
        if not values:
            raise WorkloadError("no QAR points match the predicate")
        return sum(values) / len(values)


def fresh_index(
    kind: str,
    expected_tuples: int,
    config: IndexConfig | None = None,
    prediction_fraction: float = PREDICTION_FRACTION,
    domain: Sequence[tuple[float, float]] | None = None,
) -> RTree:
    """An empty index of ``kind`` (one of :data:`INDEX_TYPES`); the
    skeleton types are pre-sized for ``expected_tuples`` over ``domain``."""
    cls: Any = INDEX_CLASSES.get(kind)  # Any: skeletons take sizing arguments
    if cls is None:
        raise WorkloadError(f"unknown index type {kind!r}; pick from {INDEX_TYPES}")
    config = config or IndexConfig()
    if not issubclass(cls, SkeletonMixin):
        return cls(config)
    return cls(
        config,
        expected_tuples=expected_tuples,
        domain=list(domain) if domain is not None else DOMAIN,
        prediction_fraction=prediction_fraction,
    )


def build_index(
    kind: str,
    dataset: Sequence[Rect],
    config: IndexConfig | None = None,
    prediction_fraction: float = PREDICTION_FRACTION,
    domain: Sequence[tuple[float, float]] | None = None,
    tracer=None,
) -> RTree:
    """Build one of the paper's four index types over ``dataset``.

    ``kind`` is one of :data:`INDEX_TYPES`.  The dataset is inserted in the
    given order (the paper inserts in random order; its generators already
    produce randomly ordered data).  Pass a :class:`repro.obs.Tracer` as
    ``tracer`` to trace the build itself (splits, cuts, demotions, ...).
    """
    index = fresh_index(kind, len(dataset), config, prediction_fraction, domain)
    if tracer is not None:
        index.tracer = tracer
    for i, rect in enumerate(dataset):
        index.insert(rect, payload=i)
    if hasattr(index, "flush"):
        index.flush()
    return index


def run_experiment(
    name: str,
    dataset: Sequence[Rect],
    config: IndexConfig | None = None,
    index_types: Sequence[str] = INDEX_TYPES,
    qars: tuple[float, ...] = PAPER_QARS,
    queries_per_qar: int = 100,
    query_area: float = QUERY_AREA,
    query_seed: int = 1991,
    prediction_fraction: float = PREDICTION_FRACTION,
    indexes: dict[str, RTree] | None = None,
    report_dir: str | None = None,
) -> ExperimentResult:
    """Run the full Section 5 protocol and return the per-QAR series.

    Pass ``indexes`` to reuse pre-built indexes (the ablation benches build
    their own variants); otherwise each requested type is built here.

    When ``report_dir`` is given — or the ``REPRO_REPORT_DIR`` environment
    variable is set — a machine-readable ``BENCH_<name>.json`` run report
    is written there (see :mod:`repro.obs.report`).  Pass an empty string
    to suppress the report even when the variable is set.
    """
    queries = qar_sweep(qars, queries_per_qar, query_area, seed=query_seed)
    series: dict[str, list[float]] = {}
    build_stats: dict[str, dict] = {}
    build_seconds: dict[str, float] = {}
    query_seconds: dict[str, float] = {}
    search_histograms: dict[str, dict] = {}

    for kind in index_types:
        if indexes is not None and kind in indexes:
            index = indexes[kind]
            build_seconds[kind] = 0.0
        else:
            start = time.perf_counter()
            index = build_index(kind, dataset, config, prediction_fraction)
            build_seconds[kind] = time.perf_counter() - start
        build_stats[kind] = index.stats.snapshot()
        histogram = Histogram("nodes_per_search", NODES_PER_SEARCH_BUCKETS)
        points: list[float] = []
        query_start = time.perf_counter()
        for qar in qars:
            index.stats.reset_search_counters()
            for query in queries[qar]:
                before = index.stats.search_node_accesses
                index.search(query)
                histogram.observe(index.stats.search_node_accesses - before)
            points.append(index.stats.avg_nodes_per_search)
        query_seconds[kind] = time.perf_counter() - query_start
        series[kind] = points
        search_histograms[kind] = histogram.summary()

    result = ExperimentResult(
        name=name,
        dataset_size=len(dataset),
        qars=tuple(qars),
        series=series,
        build_stats=build_stats,
        build_seconds=build_seconds,
        query_seconds=query_seconds,
        search_histograms=search_histograms,
    )

    if report_dir is None:
        report_dir = os.environ.get("REPRO_REPORT_DIR")
    if report_dir:
        from .report import write_experiment_report

        write_experiment_report(result, report_dir)
    return result


def default_scale() -> int:
    """Dataset size used by the benchmark suite.

    The paper uses 200 000 tuples; building 4 index types x 6 distributions
    at that size is impractical for a pure-Python CI run, so the default is
    20 000.  Override with ``REPRO_SCALE=<n>`` or ``REPRO_FULL=1`` (which
    selects the paper's 200 000).
    """
    if os.environ.get("REPRO_FULL"):
        return 200_000
    return int(os.environ.get("REPRO_SCALE", "20000"))
