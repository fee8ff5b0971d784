"""Per-query trace capture: the exact path one search walked.

:func:`trace_search` runs a single query with a temporary recording
tracer and returns a :class:`QueryTrace`: the ordered root-to-leaf node
path (ids and levels), the spanning-record hits along it, and the result
set.  This is the evidence layer behind EXPERIMENTS.md — it shows *why*
an SR-Tree answers a long-interval query in fewer accesses (spanning
records intercepted high in the tree), not just that it does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .sinks import RingBufferSink
from .tracer import TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.geometry import Rect
    from ..core.rtree import RTree

__all__ = ["QueryTrace", "trace_search"]


@dataclass
class QueryTrace:
    """Everything one traced search did, in visit order."""

    query: "Rect"
    results: list[tuple[int, Any]]
    nodes_accessed: int
    #: (node_id, level) per node visit, in traversal order (root first).
    path: list[tuple[int, int]] = field(default_factory=list)
    #: One dict per spanning-record hit: node_id, level, record_id.
    spanning_hits: list[dict] = field(default_factory=list)
    #: The raw events, for anything the shaped fields leave out.
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def accesses_by_level(self) -> Counter:
        return Counter(level for _, level in self.path)

    def to_dict(self) -> dict:
        """JSON-ready form (query as low/high coordinate lists)."""
        return {
            "query": {"lows": list(self.query.lows), "highs": list(self.query.highs)},
            "records_found": len(self.results),
            "nodes_accessed": self.nodes_accessed,
            "path": [{"node_id": n, "level": lv} for n, lv in self.path],
            "accesses_by_level": dict(sorted(self.accesses_by_level.items())),
            "spanning_hits": list(self.spanning_hits),
        }

    def summary(self) -> str:
        by_level = ", ".join(
            f"L{lv}:{n}" for lv, n in sorted(self.accesses_by_level.items(), reverse=True)
        )
        return (
            f"{self.nodes_accessed} nodes ({by_level}), "
            f"{len(self.spanning_hits)} spanning hits, "
            f"{len(self.results)} records"
        )


def trace_search(tree: "RTree", rect: "Rect") -> QueryTrace:
    """Run ``tree.search(rect)`` under a temporary tracer and shape the
    resulting events into a :class:`QueryTrace`.

    The tree's existing tracer (usually the disabled default) is
    restored afterwards; access statistics still accumulate as for any
    other search.
    """
    sink = RingBufferSink()
    previous = tree.tracer
    tree.tracer = Tracer(sink)
    try:
        results = tree.search(rect)
    finally:
        tree.tracer = previous

    events = sink.events
    path: list[tuple[int, int]] = []
    hits: list[dict] = []
    nodes_accessed = 0
    for event in events:
        if event.etype == "node_access":
            path.append((event.fields["node_id"], event.fields["level"]))
        elif event.etype == "spanning_hit":
            hits.append(dict(event.fields))
        elif event.etype == "span_end" and event.op == "search":
            nodes_accessed = event.fields.get("nodes_accessed", len(path))
    return QueryTrace(
        query=rect,
        results=results,
        nodes_accessed=nodes_accessed,
        path=path,
        spanning_hits=hits,
        events=events,
    )
