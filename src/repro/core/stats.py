"""Operation statistics for index instrumentation.

The paper's performance metric (Section 5) is the *average number of index
nodes accessed per search*; :class:`AccessStats` counts exactly that, plus
the structural events (splits, cuts, demotions, promotions, coalesces) that
the ablation benchmarks report.
"""

from __future__ import annotations

from collections import Counter, _count_elements  # type: ignore[attr-defined]
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Sequence

__all__ = ["AccessStats", "SearchStats"]

_LEVEL = attrgetter("level")


@dataclass
class SearchStats:
    """Result of one search: nodes touched and records returned."""

    nodes_accessed: int
    records_found: int


@dataclass
class AccessStats:
    """Mutable counters accumulated by an index instance."""

    node_accesses: int = 0
    searches: int = 0
    search_node_accesses: int = 0
    inserts: int = 0
    deletes: int = 0
    splits: int = 0
    cuts: int = 0
    remnants: int = 0
    demotions: int = 0
    promotions: int = 0
    coalesces: int = 0
    spanning_placements: int = 0
    forced_reinserts: int = 0
    accesses_by_level: Counter = field(default_factory=Counter)

    def count_visit(self, nodes: Sequence[Any], searches: int) -> None:
        """Count one read's visit: ``len(nodes)`` node accesses, each under
        its node's level, for ``searches`` queries (0: a delete's search).
        The per-level count is ``Counter.update``'s own C loop, called
        directly: no Python frame and no ``Mapping`` check per read."""
        _count_elements(self.accesses_by_level, map(_LEVEL, nodes))
        accessed = len(nodes)
        self.node_accesses += accessed
        if searches:
            self.searches += searches
            self.search_node_accesses += accessed

    @property
    def avg_nodes_per_search(self) -> float:
        """The paper's headline metric (0.0 when no searches ran)."""
        if self.searches == 0:
            return 0.0
        return self.search_node_accesses / self.searches

    def reset_search_counters(self) -> None:
        """Zero the search-side counters (keep build-side history)."""
        self.searches = 0
        self.search_node_accesses = 0

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for reports and assertions."""
        return {
            "node_accesses": self.node_accesses,
            "searches": self.searches,
            "search_node_accesses": self.search_node_accesses,
            "avg_nodes_per_search": self.avg_nodes_per_search,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "splits": self.splits,
            "cuts": self.cuts,
            "remnants": self.remnants,
            "demotions": self.demotions,
            "promotions": self.promotions,
            "coalesces": self.coalesces,
            "spanning_placements": self.spanning_placements,
            "forced_reinserts": self.forced_reinserts,
            "accesses_by_level": {
                level: count for level, count in sorted(self.accesses_by_level.items())
            },
        }
