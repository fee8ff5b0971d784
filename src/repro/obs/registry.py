"""Fixed-bucket histograms for per-query counts.

:class:`Histogram` summarizes one observed quantity per query; the
experiment harness fills one with node accesses per search
(:data:`NODES_PER_SEARCH_BUCKETS`), the paper's headline metric.  The
bounds are fixed so summaries from different runs are directly
comparable.  The per-layer counters live with their producers:
``AccessStats``, ``BufferStats``, ``DiskStats``, ``LatchStats`` and
``IndexMetrics`` each have their own ``snapshot()`` / ``to_dict()``.
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import ConfigError

__all__ = ["Histogram", "NODES_PER_SEARCH_BUCKETS"]

#: Power-of-two buckets for the paper's headline metric (average index
#: nodes accessed per search is O(tens) at 20K scale, O(hundreds) at 200K).
NODES_PER_SEARCH_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
)


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are inclusive upper bounds; one overflow bin catches
    everything above the last bound.  The summary keeps count/sum/min/max
    so means survive aggregation across runs.

    >>> h = Histogram("nodes", (1, 4, 16))
    >>> for v in (1, 3, 5, 100):
    ...     h.observe(v)
    >>> h.summary()["counts"]
    [1, 1, 1, 1]
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "_min", "_max")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        if not buckets:
            raise ConfigError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bin
        self.count = 0
        self.total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-ready summary: bounds, per-bin counts, and moments."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "le": list(self.buckets) + [None],  # None = +inf overflow bin
            "counts": list(self.counts),
        }
