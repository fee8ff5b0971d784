"""Equi-depth histograms used to pre-partition Skeleton Indexes (Section 4).

A skeleton index needs, for every dimension, a set of partition boundaries
such that each partition receives roughly the same number of records.  Given
a sample of per-dimension values, :class:`EquiDepthHistogram` answers
quantile queries and produces strictly increasing partition boundaries that
cover the full domain.
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import ConfigError, WorkloadError

__all__ = ["EquiDepthHistogram", "uniform_histogram"]

# numpy is imported where it is used: `import repro` reaches this module, and
# a serving process that builds no skeleton should not pay for numpy.


class EquiDepthHistogram:
    """Quantile summary of one dimension of the input.

    Args:
        values: Sample of values observed in this dimension (interval
            midpoints work well for interval data).
        domain: Closed ``(low, high)`` range the index must cover; partition
            boundaries are clamped/extended to it.

    >>> h = EquiDepthHistogram([1, 2, 3, 4, 5, 6, 7, 8], domain=(0, 10))
    >>> h.boundaries(2)
    [0.0, 4.5, 10.0]
    """

    def __init__(self, values: Sequence[float], domain: tuple[float, float]) -> None:
        low, high = float(domain[0]), float(domain[1])
        if low >= high:
            raise WorkloadError(f"empty domain [{low}, {high}]")
        self.domain = (low, high)
        import numpy as np

        sample = np.asarray(list(values), dtype=float)
        if sample.size == 0:
            raise WorkloadError("histogram needs at least one sample value")
        self._sorted = np.sort(np.clip(sample, low, high))

    @property
    def sample_size(self) -> int:
        return int(self._sorted.size)

    def quantile(self, q: float) -> float:
        """Value at cumulative fraction ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile fraction {q} outside [0, 1]")
        import numpy as np

        return float(np.quantile(self._sorted, q))

    def boundaries(self, partitions: int) -> list[float]:
        """``partitions + 1`` strictly increasing cut points over the domain.

        The first and last boundaries are the domain limits; interior
        boundaries sit at the equi-depth quantiles.  Runs of duplicate
        quantiles (heavy ties in the sample) are spread minimally so that
        every partition keeps positive width — the skeleton builder requires
        non-degenerate cells.
        """
        if partitions < 1:
            raise ConfigError("need at least one partition")
        import numpy as np

        low, high = self.domain
        qs = np.linspace(0.0, 1.0, partitions + 1)
        cuts = np.quantile(self._sorted, qs).astype(float)
        cuts[0] = low
        cuts[-1] = high
        return _strictly_increasing(list(cuts), low, high)

    def cumulative_fraction(self, value: float) -> float:
        """Fraction of the sample at or below ``value``."""
        return float(self._sorted.searchsorted(value, side="right")) / self.sample_size


def uniform_histogram(domain: tuple[float, float], sample_size: int = 1024) -> EquiDepthHistogram:
    """A histogram representing a uniform distribution over ``domain``.

    Used when the input distribution is unknown and assumed uniform
    (Section 4: "one approach is to assume uniformly distributed data and
    build the corresponding uniform Skeleton Index").
    """
    import numpy as np

    low, high = domain
    values = np.linspace(low, high, sample_size)
    return EquiDepthHistogram(values, domain)


def _strictly_increasing(cuts: list[float], low: float, high: float) -> list[float]:
    """Repair duplicate/non-increasing cut points while preserving order."""
    k = len(cuts) - 1
    min_width = (high - low) / max(k * 1000, 1)
    # Forward pass: push each interior cut at least min_width above its
    # predecessor.  Cuts crowded near the domain top may now overflow it.
    repaired = [low]
    for value in cuts[1:-1]:
        floor = repaired[-1] + min_width
        repaired.append(value if value > floor else floor)
    repaired.append(high)
    # Backward pass: cap each interior cut at least min_width below its
    # successor, pulling any overflowed suffix back inside the domain.
    # (Quantiles at the very top of the domain would otherwise leave the
    # suffix so tight that redistribution collapses to equal floats.)
    for i in range(k - 1, 0, -1):
        cap = repaired[i + 1] - min_width
        if repaired[i] > cap:
            repaired[i] = cap
    if any(b >= c for b, c in zip(repaired, repaired[1:])):
        # Degenerate domain (min_width below float resolution): the only
        # strictly increasing choice left is even spacing.
        import numpy as np

        repaired = list(np.linspace(low, high, k + 1))
    return repaired
