"""Search-rectangle generator: the QAR sweep (Section 5).

"the search argument was a query rectangle of area 1,000,000.  The
horizontal-to-vertical aspect ratio of the query rectangle (... QAR) varied
over 0.0001, 0.001, 0.01, 0.1, 0.2, 0.5, 1, 2, 5, 10, 100, 1000, and 10000.
For each QAR, 100 search rectangles were generated whose centroid was
randomly centered over the domain."
"""

from __future__ import annotations

import math

import numpy as np

from ..core.geometry import Rect
from ..exceptions import WorkloadError
from .distributions import DOMAIN_HIGH

__all__ = [
    "PAPER_QARS",
    "QUERY_AREA",
    "query_rectangles",
    "qar_sweep",
]

#: The paper's 13 query aspect ratios.
PAPER_QARS: tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0,
)

#: The paper's query rectangle area.
QUERY_AREA = 1_000_000.0


def query_rectangles(
    qar: float,
    count: int,
    area: float = QUERY_AREA,
    seed: int = 0,
    domain_high: float = DOMAIN_HIGH,
) -> list[Rect]:
    """``count`` query rectangles of the given area and aspect ratio.

    The QAR is horizontal/vertical: width = sqrt(area * qar),
    height = sqrt(area / qar).  Centroids are uniform over the domain and
    the rectangle is clipped to it, as in the paper's experiments.
    """
    if qar <= 0:
        raise WorkloadError("QAR must be positive")
    if count < 1:
        raise WorkloadError("query count must be positive")
    if area <= 0:
        raise WorkloadError("query area must be positive")
    width = math.sqrt(area * qar)
    height = math.sqrt(area / qar)
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0.0, domain_high, size=count)
    cy = rng.uniform(0.0, domain_high, size=count)
    x_low = np.clip(cx - width / 2.0, 0.0, domain_high)
    x_high = np.clip(cx + width / 2.0, 0.0, domain_high)
    y_low = np.clip(cy - height / 2.0, 0.0, domain_high)
    y_high = np.clip(cy + height / 2.0, 0.0, domain_high)
    return [
        Rect((xl, yl), (xh, yh))
        for xl, yl, xh, yh in zip(
            x_low.tolist(), y_low.tolist(), x_high.tolist(), y_high.tolist()
        )
    ]


def qar_sweep(
    qars: tuple[float, ...] = PAPER_QARS,
    count: int = 100,
    area: float = QUERY_AREA,
    seed: int = 0,
) -> dict[float, list[Rect]]:
    """Query sets for every QAR; query set i uses seed ``seed + i`` so each
    aspect ratio gets independent centroids (as in the paper)."""
    return {
        qar: query_rectangles(qar, count, area, seed=seed + i)
        for i, qar in enumerate(qars)
    }

