"""Dataset generators for the paper's six input distributions (Section 5).

Interval data (horizontal line segments; X-values: intervals, Y-values:
points):

* **I1** — uniform Y, uniform interval length over [0, 100];
* **I2** — exponential Y (beta = 7 000), uniform length;
* **I3** — uniform Y, exponential length (beta = 2 000);
* **I4** — exponential Y, exponential length.

Rectangle data (intervals in both dimensions):

* **R1** — centroids uniform, edge lengths uniform over [0, 100];
* **R2** — centroids uniform, edge lengths exponential (beta = 2 000).

Section 5.1 also mentions rectangle experiments with *exponential centroid*
distributions; :func:`rectangle_dataset` exposes those through its
``centroid`` parameter (experiment id T2 in DESIGN.md).

All generators clamp geometry to the domain [0, 100 000]^2 and are fully
deterministic given a seed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.config import DOMAIN, DOMAIN_HIGH
from ..core.geometry import Rect
from ..exceptions import WorkloadError
from .distributions import ExponentialSampler, Sampler, UniformSampler

__all__ = [
    "interval_dataset",
    "rectangle_dataset",
    "dataset_I1",
    "dataset_I2",
    "dataset_I3",
    "dataset_I4",
    "dataset_R1",
    "dataset_R2",
    "DATASETS",
    "DOMAIN",
]

_Y_SAMPLERS = {
    "uniform": UniformSampler(),
    "exponential": ExponentialSampler(beta=7_000.0),
}
_LENGTH_SAMPLERS = {
    "uniform": UniformSampler(0.0, 100.0),
    "exponential": ExponentialSampler(beta=2_000.0),
}
_CENTROID_SAMPLERS = {
    "uniform": UniformSampler(),
    "exponential": ExponentialSampler(beta=20_000.0),
}


def interval_dataset(
    n: int,
    y_dist: str = "uniform",
    length_dist: str = "uniform",
    seed: int = 0,
) -> list[Rect]:
    """Horizontal line segments: X interval centred uniformly, Y a point.

    Matches distributions I1-I4 depending on ``y_dist`` / ``length_dist``.
    """
    _require_positive(n)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, DOMAIN_HIGH, size=n)
    lengths = _sampler(_LENGTH_SAMPLERS, length_dist).draw(rng, n)
    ys = _sampler(_Y_SAMPLERS, y_dist).draw(rng, n)
    x_low = np.clip(centers - lengths / 2.0, 0.0, DOMAIN_HIGH)
    x_high = np.clip(centers + lengths / 2.0, 0.0, DOMAIN_HIGH)
    return [
        Rect((xl, y), (xh, y))
        for xl, xh, y in zip(x_low.tolist(), x_high.tolist(), ys.tolist())
    ]


def rectangle_dataset(
    n: int,
    length_dist: str = "uniform",
    centroid: str = "uniform",
    seed: int = 0,
) -> list[Rect]:
    """Rectangles: centroid distribution x independent edge lengths.

    ``length_dist="uniform"`` is R1, ``"exponential"`` is R2;
    ``centroid="exponential"`` gives the additional experiments mentioned at
    the end of Section 5.1.
    """
    _require_positive(n)
    rng = np.random.default_rng(seed)
    centroid_sampler = _sampler(_CENTROID_SAMPLERS, centroid)
    cx = centroid_sampler.draw(rng, n)
    cy = centroid_sampler.draw(rng, n)
    length_sampler = _sampler(_LENGTH_SAMPLERS, length_dist)
    wx = length_sampler.draw(rng, n)
    wy = length_sampler.draw(rng, n)
    x_low = np.clip(cx - wx / 2.0, 0.0, DOMAIN_HIGH)
    x_high = np.clip(cx + wx / 2.0, 0.0, DOMAIN_HIGH)
    y_low = np.clip(cy - wy / 2.0, 0.0, DOMAIN_HIGH)
    y_high = np.clip(cy + wy / 2.0, 0.0, DOMAIN_HIGH)
    return [
        Rect((xl, yl), (xh, yh))
        for xl, yl, xh, yh in zip(
            x_low.tolist(), y_low.tolist(), x_high.tolist(), y_high.tolist()
        )
    ]


def dataset_I1(n: int, seed: int = 0) -> list[Rect]:
    """I1: uniform Y-value & uniform size distribution."""
    return interval_dataset(n, "uniform", "uniform", seed)


def dataset_I2(n: int, seed: int = 0) -> list[Rect]:
    """I2: exponential Y-value (beta=7000) & uniform size distribution."""
    return interval_dataset(n, "exponential", "uniform", seed)


def dataset_I3(n: int, seed: int = 0) -> list[Rect]:
    """I3: uniform Y-value & exponential size (beta=2000) distribution."""
    return interval_dataset(n, "uniform", "exponential", seed)


def dataset_I4(n: int, seed: int = 0) -> list[Rect]:
    """I4: exponential Y-value & exponential size distribution."""
    return interval_dataset(n, "exponential", "exponential", seed)


def dataset_R1(n: int, seed: int = 0) -> list[Rect]:
    """R1: rectangles, uniform centroids & uniform edge lengths."""
    return rectangle_dataset(n, "uniform", "uniform", seed)


def dataset_R2(n: int, seed: int = 0) -> list[Rect]:
    """R2: rectangles, uniform centroids & exponential edge lengths."""
    return rectangle_dataset(n, "exponential", "uniform", seed)


#: Name -> generator map for the six named distributions.
DATASETS: dict[str, Callable[[int, int], list[Rect]]] = {
    "I1": dataset_I1,
    "I2": dataset_I2,
    "I3": dataset_I3,
    "I4": dataset_I4,
    "R1": dataset_R1,
    "R2": dataset_R2,
}


def _sampler(table: dict[str, Sampler], kind: str) -> Sampler:
    try:
        return table[kind]
    except KeyError:
        raise WorkloadError(
            f"unknown distribution {kind!r}; choose from {sorted(table)}"
        ) from None


def _require_positive(n: int) -> None:
    if n < 1:
        raise WorkloadError("dataset size must be positive")
