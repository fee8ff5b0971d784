"""Workload generation: the paper's datasets (I1-I4, R1-R2) and QAR queries."""

from .distributions import (
    DOMAIN_HIGH,
    ExponentialSampler,
    Sampler,
    UniformSampler,
    make_sampler,
)
from .generators import (
    DATASETS,
    DOMAIN,
    dataset_I1,
    dataset_I2,
    dataset_I3,
    dataset_I4,
    dataset_R1,
    dataset_R2,
    interval_dataset,
    rectangle_dataset,
)
from .queries import (
    PAPER_QARS,
    QUERY_AREA,
    qar_sweep,
    query_rectangles,
)

__all__ = [
    "DOMAIN_HIGH",
    "ExponentialSampler",
    "Sampler",
    "UniformSampler",
    "make_sampler",
    "DATASETS",
    "DOMAIN",
    "dataset_I1",
    "dataset_I2",
    "dataset_I3",
    "dataset_I4",
    "dataset_R1",
    "dataset_R2",
    "interval_dataset",
    "rectangle_dataset",
    "PAPER_QARS",
    "QUERY_AREA",
    "qar_sweep",
    "query_rectangles",
]
