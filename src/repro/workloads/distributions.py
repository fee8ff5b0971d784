"""Seeded random samplers for the paper's input distributions (Section 5).

All experiments draw values over the domain [0, 100 000] in two dimensions.
Two marginal shapes occur: uniform, and exponential with a scale parameter
beta (Y-values use beta = 7 000; interval lengths use beta = 2 000).
Exponential draws are clipped to the domain, matching the paper's bounded
value space.
"""

from __future__ import annotations

import numpy as np

from ..core.config import DOMAIN_HIGH
from ..exceptions import WorkloadError

__all__ = ["Sampler", "UniformSampler", "ExponentialSampler", "make_sampler", "DOMAIN_HIGH"]


class Sampler:
    """Base class: draws ``n`` float values into a numpy array."""

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError


class UniformSampler(Sampler):
    """Uniform over [low, high]."""

    def __init__(self, low: float = 0.0, high: float = DOMAIN_HIGH) -> None:
        if low >= high:
            raise WorkloadError(f"empty uniform range [{low}, {high}]")
        self.low = low
        self.high = high

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def __repr__(self) -> str:
        return f"UniformSampler({self.low:g}, {self.high:g})"


class ExponentialSampler(Sampler):
    """Exponential with scale ``beta``, clipped to [low, high]."""

    def __init__(self, beta: float, low: float = 0.0, high: float = DOMAIN_HIGH) -> None:
        if beta <= 0:
            raise WorkloadError("beta must be positive")
        if low >= high:
            raise WorkloadError(f"empty range [{low}, {high}]")
        self.beta = beta
        self.low = low
        self.high = high

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = self.low + rng.exponential(self.beta, size=n)
        return np.clip(values, self.low, self.high)

    def __repr__(self) -> str:
        return f"ExponentialSampler(beta={self.beta:g})"


def make_sampler(kind: str, **kwargs: float) -> Sampler:
    """Factory: ``make_sampler("uniform", low=0, high=100)``."""
    if kind == "uniform":
        return UniformSampler(**kwargs)
    if kind == "exponential":
        return ExponentialSampler(**kwargs)
    raise WorkloadError(f"unknown distribution kind {kind!r}")
