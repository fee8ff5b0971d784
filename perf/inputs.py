"""Seeded inputs: ``--seed`` is the only thing that varies them.

Every generator takes the run seed and a stream number, so two streams of one
run never share a NumPy seed and the same ``--seed`` always gives the same
records, queries and arrival times.  The program under test sees only these
generated values.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from repro import Rect
from repro.workloads import dataset_I3, qar_sweep, query_rectangles

#: One read of the query set: ``("search", (Rect,))`` or ``("stab", (x, y))``.
Op = tuple[str, tuple]


def _stream(seed: int, stream: int) -> int:
    return seed * 1009 + stream


def dataset(n: int, seed: int, stream: int = 0) -> list[Rect]:
    """``n`` I3 records: uniform Y, exponential interval length (beta 2,000)."""
    return dataset_I3(n, _stream(seed, stream))


def fresh_records(n: int, seed: int) -> Iterator[Rect]:
    """An endless supply of further records for the write phases."""
    for stream in itertools.count(1):
        yield from dataset(n, seed, stream)


def qar_ops(per_qar: int, seed: int) -> list[Op]:
    """The paper's sweep: 13 aspect ratios x ``per_qar`` rectangles of area 10^6."""
    sweep = qar_sweep(count=per_qar, seed=_stream(seed, 20))
    return [("search", (rect,)) for rects in sweep.values() for rect in rects]


def q_mix(n_ops: int, records: list[Rect], seed: int) -> list[Op]:
    """The serving query set Q: 30 % stab, 40 % small range (area 10^5),
    15 % QAR 0.01 and 15 % QAR 100 (area 10^6), shuffled.

    A stab lands on a stored record (a uniform point would almost never hit
    a horizontal segment), so every stab returns at least one id.
    """
    rng = np.random.default_rng(_stream(seed, 30))
    n_stab = int(n_ops * 0.30)
    n_small = int(n_ops * 0.40)
    n_tall = int(n_ops * 0.15)
    n_wide = n_ops - n_stab - n_small - n_tall
    ops: list[Op] = []
    for idx, frac in zip(rng.integers(len(records), size=n_stab), rng.random(n_stab)):
        rect = records[int(idx)]
        x = rect.lows[0] + float(frac) * (rect.highs[0] - rect.lows[0])
        ops.append(("stab", (x, rect.lows[1])))
    for qar, count, area, stream in (
        (1.0, n_small, 1e5, 31),
        (0.01, n_tall, 1e6, 32),
        (100.0, n_wide, 1e6, 33),
    ):
        if count:
            rects = query_rectangles(qar, count, area, seed=_stream(seed, stream))
            ops.extend(("search", (rect,)) for rect in rects)
    return [ops[i] for i in rng.permutation(len(ops))]


def poisson_arrivals(rate: float, seconds: float, seed: int, stream: int) -> list[float]:
    """Due times (seconds from the step's start) of a Poisson process."""
    rng = np.random.default_rng(_stream(seed, stream))
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    times = np.cumsum(gaps)
    return times[times < seconds].tolist()


def write_share(count: int, share: float, seed: int, stream: int) -> list[bool]:
    """Which of ``count`` open-loop arrivals are inserts (the rest are reads)."""
    rng = np.random.default_rng(_stream(seed, stream))
    return (rng.random(count) < share).tolist()
