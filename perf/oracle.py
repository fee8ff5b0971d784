"""Brute-force reference answers over the generated rectangles.

NumPy arrays of every live record's bounds; a query's answer is the set of
record ids whose box intersects it (closed intervals, as ``Rect.intersects``).
A stab is the degenerate query box.  The benchmark never trusts the program's
own answer: every checked reply is compared with this by record-id set.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import Rect

from .inputs import Op


class Oracle:
    def __init__(self, dims: int = 2, capacity: int = 1024) -> None:
        self._lows = np.zeros((capacity, dims))
        self._highs = np.zeros((capacity, dims))
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._row_of: dict[int, int] = {}
        self._used = 0

    def add(self, record_id: int, rect: Rect) -> None:
        if self._used == len(self._ids):
            grow = len(self._ids)
            self._lows = np.concatenate([self._lows, np.zeros_like(self._lows[:grow])])
            self._highs = np.concatenate([self._highs, np.zeros_like(self._highs[:grow])])
            self._ids = np.concatenate([self._ids, np.zeros(grow, dtype=np.int64)])
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
        row = self._used
        self._used += 1
        self._lows[row] = rect.lows
        self._highs[row] = rect.highs
        self._ids[row] = record_id
        self._alive[row] = True
        self._row_of[record_id] = row

    def add_all(self, rects: Iterable[Rect], first_id: int = 1) -> None:
        """Records in insertion order; the trees number them from ``first_id``."""
        for offset, rect in enumerate(rects):
            self.add(first_id + offset, rect)

    def remove(self, record_id: int) -> None:
        row = self._row_of.pop(record_id, None)
        if row is not None:  # already gone: a delete repeated, or a sabotaged oracle
            self._alive[row] = False

    def live_ids(self) -> set[int]:
        return set(self._row_of)

    def intersecting(self, lows: tuple, highs: tuple) -> set[int]:
        n = self._used
        hit = self._alive[:n].copy()
        for d in range(len(lows)):
            hit &= self._lows[:n, d] <= highs[d]
            hit &= self._highs[:n, d] >= lows[d]
        return set(self._ids[:n][hit].tolist())

    def answer(self, op: Op) -> set[int]:
        kind, args = op
        if kind == "stab":
            return self.intersecting(args, args)
        (rect,) = args
        return self.intersecting(rect.lows, rect.highs)
