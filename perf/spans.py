"""The benchmark's own spans, and the waterfall they add up to.

A traced run times the same queries at each level of a stack, innermost
first (bare tree, then the engine around it, then the router around that ...).
Every query leaves one span per level; its parent is the same query's span
one level out.  A level's *self* time is its mean span minus the mean of the
level inside it, both scaled to the reference speed (``measure.speed``) so that
levels timed minutes apart can be subtracted.  Spans stay in memory until the
run ends and are written as the clock saw them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .measure import Call, Scaled, Tally, settle

_now = time.perf_counter_ns

#: Passes over the queries at each level; the level keeps its median pass.
PASSES = 5


@dataclass
class Level:
    name: str
    layer: str
    spans: list[tuple[int, int]]  # (start_ns, end_ns) per query, as the clock saw the median pass
    mean_us: float  # of that pass, at reference speed
    pass_means_us: list[float]


def timed_pass(calls: Sequence[Call], tally: Tally) -> list[tuple[int, int]]:
    """One closed-loop pass recording a (start, end) span around every call."""
    tally.attempt(len(calls))
    spans: list[tuple[int, int]] = []
    for fn, args in calls:
        start = _now()
        try:
            fn(*args)
        except Exception as exc:
            tally.fail(exc)
        spans.append((start, _now()))
    return spans


@dataclass
class Ladder:
    """Levels of one stack, innermost first, all timed on the same queries."""

    levels: list[Level] = field(default_factory=list)

    def measure(self, name: str, layer: str, calls: Sequence[Call], tally: Tally) -> Level:
        settle()
        passes, means = [], []
        for _ in range(PASSES):
            with Scaled() as scaled:
                spans = timed_pass(calls, tally)
            passes.append(spans)
            means.append(scaled.factor * sum(e - s for s, e in spans) / len(spans) / 1e3)
        middle = sorted(range(PASSES), key=means.__getitem__)[PASSES // 2]
        level = Level(name, layer, passes[middle], means[middle], means)
        self.levels.append(level)
        return level

    def self_times(self) -> list[tuple[Level, float]]:
        """(level, self time in us): the level's mean minus the one inside it."""
        out, inner = [], 0.0
        for level in self.levels:
            out.append((level, level.mean_us - inner))
            inner = level.mean_us
        return out

    def table(self) -> str:
        """The cumulative waterfall; a negative self time is flagged, not printed."""
        top = self.levels[-1].mean_us
        lines = [f"{'level':28s} {'layer':12s} {'mean us':>10s} {'self us':>10s} {'share of top':>13s}"]
        for level, own in self.self_times():
            shown = f"{own:10.2f} {100 * own / top:12.1f}%" if own >= 0 else "  NEGATIVE (noise: rerun)"
            lines.append(f"{level.name:28s} {level.layer:12s} {level.mean_us:10.2f} {shown}")
        return "\n".join(lines)

    def negative(self) -> list[str]:
        return [level.name for level, own in self.self_times() if own < 0]

    def write(self, path: Path) -> int:
        """One JSON object per span; returns how many were written."""
        width = len(self.levels[0].spans)
        with path.open("w") as out:
            for depth, level in enumerate(self.levels):
                outer = depth + 1 < len(self.levels)
                for query_id, (start, end) in enumerate(level.spans):
                    span = {
                        "id": depth * width + query_id,
                        "name": level.name,
                        "layer": level.layer,
                        "query_id": query_id,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": (depth + 1) * width + query_id if outer else None,
                    }
                    out.write(json.dumps(span) + "\n")
        return width * len(self.levels)
