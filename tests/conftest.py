"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro import IndexConfig, Rect
from repro.core.geometry import union_all
from repro.obs import check_event_fields, check_span_fields


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------
def coords(low: float = 0.0, high: float = 1000.0):
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


@st.composite
def rects(draw, dims: int = 2, low: float = 0.0, high: float = 1000.0):
    """An arbitrary (possibly degenerate) axis-aligned box."""
    lows = []
    highs = []
    for _ in range(dims):
        a = draw(coords(low, high))
        b = draw(coords(low, high))
        lows.append(min(a, b))
        highs.append(max(a, b))
    return Rect(tuple(lows), tuple(highs))


@st.composite
def segments_2d(draw, low: float = 0.0, high: float = 1000.0):
    """A horizontal line segment (interval in X, point in Y)."""
    a = draw(coords(low, high))
    b = draw(coords(low, high))
    y = draw(coords(low, high))
    return Rect((min(a, b), y), (max(a, b), y))


@st.composite
def intervals_1d(draw, low: float = 0.0, high: float = 1000.0):
    a = draw(coords(low, high))
    b = draw(coords(low, high))
    return Rect((min(a, b),), (max(a, b),))


# ---------------------------------------------------------------------------
# Plain-python data helpers (cheaper than hypothesis for bulk tests)
# ---------------------------------------------------------------------------
def random_segments(n: int, seed: int, long_fraction: float = 0.1, domain: float = 100_000.0):
    """Mixed short/long horizontal segments, the paper's skewed shape."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if rng.random() < long_fraction:
            length = rng.expovariate(1 / (domain * 0.2))
        else:
            length = rng.uniform(0, domain * 0.001)
        x0 = rng.uniform(0, domain)
        x1 = min(x0 + length, domain)
        y = rng.uniform(0, domain)
        out.append(Rect((x0, y), (x1, y)))
    return out


def random_boxes(n: int, seed: int, domain: float = 100_000.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0, domain), rng.uniform(0, domain)
        w, h = rng.expovariate(1 / 2000.0), rng.expovariate(1 / 2000.0)
        out.append(
            Rect(
                (max(cx - w / 2, 0), max(cy - h / 2, 0)),
                (min(cx + w / 2, domain), min(cy + h / 2, domain)),
            )
        )
    return out


#: Two records to a leaf, five entries to the node above: deep trees whose
#: non-root nodes have narrow regions, so spanning records get cut.
CUT_CONFIG = IndexConfig(leaf_node_bytes=120, entry_bytes=40, coalesce_interval=0)


def cut_heavy_rects(n: int, seed: int, domain: float = 100_000.0):
    """Half wide flat boxes, half small ones.  Under ``CUT_CONFIG`` an
    SR-Tree stores about a tenth of 1,500 of them cut into fragments."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, domain), rng.uniform(0, domain)
        if rng.random() < 0.5:
            w, h = rng.uniform(0.03, 0.3) * domain, rng.uniform(0, 0.02) * domain
        else:
            w, h = rng.uniform(0, 0.03) * domain, rng.uniform(0, 0.03) * domain
        out.append(Rect((x, y), (min(x + w, domain), min(y + h, domain))))
    return out


def fragment_aligned_queries(pieces: dict[int, list[Rect]], seed: int, count: int = 200):
    """Queries whose edges are stored fragment bounds -- where a fragment
    lying outside the query still touches it: each fragment of each cut
    record as a query, the box around each cut record's fragments, and
    ``count`` boxes between fragment coordinates a few edges apart."""
    cut = [rects for _, rects in sorted(pieces.items()) if len(rects) > 1]
    rng = random.Random(seed)
    out = []
    for rects in cut:
        out.extend(rects)
        out.append(union_all(rects))
    edges = [
        sorted({v for rects in cut for r in rects for v in (r.lows[d], r.highs[d])})
        for d in range(2)
    ]
    for _ in range(count):
        lows, highs = [], []
        for axis in edges:
            i = rng.randrange(len(axis) - 1)
            lows.append(axis[i])
            highs.append(axis[min(len(axis) - 1, i + rng.randint(1, 60))])
        out.append(Rect(tuple(lows), tuple(highs)))
    return out


def assert_trace_conforms(events) -> None:
    """Every record of a recorded trace carries the fields the schema
    (``repro.obs.events``) declares for it, span begin and end included."""
    for event in events:
        if event.etype in ("span_begin", "span_end"):
            closing = event.etype == "span_end"
            problems = check_span_fields(event.op, event.fields, closing=closing)
        else:
            problems = check_event_fields(event.etype, event.fields)
        assert problems == [], (event, problems)


def brute_force_ids(data: dict[int, Rect], query: Rect) -> set[int]:
    return {rid for rid, rect in data.items() if rect.intersects(query)}


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def small_config() -> IndexConfig:
    """Tiny nodes force deep trees and frequent splits on small datasets."""
    return IndexConfig(leaf_node_bytes=200, entry_bytes=40, coalesce_interval=50)


@pytest.fixture
def paper_config() -> IndexConfig:
    """The paper's Section 5 parameters."""
    return IndexConfig()
