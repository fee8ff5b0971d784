"""Concurrent serving engine: latches and thread-safe wrappers.

See DESIGN.md ("Concurrent serving") for the protocol: reads under the
shared index latch, and writes under the same latch held exclusively
(writer-preferring).  MVCC mode (``ConcurrentIndex(..., mvcc=True)``)
reads instead from latch-free epoch-pinned snapshots over copy-on-write
page versions (see ``concurrency/mvcc.py`` and DESIGN.md "Snapshot
reads").

The seeded stress harness (:mod:`repro.concurrency.stress`) and
``repro racecheck`` (:mod:`repro.concurrency.racecheck`) are imported on
use, not here: they pull in the experiment laboratory, which a serving
process has no use for.
"""

from .engine import ConcurrentEngine, ConcurrentIndex, ConcurrentRuleLockIndex
from .latch import LatchStats, RWLatch
from .mvcc import Snapshot

__all__ = [
    "ConcurrentEngine",
    "ConcurrentIndex",
    "ConcurrentRuleLockIndex",
    "LatchStats",
    "RWLatch",
    "Snapshot",
]
