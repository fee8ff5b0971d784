"""Concurrent serving engine: latches, thread-safe wrappers, stress harness.

See DESIGN.md ("Concurrent serving") for the protocol: optimistic
version-validated reads, then reads under the shared index latch, and
writes under the same latch held exclusively (writer-preferring).
MVCC mode (``ConcurrentIndex(..., mvcc=True)``) replaces the read tiers
with latch-free epoch-pinned snapshots over copy-on-write page versions
(see ``concurrency/mvcc.py`` and DESIGN.md "Snapshot reads").
"""

from .engine import ConcurrentEngine, ConcurrentIndex, ConcurrentRuleLockIndex
from .latch import LatchStats, RWLatch
from .mvcc import Snapshot
from .stress import StressResult, run_rule_lock_stress, run_stress

__all__ = [
    "ConcurrentEngine",
    "ConcurrentIndex",
    "ConcurrentRuleLockIndex",
    "LatchStats",
    "RWLatch",
    "Snapshot",
    "StressResult",
    "run_rule_lock_stress",
    "run_stress",
]
