"""Rule locks over a one-dimensional Segment Index (paper Section 2.2).

The paper motivates 1-D Segment Indexes with POSTGRES-style rule systems:
a rule predicate is an interval (``salary > 10K and salary <= 20K``) or a
point (``salary = 100K``) over an indexed attribute; the rule's lock is
installed in the index so that any tuple whose value falls in the locked
range triggers the rule.

The paper sketches the classic *index stub record* implementation (stub
records at both interval ends, every intervening record marked, locks that
span a node escalated to the parent) and then observes that a 1-D SR-Tree
gives the same effect directly: the lock interval is inserted once, and the
spanning-record machinery automatically stores broad locks high in the
index (a lock spanning a node's whole region lives at the parent — exactly
the paper's lock promotion/escalation).

:class:`RuleLockIndex` packages that: interval and point locks over a 1-D
SR-Tree, value probes, and lock-escalation introspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..core.config import IndexConfig
from ..core.floatcmp import exact_zero
from ..core.geometry import interval
from ..core.srtree import SRTree
from ..exceptions import WorkloadError

__all__ = ["RuleLock", "RuleLockIndex"]

#: The lock modes; shared locks conflict only with exclusive acquisition.
LOCK_MODES = ("shared", "exclusive")


def _check_mode(mode: str) -> None:
    if mode not in LOCK_MODES:
        raise WorkloadError(f"unknown lock mode {mode!r}; known: {LOCK_MODES}")


@dataclass(frozen=True)
class RuleLock:
    """One installed lock: the rule id, its predicate range, and mode."""

    rule_id: Any
    low: float
    high: float
    mode: str = "shared"

    @property
    def is_point(self) -> bool:
        return exact_zero(self.high - self.low)


class RuleLockIndex:
    """Rule locks on one attribute, backed by a 1-D SR-Tree.

    >>> locks = RuleLockIndex()
    >>> _ = locks.lock_range("rule1", 10_000, 20_000)
    >>> _ = locks.lock_point("rule2", 100_000)
    >>> [l.rule_id for l in locks.locks_for_value(15_000)]
    ['rule1']
    >>> [l.rule_id for l in locks.locks_for_value(100_000)]
    ['rule2']
    """

    def __init__(self, config: IndexConfig | None = None):
        if config is None:
            config = IndexConfig(dims=1)
        if config.dims != 1:
            raise WorkloadError("rule locks index a single attribute (dims=1)")
        self._tree = SRTree(config)
        self._locks: dict[int, RuleLock] = {}

    def __len__(self) -> int:
        return len(self._locks)

    # ------------------------------------------------------------------
    # Lock installation / removal
    # ------------------------------------------------------------------
    def lock_range(
        self, rule_id: Any, low: float, high: float, mode: str = "shared"
    ) -> int:
        """Install an interval lock; returns a lock handle."""
        _check_mode(mode)
        if low > high:
            raise WorkloadError(f"inverted lock range [{low}, {high}]")
        lock = RuleLock(rule_id, float(low), float(high), mode)
        handle = self._tree.insert(interval(low, high), payload=lock)
        self._locks[handle] = lock
        return handle

    def lock_point(self, rule_id: Any, value: float, mode: str = "shared") -> int:
        """Install a point lock (rule triggered on equality)."""
        return self.lock_range(rule_id, value, value, mode)

    def unlock(self, handle: int) -> bool:
        """Remove a previously installed lock.

        Returns ``False`` (and changes nothing) for an unknown handle or
        when the tree holds no fragments for it; the handle table entry is
        dropped only after the tree delete actually removed the lock, so a
        failed delete cannot strand an entry that no longer matches the
        tree (which would corrupt later probes and re-unlocks).
        """
        lock = self._locks.get(handle)
        if lock is None:
            return False
        removed = self._tree.delete(handle, hint=interval(lock.low, lock.high))
        if removed <= 0:
            return False
        del self._locks[handle]
        return True

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def locks_for_value(self, value: float) -> list[RuleLock]:
        """All locks whose predicate covers ``value`` (rules to trigger)."""
        return [lock for _, lock in self._tree.stab(float(value))]

    def locks_for_range(self, low: float, high: float) -> list[RuleLock]:
        """All locks intersecting [low, high] (e.g. for a range update)."""
        if low > high:
            raise WorkloadError(f"inverted probe range [{low}, {high}]")
        return [lock for _, lock in self._tree.search(interval(low, high))]

    def conflicting(self, low: float, high: float, mode: str = "exclusive") -> list[RuleLock]:
        """Locks that conflict with acquiring ``mode`` over [low, high]
        (shared locks conflict only with exclusive acquisition)."""
        _check_mode(mode)
        hits = self.locks_for_range(low, high)
        if mode == "exclusive":
            return hits
        return [lock for lock in hits if lock.mode == "exclusive"]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def escalated_locks(self) -> Iterator[tuple[int, RuleLock]]:
        """Locks stored above the leaf level (the paper's promoted locks),
        as (index_level, lock) pairs."""
        for node in self._tree.iter_nodes():
            for _, record in node.iter_spanning():
                yield node.level, record.payload

    def escalation_ratio(self) -> float:
        """Fraction of lock fragments held above the leaves."""
        total = 0
        high = 0
        for node in self._tree.iter_nodes():
            if node.is_leaf:
                total += len(node.data_entries)
            else:
                count = node.spanning_count
                total += count
                high += count
        return high / total if total else 0.0

    @property
    def index(self) -> SRTree:
        """The underlying 1-D SR-Tree (for stats and validation)."""
        return self._tree
