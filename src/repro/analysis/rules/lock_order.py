"""R5 — lock-order discipline: acquisitions never ascend the hierarchy.

The canonical order (:mod:`repro.analysis.lockspec`) is::

    router latch -> index latch -> buffer-pool mutex -> WAL mutex -> disk

A thread holding a lock may only acquire locks at a *greater* rank
(deeper in the hierarchy).  Acquiring a smaller-ranked lock while a
larger-ranked one is held is the classic inversion: a second thread
taking the same pair in canonical order deadlocks against it.  Nested
same-level acquisition is flagged too.

The check is lexical per function (see
:mod:`repro.analysis.rules._heldlocks`), seeded with the documented
"callers hold self._lock" conventions, so the obvious cross-function
regions are visible.  Files that *implement* the primitives
(``concurrency/latch.py``) are skipped — their internal condition
variables are the latch, not hierarchy participants.
"""

from __future__ import annotations

from typing import Iterator

from .. import lockspec
from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register
from ._heldlocks import iter_lock_events

__all__ = ["LockOrderRule"]

#: Package-relative directories where the rule applies.
SCOPES = ("concurrency/", "storage/", "sharding/", "rules/")


@register
class LockOrderRule(Rule):
    id = "R5"
    name = "lock-order"
    description = (
        "acquisitions must descend the canonical hierarchy "
        "(router -> index -> buffer -> wal -> disk); ascending while a "
        "deeper lock is held can deadlock"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(*SCOPES):
            return
        if ctx.package_path in lockspec.IMPLEMENTATION_FILES:
            return
        locks, _ = iter_lock_events(ctx)
        for event in locks:
            new_rank = lockspec.rank_of(event.level)
            for held in event.held:
                held_rank = lockspec.rank_of(held.level)
                if new_rank < held_rank:
                    yield self.diagnostic(
                        ctx,
                        event.node,
                        f"acquires `{event.level}` (rank {new_rank}) while "
                        f"holding `{held.level}` (rank {held_rank}); this "
                        "ascends the lock hierarchy — release the inner "
                        "lock first or restructure to canonical order",
                    )
                    break
                if event.level == held.level:
                    yield self.diagnostic(
                        ctx,
                        event.node,
                        f"nested acquisition of `{event.level}` while "
                        "already held; two threads nesting the same level "
                        "in opposite instance order deadlock",
                    )
                    break
