"""R6 — no blocking I/O inside a held-mutex region.

A mutex held across a disk read, fsync, or sleep convoys every other
thread that needs the lock behind the device: the PR 5 buffer pool's
whole design (release the mutex, fault the page, re-validate under the
mutex) exists to avoid exactly this.  The rule flags calls to the
simulated-disk API (``read_page``/``write_page``/``sync``), ``os.fsync``,
``os.replace``, and ``time.sleep`` that sit lexically inside a region
holding an *exclusive* lock — a plain mutex, or a latch acquired in
write mode.  Shared (read-mode) latches are fine: readers fault pages
under the shared index latch by design.

Documented exceptions live in
:data:`repro.analysis.lockspec.IO_UNDER_LOCK_ALLOWLIST`, keyed by
``(file, function)`` and each carrying a justification; anything not on
that list is a finding, not a judgement call.
"""

from __future__ import annotations

from typing import Iterator

from .. import lockspec
from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register
from ._heldlocks import iter_lock_events

__all__ = ["IoUnderLockRule"]

#: Package-relative directories where the rule applies.
SCOPES = ("concurrency/", "storage/", "sharding/", "rules/")


@register
class IoUnderLockRule(Rule):
    id = "R6"
    name = "io-under-lock"
    description = (
        "no blocking I/O (disk read/write/sync, os.fsync, time.sleep) "
        "while holding an exclusive lock, outside the documented "
        "allowlist in lockspec.py"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(*SCOPES):
            return
        if ctx.package_path in lockspec.IMPLEMENTATION_FILES:
            return
        _, io_events = iter_lock_events(ctx)
        for event in io_events:
            blocking = [h for h in event.held if h.blocking]
            if not blocking:
                continue
            key = (ctx.package_path, event.function)
            if key in lockspec.IO_UNDER_LOCK_ALLOWLIST:
                continue
            held_desc = ", ".join(
                f"`{h.level}`({h.mode})" for h in blocking
            )
            yield self.diagnostic(
                ctx,
                event.node,
                f"blocking call `{event.call}` while holding {held_desc}; "
                "move the I/O outside the lock (buffer-pool fetch pattern) "
                "or add a justified entry to IO_UNDER_LOCK_ALLOWLIST",
            )
