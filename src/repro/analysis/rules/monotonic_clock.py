"""R8 — monotonic-clock discipline: no ``time.time()`` in timing code.

Wall-clock time jumps — NTP slews, manual adjustment, leap smearing —
and a latch deadline computed from ``time.time()`` can fire years early
or never.  All timeout, deadline, and duration arithmetic in the
concurrency, storage, and workload layers must use ``time.monotonic()``
(deadlines) or ``time.perf_counter()`` (measurements).  ``time.time()``
is only legitimate for *timestamps* shown to humans, which these layers
delegate to :mod:`repro.obs`.

The latch timeouts and the shard router's deadlines use monotonic
clocks throughout; this rule keeps it that way.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register

__all__ = ["MonotonicClockRule"]

#: Package-relative directories where the rule applies.
SCOPES = ("concurrency/", "storage/", "workloads/", "sharding/")


@register
class MonotonicClockRule(Rule):
    id = "R8"
    name = "monotonic-clock"
    description = (
        "no time.time() in concurrency/, storage/, workloads/ — use "
        "time.monotonic() for deadlines or time.perf_counter() for "
        "measurements; wall clocks jump"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(*SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                yield self.diagnostic(
                    ctx,
                    node,
                    "time.time() in timing-sensitive code; use "
                    "time.monotonic() (deadlines/timeouts) or "
                    "time.perf_counter() (measurements)",
                )
