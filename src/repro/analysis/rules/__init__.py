"""Built-in lint rules.  Importing this package registers them all.

* R1 ``trace-event-schema`` — tracer call sites match repro.obs.events.
* R2 ``float-equality`` — no ==/!= on floats in core/, histogram/, bench/.
* R3 ``exception-hygiene`` — raise only repro.exceptions; storage/ never
  swallows broad exceptions.
* R6 ``io-under-lock`` — no blocking I/O under an exclusive lock outside
  the documented allowlist.
* R8 ``monotonic-clock`` — no ``time.time()`` in timeout/deadline code.

To add a rule: subclass :class:`repro.analysis.engine.Rule`, decorate it
with :func:`repro.analysis.engine.register`, give it the next id after
R8, and import its module here.  R4 (frozen ``Rect``), R5 (lock order)
and R7 (latch release) are retired ids: ``Rect.__setattr__`` raising
holds the first class, the runtime lock-order recorder
(``repro.obs.lockgraph``) the other two.
"""

from .exception_hygiene import ExceptionHygieneRule
from .float_equality import FloatEqualityRule
from .io_under_lock import IoUnderLockRule
from .monotonic_clock import MonotonicClockRule
from .trace_schema import TraceSchemaRule

__all__ = [
    "TraceSchemaRule",
    "FloatEqualityRule",
    "ExceptionHygieneRule",
    "IoUnderLockRule",
    "MonotonicClockRule",
]
