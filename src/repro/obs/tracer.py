"""Lightweight tracer: nestable spans and typed events.

The index family funnels every interesting moment — node accesses,
splits, cuts, demotions, promotions, coalesces, page fetches, evictions —
through a :class:`Tracer` attached to the tree (and, when a storage
manager is attached, to the buffer pool).  Events carry the node id,
level and page size where applicable, and are tagged with the operation
span they happened inside, so a JSONL trace can be sliced per query.

Event names are validated against the central schema in
:mod:`repro.obs.events` — the same declarations the ``repro lint`` R1
rule enforces statically, field by field, at every call site.

The default tracer on every index is :data:`NULL_TRACER`, whose
``enabled`` flag is ``False``; hot paths guard their instrumentation on
that single attribute, so tracing costs one attribute check per node
visit when off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..exceptions import ConfigError, TraceSchemaError
from .events import EVENT_NAMES
from .sinks import RingBufferSink, Sink

__all__ = ["EVENT_TYPES", "TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]

#: The full record-type vocabulary: every declared point event plus the
#: two structural record types the tracer emits to delimit operations.
#: Point-event declarations live in :data:`repro.obs.events.EVENT_SCHEMA`.
EVENT_TYPES: frozenset[str] = EVENT_NAMES | {"span_begin", "span_end"}


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``span`` is the id of the innermost enclosing span (0 when outside
    any operation) and ``op`` its operation name, so flat JSONL streams
    can be grouped back into per-operation traces.
    """

    seq: int
    etype: str
    span: int
    op: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "seq": self.seq,
            "type": self.etype,
            "span": self.span,
            "op": self.op,
        }
        doc.update(self.fields)
        return doc


class _SpanHandle:
    """Context manager for one operation span.

    :meth:`set` attaches summary fields (e.g. ``nodes_accessed``) that
    are emitted on the closing ``span_end`` event, which also carries
    the monotonic ``duration_ns`` measured between open and close.
    """

    __slots__ = ("_tracer", "span_id", "op", "end_fields", "start_ns")

    def __init__(self, tracer: "Tracer", span_id: int, op: str) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.op = op
        self.end_fields: dict[str, Any] = {}
        self.start_ns = time.monotonic_ns()

    def set(self, **fields: Any) -> None:
        self.end_fields.update(fields)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._end_span(self)


class _NullSpan:
    """Reusable no-op span for the disabled tracer."""

    __slots__ = ()

    def set(self, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emits :class:`TraceEvent` records to a sink.

    It rejects unknown event names; field sets are checked statically
    (lint rule R1) and, on a recorded stream, by
    :func:`~repro.obs.events.check_event_fields` /
    :func:`~repro.obs.events.check_span_fields`, keeping hot paths cheap.

    >>> tracer = Tracer()
    >>> with tracer.span("search") as sp:
    ...     tracer.event("node_access", node_id=1, level=0)
    ...     sp.set(nodes_accessed=1)
    >>> [e.etype for e in tracer.events]
    ['span_begin', 'node_access', 'span_end']
    """

    enabled = True

    def __init__(self, sink: Sink | None = None) -> None:
        self.sink: Sink = sink if sink is not None else RingBufferSink()
        self._seq = 0
        self._next_span = 1
        # Emission is serialized by one lock (seq allocation + sink write
        # stay atomic so JSONL streams interleave whole records); the span
        # stack is per-thread so concurrent operations keep their own
        # nesting instead of corrupting each other's span attribution.
        self._emit_lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> list[_SpanHandle]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- emission ------------------------------------------------------
    def event(self, etype: str, **fields: Any) -> None:
        """Emit one point event inside the current span (if any)."""
        if etype not in EVENT_NAMES:
            raise TraceSchemaError(
                f"unknown trace event type {etype!r}; known: {sorted(EVENT_NAMES)}"
            )
        self._emit(etype, fields)

    def span(self, op: str, **fields: Any) -> _SpanHandle:
        """Open an operation span; use as a context manager."""
        with self._emit_lock:
            span_id = self._next_span
            self._next_span += 1
        handle = _SpanHandle(self, span_id, op)
        self._stack.append(handle)
        self._emit("span_begin", fields, span=handle.span_id, op=op)
        return handle

    def _end_span(self, handle: _SpanHandle) -> None:
        if self._stack and self._stack[-1] is handle:
            self._stack.pop()
        else:  # out-of-order exit; drop it wherever it is
            try:
                self._stack.remove(handle)
            except ValueError:
                pass
        handle.end_fields.setdefault(
            "duration_ns", time.monotonic_ns() - handle.start_ns
        )
        self._emit("span_end", handle.end_fields, span=handle.span_id, op=handle.op)

    def _emit(
        self,
        etype: str,
        fields: dict[str, Any],
        span: int | None = None,
        op: str | None = None,
    ) -> None:
        if span is None or op is None:
            stack = self._stack
            if stack:
                top = stack[-1]
                span, op = top.span_id, top.op
            else:
                span, op = 0, ""
        with self._emit_lock:
            self._seq += 1
            self.sink.write(TraceEvent(self._seq, etype, span, op, fields))

    # -- convenience ---------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """Buffered events when the sink is a :class:`RingBufferSink`."""
        events = getattr(self.sink, "events", None)
        if events is None:
            raise ConfigError(
                f"sink {type(self.sink).__name__} does not buffer events"
            )
        return list(events)

    def close(self) -> None:
        self.sink.close()


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) is the default on all
    indexes and buffer pools.
    """

    enabled = False

    def __init__(self) -> None:
        pass

    def event(self, etype: str, **fields: Any) -> None:
        pass

    def span(self, op: str, **fields: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()
