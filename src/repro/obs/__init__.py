"""Observability layer: tracing, count histograms, run reports.

Three cooperating pieces, all optional and near-zero-cost when off:

* :mod:`~repro.obs.tracer` + :mod:`~repro.obs.sinks` — nestable spans
  and typed events (node accesses, splits, cuts, demotions, promotions,
  coalesces, page fetches, evictions) flowing to a ring buffer or a
  JSONL file;
* :mod:`~repro.obs.registry` — fixed-bucket count histograms;
* :mod:`~repro.obs.report` — versioned ``BENCH_<name>.json`` run
  reports written by the experiment harness and the CLI.

Attach a tracer to any index with ``tree.tracer = Tracer(sink)``;
capture a single query's root-to-leaf path with
:func:`~repro.obs.capture.trace_search`.
"""

from .capture import QueryTrace, trace_search
from .events import (
    EVENT_SCHEMA,
    EVENT_NAMES,
    SPAN_OPS,
    SPAN_SCHEMA,
    EventSpec,
    SpanSpec,
    check_event_fields,
    check_span_fields,
)
from .registry import NODES_PER_SEARCH_BUCKETS, Histogram
from .report import (
    SCHEMA,
    build_report,
    format_ns,
    format_report,
    load_report,
    report_filename,
    validate_report,
    write_report,
)
from .sinks import JsonlSink, RingBufferSink, TeeSink, read_jsonl
from .tracer import EVENT_TYPES, NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_NAMES",
    "SPAN_SCHEMA",
    "SPAN_OPS",
    "EventSpec",
    "SpanSpec",
    "check_event_fields",
    "check_span_fields",
    "EVENT_TYPES",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "JsonlSink",
    "RingBufferSink",
    "TeeSink",
    "read_jsonl",
    "Histogram",
    "NODES_PER_SEARCH_BUCKETS",
    "QueryTrace",
    "trace_search",
    "format_ns",
    "SCHEMA",
    "build_report",
    "report_filename",
    "write_report",
    "load_report",
    "validate_report",
    "format_report",
]
