"""Unified observability layer: tracing, metrics registry, run reports.

Three cooperating pieces, all optional and near-zero-cost when off:

* :mod:`~repro.obs.tracer` + :mod:`~repro.obs.sinks` — nestable spans
  and typed events (node accesses, splits, cuts, demotions, promotions,
  coalesces, page fetches, evictions) flowing to a ring buffer, a JSONL
  file, or nothing;
* :mod:`~repro.obs.registry` — counters/gauges/histograms plus pull
  sources that unify ``AccessStats``, ``BufferStats``, ``DiskStats`` and
  ``IndexMetrics`` behind one ``snapshot()`` / ``to_json()``;
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
from .latency import (
    DEFAULT_SUB_BUCKET_BITS,
    QUANTILE_LABELS,
    LatencyRecorder,
    LatencySeries,
    format_ns,
    span_breakdown,
)
from .registry import (
    BYTES_READ_BUCKETS,
    NODES_PER_SEARCH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    index_registry,
)
from .report import (
    SCHEMA,
    build_report,
    format_latency_line,
    format_report,
    load_report,
    report_filename,
    validate_report,
    write_report,
)
from .slo import (
    DEFAULT_SLO_SPEC,
    SloResult,
    SloRule,
    evaluate_slo,
    format_slo_results,
    load_slo_spec,
    parse_slo_spec,
    slo_passed,
)
from .sinks import JsonlSink, NullSink, RingBufferSink, TeeSink, read_jsonl
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
    "NullSink",
    "RingBufferSink",
    "TeeSink",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "index_registry",
    "NODES_PER_SEARCH_BUCKETS",
    "BYTES_READ_BUCKETS",
    "QueryTrace",
    "trace_search",
    "DEFAULT_SUB_BUCKET_BITS",
    "QUANTILE_LABELS",
    "LatencyRecorder",
    "LatencySeries",
    "format_ns",
    "span_breakdown",
    "SCHEMA",
    "build_report",
    "report_filename",
    "write_report",
    "load_report",
    "validate_report",
    "format_report",
    "format_latency_line",
    "DEFAULT_SLO_SPEC",
    "SloRule",
    "SloResult",
    "parse_slo_spec",
    "load_slo_spec",
    "evaluate_slo",
    "slo_passed",
    "format_slo_results",
]
