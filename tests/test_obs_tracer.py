"""Tests for the tracer, spans, and sinks (repro.obs)."""

import io
import json

import pytest

from repro.obs import (
    EVENT_TYPES,
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    RingBufferSink,
    TeeSink,
    Tracer,
    read_jsonl,
)

from .conftest import assert_trace_conforms


class TestTracer:
    def test_event_flows_to_ring_buffer(self):
        tracer = Tracer()
        tracer.event("node_access", node_id=3, level=1)
        (event,) = tracer.events
        assert event.etype == "node_access"
        assert event.fields == {"node_id": 3, "level": 1}
        assert event.span == 0 and event.op == ""

    def test_unknown_event_type_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown trace event type"):
            tracer.event("frobnicate")

    def test_span_wraps_events(self):
        tracer = Tracer()
        with tracer.span("search") as sp:
            tracer.event("node_access", node_id=1, level=0)
            sp.set(nodes_accessed=1)
        types = [e.etype for e in tracer.events]
        assert types == ["span_begin", "node_access", "span_end"]
        begin, access, end = tracer.events
        assert begin.op == "search"
        assert access.span == begin.span != 0
        assert end.fields["nodes_accessed"] == 1
        assert end.fields["duration_ns"] >= 0  # schema v2: always present

    def test_nested_spans_tag_innermost(self):
        tracer = Tracer()
        with tracer.span("insert"):
            with tracer.span("search"):
                tracer.event("node_access", node_id=1, level=0)
            tracer.event("split", node_id=2, level=0)
        by_type = {e.etype: e for e in tracer.events}
        assert by_type["node_access"].op == "search"
        assert by_type["split"].op == "insert"

    def test_span_ids_unique(self):
        tracer = Tracer()
        with tracer.span("insert"):
            pass
        with tracer.span("insert"):
            pass
        ids = {e.span for e in tracer.events}
        assert len(ids) == 2

    def test_seq_monotonic(self):
        tracer = Tracer()
        for _ in range(5):
            tracer.event("split", node_id=1, level=0)
        seqs = [e.seq for e in tracer.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == 5

    def test_event_type_vocabulary(self):
        for required in (
            "node_access", "spanning_hit", "split", "cut", "demote",
            "promote", "coalesce", "page_fetch", "eviction",
        ):
            assert required in EVENT_TYPES


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event("anything_goes_here")  # no validation, no effect
        with NULL_TRACER.span("search") as sp:
            sp.set(nodes_accessed=1)

    def test_shared_instance_is_null_tracer(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestRingBufferSink:
    def test_capacity_bounds_memory(self):
        tracer = Tracer(RingBufferSink(capacity=3))
        for i in range(10):
            tracer.event("split", node_id=i, level=0)
        events = tracer.events
        assert len(events) == 3
        assert [e.fields["node_id"] for e in events] == [7, 8, 9]

    def test_clear(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.event("split", node_id=1, level=0)
        sink.clear()
        assert len(sink) == 0


class TestJsonlSink:
    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            with tracer.span("search"):
                tracer.event("node_access", node_id=7, level=2)
        rows = list(read_jsonl(path))
        assert len(rows) == 3
        assert rows[1] == {
            "seq": 2, "type": "node_access", "span": 1, "op": "search",
            "node_id": 7, "level": 2,
        }

    def test_accepts_open_stream(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        Tracer(sink).event("eviction", page_id=1, dirty=False, page_bytes=512)
        sink.close()  # flushes, does not close foreign streams
        line = json.loads(buf.getvalue())
        assert line["type"] == "eviction"
        assert sink.events_written == 1


class TestTeeSink:
    def test_duplicates_to_all(self, tmp_path):
        ring = RingBufferSink()
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as jsonl:
            tracer = Tracer(TeeSink(ring, jsonl))
            tracer.event("split", node_id=1, level=0)
        assert len(ring) == 1
        assert len(list(read_jsonl(path))) == 1


class TestSpanTiming:
    """Schema v2: every span_end carries a monotonic duration_ns."""

    def test_span_end_carries_duration(self):
        tracer = Tracer()
        with tracer.span("search"):
            pass
        end = tracer.events[-1]
        assert end.etype == "span_end"
        assert end.fields["duration_ns"] >= 0

    def test_duration_reflects_elapsed_time(self):
        import time

        tracer = Tracer()
        with tracer.span("search"):
            time.sleep(0.005)
        assert tracer.events[-1].fields["duration_ns"] >= 4_000_000

    def test_explicit_duration_not_overwritten(self):
        tracer = Tracer()
        with tracer.span("search") as sp:
            sp.set(duration_ns=12345)
        assert tracer.events[-1].fields["duration_ns"] == 12345

    def test_duration_on_every_span_op_conforms(self):
        from repro.obs import SPAN_OPS

        tracer = Tracer()
        for op in sorted(SPAN_OPS):
            with tracer.span(op):
                pass
        assert_trace_conforms(tracer.events)
        ends = [e for e in tracer.events if e.etype == "span_end"]
        assert len(ends) == len(SPAN_OPS)
        assert all(e.fields["duration_ns"] >= 0 for e in ends)

    def test_nested_spans_time_independently(self):
        import time

        tracer = Tracer()
        with tracer.span("insert"):
            time.sleep(0.002)
            with tracer.span("search"):
                pass
        ends = {e.op: e for e in tracer.events if e.etype == "span_end"}
        assert ends["insert"].fields["duration_ns"] > ends["search"].fields["duration_ns"]
