"""Runtime smoke test: every event the system actually emits matches the
central trace-event schema (``repro.obs.events``).

This is the dynamic counterpart of lint rule R1: the lint rule proves
every *call site* names a declared event with declared fields; this test
drives real insert/search/delete/checkpoint workloads with a tracer
attached and cross-checks the *emitted* stream field-by-field.
"""

import pytest

from repro.core.geometry import Rect, segment
from repro.core.srtree import SRTree
from repro.obs import (
    EVENT_NAMES,
    SPAN_OPS,
    RingBufferSink,
    Tracer,
    check_event_fields,
    check_span_fields,
)
from repro.exceptions import TraceSchemaError
from repro.storage import StorageManager

from .conftest import random_segments


def drive_workload(tracer):
    """Insert/search/delete/checkpoint one small SR-Tree under ``tracer``."""
    tree = SRTree()
    tree.tracer = tracer
    manager = StorageManager(tree, buffer_bytes=8 * 1024)
    ids = [tree.insert(rect) for rect in random_segments(200, seed=7)]
    for y in range(10):  # domain-spanning records to force spanning placement
        tree.insert(segment(0.0, 100_000.0, float(y)))
    assert tree.stats.spanning_placements > 0
    tree.search(Rect((0.0, 0.0), (50.0, 50.0)))
    tree.delete(ids[0])
    manager.checkpoint()
    return tree


def test_emitted_events_conform_to_schema():
    sink = RingBufferSink(capacity=200_000)
    drive_workload(Tracer(sink))

    seen = set()
    open_spans = {}
    for event in sink.events:
        if event.etype == "span_begin":
            assert event.op in SPAN_OPS, event.op
            assert check_span_fields(event.op, event.fields) == []
            open_spans[event.span] = event.op
            seen.add(f"span:{event.op}")
        elif event.etype == "span_end":
            assert open_spans.pop(event.span) == event.op
            assert check_span_fields(event.op, event.fields, closing=True) == []
        else:
            assert event.etype in EVENT_NAMES, event.etype
            assert check_event_fields(event.etype, event.fields) == []
            seen.add(event.etype)
    assert not open_spans, "spans left open"

    # The workload must genuinely exercise the paths the PR migrated:
    # index events, storage events, and all four operation spans.
    for expected in (
        "node_access",
        "spanning_place",
        "page_fetch",
        "span:insert",
        "span:search",
        "span:delete",
        "span:checkpoint",
    ):
        assert expected in seen, f"workload never emitted {expected}"


def test_check_event_fields_reports_undeclared_field():
    problems = check_event_fields("node_access", {"node_id": 1, "level": 0, "colour": "red"})
    assert len(problems) == 1 and "undeclared field" in problems[0]


def test_check_event_fields_reports_missing_required_field():
    problems = check_event_fields("node_access", {"node_id": 1})
    assert len(problems) == 1 and "missing required field" in problems[0]


def test_default_tracer_rejects_unknown_event_name():
    tracer = Tracer(RingBufferSink())
    with pytest.raises(TraceSchemaError, match="unknown trace event type"):
        tracer.event("node_acess", node_id=1, level=0)
