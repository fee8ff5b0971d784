"""Central trace-event schema: the single source of truth for event names.

Every event an index, buffer pool, or disk may emit is declared here as an
:class:`EventSpec` (name, required fields, optional fields).  Operation
spans (``insert``/``search``/...) are declared as :class:`SpanSpec` with
the fields allowed on their opening and closing records.

The registry is enforced twice:

* at **runtime** — :meth:`~repro.obs.tracer.Tracer.event` rejects unknown
  event names, and :func:`check_event_fields` / :func:`check_span_fields`
  list undeclared or missing fields of a recorded stream (the schema
  tests run them on real workloads);
* **statically** — lint rule R1 (``repro lint``) checks every
  ``tracer.event(...)``/``tracer.span(...)`` call site in the tree against
  these declarations, so a typo'd event name or field dies in CI instead
  of silently vanishing from reports.

Adding an event is a one-stop edit: declare it here and every consumer
(tracer validation, the lint rule, the schema smoke test) picks it up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "EventSpec",
    "SpanSpec",
    "EVENT_SCHEMA",
    "SPAN_SCHEMA",
    "EVENT_NAMES",
    "SPAN_OPS",
    "check_event_fields",
    "check_span_fields",
]


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one point-event type.

    ``required`` fields must appear on every emission; ``optional`` fields
    may appear; anything else is a schema violation.
    """

    name: str
    required: frozenset[str]
    optional: frozenset[str] = frozenset()
    doc: str = ""

    @property
    def allowed(self) -> frozenset[str]:
        return self.required | self.optional


@dataclass(frozen=True)
class SpanSpec:
    """Declaration of one operation span (an ``op`` name).

    ``begin`` fields may be passed to ``tracer.span(op, ...)``; ``end``
    fields may be attached via ``handle.set(...)`` and land on the closing
    ``span_end`` record.  All span fields are optional by design: spans
    must stay cheap to open on hot paths.
    """

    op: str
    begin: frozenset[str] = frozenset()
    end: frozenset[str] = frozenset()
    doc: str = ""


def _e(
    name: str,
    required: tuple[str, ...] = (),
    optional: tuple[str, ...] = (),
    doc: str = "",
) -> EventSpec:
    return EventSpec(name, frozenset(required), frozenset(optional), doc)


def _s(
    op: str,
    begin: tuple[str, ...] = (),
    end: tuple[str, ...] = (),
    doc: str = "",
) -> SpanSpec:
    # Schema v2: every span's closing record carries the tracer-measured
    # monotonic ``duration_ns``, so it is implicitly allowed on all ends.
    return SpanSpec(op, frozenset(begin), frozenset(end) | {"duration_ns"}, doc)


_EVENT_SPECS: tuple[EventSpec, ...] = (
    # -- index structure events (core/) --------------------------------
    _e(
        "node_access",
        required=("node_id", "level"),
        doc="One node visited during a traversal.",
    ),
    _e(
        "spanning_hit",
        required=("node_id", "level", "record_id"),
        doc="A spanning record answered a query above the leaves.",
    ),
    _e(
        "spanning_place",
        required=("record_id", "node_id", "level"),
        doc="A record was stored as a spanning record on a branch.",
    ),
    _e(
        "cut",
        required=("record_id", "node_id", "level"),
        optional=("remnants",),
        doc="A record was cut against a region (Section 3.1.1).",
    ),
    _e(
        "demote",
        required=("record_id", "node_id", "level"),
        doc="A spanning record was pushed down after a region shrank.",
    ),
    _e(
        "promote",
        required=("record_id", "node_id", "parent_id", "level"),
        doc="A record was promoted to span a higher branch.",
    ),
    _e(
        "split",
        required=("node_id", "level", "page_bytes"),
        optional=("sibling_id",),
        doc="A node overflowed and split.",
    ),
    _e(
        "reinsert",
        required=("node_id", "level"),
        doc="R*-style forced reinsertion triggered on an overflowing node.",
    ),
    _e(
        "coalesce",
        required=("node_id", "absorbed_id", "level"),
        optional=("entries",),
        doc="An underfull node absorbed a sibling (skeleton maintenance).",
    ),
    # -- buffer pool / paging events (storage/) -------------------------
    _e(
        "page_fetch",
        required=("page_id", "hit", "page_bytes"),
        optional=("read_ns",),
        doc="A page was requested from the buffer pool (misses carry the "
            "time blocked on the unlatched disk read — wall minus thread "
            "CPU — as read_ns, so it adds cleanly to CPU measurements).",
    ),
    _e(
        "eviction",
        required=("page_id", "dirty", "page_bytes"),
        doc="The pool evicted a page (after writing it back when dirty).",
    ),
    # -- durability / fault-tolerance events (storage/) -----------------
    _e(
        "fault_injected",
        required=("kind", "op", "op_index"),
        optional=("page_id",),
        doc="FaultInjectingDisk fired a fault.",
    ),
    _e(
        "disk_retry",
        required=("op", "attempt", "delay"),
        doc="The storage manager is retrying a transient disk error.",
    ),
    _e(
        "page_corruption",
        required=("page_id",),
        doc="A page failed its CRC/magic check on read.",
    ),
    _e(
        "meta_recovery",
        required=("path", "generation", "fallback"),
        doc="FileDisk recovered its page table from a fallback generation.",
    ),
    # -- write-ahead log events (storage/wal.py) ------------------------
    _e(
        "wal_append",
        required=("lsn", "records", "bytes"),
        doc="One transaction (page records + COMMIT) appended to the WAL; "
            "lsn is the commit record's LSN, not yet durable.",
    ),
    _e(
        "wal_fsync",
        required=("lsn",),
        doc="A group-commit flusher synced the WAL segment; every commit "
            "with LSN <= lsn is now durable.",
    ),
    _e(
        "wal_truncate",
        required=("up_to_lsn", "segments_deleted"),
        doc="A checkpoint truncated the WAL after recording up_to_lsn as "
            "the recovery LSN in checkpoint_info.",
    ),
    _e(
        "wal_replay",
        required=("records", "commits", "torn_tail", "stop_lsn", "skipped"),
        doc="Recovery replayed the WAL tail onto the page store (commits "
            "counts applied transactions; skipped = pre-checkpoint LSNs).",
    ),
    # -- MVCC snapshot events (concurrency/mvcc.py, storage/buffer.py) ---
    _e(
        "snapshot_open",
        required=("epoch", "root_page"),
        doc="A latch-free read snapshot pinned a committed epoch (the WAL "
            "commit LSN when a log is attached; root_page 0 = empty tree).",
    ),
    _e(
        "snapshot_close",
        required=("epoch",),
        doc="A snapshot released its epoch pin; its versions become "
            "eligible for GC once no other pin can reach them.",
    ),
    _e(
        "version_gc",
        required=("reclaimed_versions", "reclaimed_bytes"),
        optional=("horizon",),
        doc="Version GC reclaimed copy-on-write page versions no snapshot "
            "at or above the horizon can reach: superseded versions and "
            "the whole chains of pages whose node a commit unlinked.",
    ),
    # -- concurrency events (concurrency/) ------------------------------
    _e(
        "latch_acquire",
        required=("latch", "mode"),
        optional=("waited", "wait_seconds"),
        doc="A reader-writer latch was granted (mode 'read' or 'write'); "
            "contended grants carry the measured wait as wait_seconds.",
    ),
    _e(
        "latch_wait",
        required=("latch", "mode"),
        optional=("wait_seconds",),
        doc="A latch acquisition blocked on a conflicting holder.",
    ),
    # -- sharded serving events (sharding/) ------------------------------
    _e(
        "shard_dispatch",
        required=("op", "shards"),
        optional=("pruned",),
        doc="The router scattered one operation to `shards` workers "
            "(pruned = shards skipped because their key range cannot "
            "intersect the query).",
    ),
    _e(
        "shard_gather",
        required=("op", "shards"),
        optional=("results", "timeouts"),
        doc="The router gathered a scattered operation's replies; any "
            "timeout raises ShardTimeoutError rather than returning a "
            "partial result set.",
    ),
    _e(
        "shard_rebalance",
        required=("shard", "new_shard", "moved"),
        optional=("split_key",),
        doc="A hot shard's curve range was split at split_key and `moved` "
            "records migrated to the new shard.",
    ),
    _e(
        "shard_shed",
        required=("shard",),
        optional=("retries",),
        doc="Admission control shed an operation: the shard's bounded "
            "in-flight queue stayed full through every backoff retry.",
    ),
)

_SPAN_SPECS: tuple[SpanSpec, ...] = (
    _s(
        "insert",
        begin=("record_id",),
        end=("fragments",),
        doc="One record insertion (may fragment the record).",
    ),
    _s(
        "search",
        begin=("mode",),
        end=("nodes_accessed", "records_found"),
        doc="One intersection/containment/fragment query.",
    ),
    _s(
        "delete",
        begin=("record_id",),
        end=("fragments_removed",),
        doc="One record deletion (all fragments removed).",
    ),
    _s(
        "checkpoint",
        end=("pages", "generation"),
        doc="One StorageManager checkpoint (serialize + flush + sync).",
    ),
    _s(
        "batch_search",
        begin=("queries",),
        end=("nodes_accessed", "records_found"),
        doc="One shared traversal answering a whole batch of queries.",
    ),
)

#: Event name -> spec.  The tracer and lint rule R1 both consume this.
EVENT_SCHEMA: Mapping[str, EventSpec] = {spec.name: spec for spec in _EVENT_SPECS}

#: Span op -> spec.
SPAN_SCHEMA: Mapping[str, SpanSpec] = {spec.op: spec for spec in _SPAN_SPECS}

#: The declared point-event vocabulary (``span_begin``/``span_end`` are
#: structural record types emitted by the tracer itself, not declarable
#: point events).
EVENT_NAMES: frozenset[str] = frozenset(EVENT_SCHEMA)

#: The declared operation-span vocabulary.
SPAN_OPS: frozenset[str] = frozenset(SPAN_SCHEMA)


def check_event_fields(etype: str, fields: Mapping[str, object]) -> list[str]:
    """Problems (empty when clean) with one point event's field set."""
    spec = EVENT_SCHEMA.get(etype)
    if spec is None:
        return [f"unknown trace event type {etype!r}; known: {sorted(EVENT_NAMES)}"]
    problems = []
    missing = spec.required - fields.keys()
    if missing:
        problems.append(f"{etype}: missing required field(s) {sorted(missing)}")
    extra = fields.keys() - spec.allowed
    if extra:
        problems.append(
            f"{etype}: undeclared field(s) {sorted(extra)}; "
            f"allowed: {sorted(spec.allowed)}"
        )
    return problems


def check_span_fields(
    op: str, fields: Mapping[str, object], *, closing: bool = False
) -> list[str]:
    """Problems (empty when clean) with a span's begin or end field set."""
    spec = SPAN_SCHEMA.get(op)
    if spec is None:
        return [f"unknown span op {op!r}; known: {sorted(SPAN_OPS)}"]
    allowed = spec.end if closing else spec.begin
    extra = fields.keys() - allowed
    if extra:
        where = "span_end" if closing else "span_begin"
        return [
            f"{where}({op}): undeclared field(s) {sorted(extra)}; "
            f"allowed: {sorted(allowed)}"
        ]
    return []
