"""Wire protocol between the shard router and its workers.

Deliberately primitive: a :class:`Request` is an op name, a tuple of
plain-data arguments, and a sequence number; a :class:`Reply` echoes the
sequence number and carries either a value or a serialized error.
Rectangles travel as ``(lows, highs)`` coordinate tuples, never as
:class:`~repro.core.geometry.Rect` objects, so the protocol pickles
cheaply over a :class:`multiprocessing` pipe and has no dependency on
geometry internals staying pickle-stable.

Sequence numbers exist for the timeout path: a client that gave up on a
reply must discard it when it eventually arrives, or the stale value
would be returned for the *next* request on the same pipe.

Worker-side failures cross the wire as ``(error_type, error)`` string
pairs; :func:`reply_error` rebuilds the original exception when
the type names a class in the :mod:`repro.exceptions` hierarchy and
wraps anything else in :class:`~repro.exceptions.ShardError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .. import exceptions as _exceptions
from ..exceptions import ReproError, ShardError

__all__ = [
    "OP_INSERT",
    "OP_DELETE",
    "OP_SEARCH",
    "OP_STAB",
    "OP_WITHIN",
    "OP_CONTAINING",
    "OP_BATCH_SEARCH",
    "OP_EXTRACT",
    "OP_INGEST",
    "OP_SUGGEST_SPLIT",
    "OP_BOUNDS",
    "OP_COUNT",
    "OP_STATS",
    "OP_CONFIGURE",
    "OP_PING",
    "OP_SHUTDOWN",
    "Request",
    "Reply",
    "reply_error",
    "raise_reply_error",
]

OP_INSERT = "insert"
OP_DELETE = "delete"
OP_SEARCH = "search"
OP_STAB = "stab"
OP_WITHIN = "search_within"
OP_CONTAINING = "search_containing"
OP_BATCH_SEARCH = "batch_search"
OP_EXTRACT = "extract"
OP_INGEST = "ingest"
OP_SUGGEST_SPLIT = "suggest_split"
OP_BOUNDS = "bounds"
OP_COUNT = "count"
OP_STATS = "stats"
OP_CONFIGURE = "configure"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class Request:
    """One operation sent router -> worker."""

    op: str
    args: tuple[Any, ...]
    seq: int


@dataclass(frozen=True)
class Reply:
    """One worker -> router response, matched to its request by ``seq``."""

    seq: int
    ok: bool
    value: Any = None
    error_type: str = ""
    error: str = ""


def reply_error(reply: Reply, shard_id: int) -> ReproError:
    """The exception a failed :class:`Reply` stands for, client-side.

    Errors from the repro hierarchy come back as their original class
    (so e.g. a worker-side ``GeometryError`` stays catchable as one);
    everything else — including builtins — is wrapped in
    :class:`ShardError` tagged with the shard id.
    """
    exc_cls = getattr(_exceptions, reply.error_type, None)
    if isinstance(exc_cls, type) and issubclass(exc_cls, ReproError):
        try:
            rebuilt = exc_cls(reply.error)
        except TypeError:
            rebuilt = None
        if isinstance(rebuilt, ReproError):
            return rebuilt
    return ShardError(f"shard {shard_id}: {reply.error_type}: {reply.error}")


def raise_reply_error(reply: Reply, shard_id: int) -> None:
    """Re-raise a failed :class:`Reply` client-side (see :func:`reply_error`)."""
    raise reply_error(reply, shard_id)  # lint: ignore[R3] — rebuilt from the repro hierarchy by name
