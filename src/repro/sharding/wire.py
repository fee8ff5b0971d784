"""Wire protocol between the shard router and its workers.

Deliberately primitive: a :class:`Request` is an op name, a tuple of
plain-data arguments, and a sequence number; a :class:`Reply` echoes the
sequence number and carries either a value or a serialized error.
Rectangles travel as ``(lows, highs)`` coordinate tuples, never as
:class:`~repro.core.geometry.Rect` objects, so nothing on the wire
depends on geometry internals staying pickle-stable.  On a process
shard's pipe each message is one frame, its plain tuple pickled by
:func:`encode` and named again by :func:`decode`: no ``ForkingPickler``
per message and no class to pickle, as ``Connection.send`` would.

Sequence numbers exist for the timeout path: a client that gave up on a
reply must discard it when it eventually arrives, or the stale value
would be returned for the *next* request on the same pipe.

Worker-side failures cross the wire as ``(error_type, error)`` string
pairs; :func:`reply_error` rebuilds the original exception when
the type names a class in the :mod:`repro.exceptions` hierarchy and
wraps anything else in :class:`~repro.exceptions.ShardError`.
"""

from __future__ import annotations

import pickle
from typing import Any, NamedTuple, TypeVar

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
    "OP_COUNT",
    "OP_STATS",
    "OP_CONFIGURE",
    "OP_PING",
    "OP_SHUTDOWN",
    "Request",
    "Reply",
    "encode",
    "decode",
    "reply_error",
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
OP_COUNT = "count"
OP_STATS = "stats"
OP_CONFIGURE = "configure"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"


class Request(NamedTuple):
    """One operation sent router -> worker."""

    op: str
    args: tuple[Any, ...]
    seq: int


class Reply(NamedTuple):
    """One worker -> router response, matched to its request by ``seq``."""

    seq: int
    ok: bool
    value: Any = None
    error_type: str = ""
    error: str = ""


_Message = TypeVar("_Message", Request, Reply)


def encode(message: "Request | Reply") -> bytes:
    """One pipe frame: the message's plain tuple, pickled."""
    return pickle.dumps(tuple(message), pickle.HIGHEST_PROTOCOL)


def decode(kind: type[_Message], frame: bytes) -> _Message:
    return kind._make(pickle.loads(frame))


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

