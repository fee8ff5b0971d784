"""Exception hierarchy for the repro package.

Library code under ``src/repro`` only raises exceptions from this
hierarchy (enforced statically by lint rule R3).  Classes that replaced
historical builtin raises inherit from *both* :class:`ReproError` and the
builtin they replaced (``ValueError``/``KeyError``), so callers that
caught the builtin keep working while ``except ReproError`` now catches
everything the library signals.
"""

__all__ = [
    "ReproError",
    "ConfigError",
    "GeometryError",
    "NotFoundError",
    "InputFormatError",
    "TraceSchemaError",
    "IndexStructureError",
    "CapacityError",
    "StorageError",
    "PageCorruptionError",
    "TransientDiskError",
    "SimulatedCrashError",
    "TornWalAppend",
    "WorkloadError",
    "ConcurrencyError",
    "ShardError",
    "ShardTimeoutError",
    "ShardOverloadError",
]


class ReproError(Exception):
    """Base class for all repro-specific errors."""


class ConfigError(ReproError, ValueError):
    """A parameter or configuration value is invalid.

    Also a ``ValueError`` for backward compatibility with callers that
    predate the unified hierarchy.
    """


class GeometryError(ConfigError):
    """Raised for malformed geometric arguments (e.g. inverted bounds)."""


class NotFoundError(ReproError, KeyError):
    """A lookup by id (record, child, level) found nothing.

    Also a ``KeyError`` for backward compatibility.
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument; keep plain messages.
        return Exception.__str__(self)


class InputFormatError(ReproError, ValueError):
    """External input (CSV rows, report documents) failed validation."""


class TraceSchemaError(ConfigError):
    """A trace emission violated the declared event schema (obs.events)."""


class IndexStructureError(ReproError):
    """An index structural invariant was violated (see core.validation)."""


class CapacityError(ReproError):
    """A node or page was asked to hold more than it can."""


class StorageError(ReproError):
    """A simulated-storage operation failed (bad page id, size mismatch...)."""


class PageCorruptionError(StorageError):
    """A page image failed its integrity check (bad magic or CRC mismatch).

    Raised instead of silently deserializing garbage; carries the page id
    when the caller knows it.
    """

    def __init__(self, message: str, page_id: int | None = None):
        super().__init__(message)
        self.page_id = page_id


class TransientDiskError(StorageError):
    """A disk operation failed in a way that may succeed on retry.

    The storage manager retries these with bounded exponential backoff;
    anything else propagates immediately.
    """


class SimulatedCrashError(StorageError):
    """An injected crash point fired: the simulated process died here.

    After this is raised the faulty disk refuses all further operations,
    mirroring a real crash — recovery happens by reopening the store.
    """


class TornWalAppend(SimulatedCrashError):
    """Power loss mid-append to the write-ahead log.

    Only ``prefix`` bytes of the frame batch reached the device before
    the simulated process died; the WAL persists exactly that prefix, so
    replay stops at the torn frame and loses only the unacknowledged
    transaction.  Raised by ``FaultInjectingDisk.wal_fault`` and handled
    inside ``WriteAheadLog.log_commit``.
    """

    def __init__(self, prefix: bytes = b"") -> None:
        super().__init__(f"torn WAL append after {len(prefix)} bytes")
        self.prefix = prefix


class WorkloadError(ReproError, ValueError):
    """A workload generator received inconsistent parameters.

    Also a ``ValueError``, like :class:`ConfigError`: the CLI turns either
    into a one-line exit message."""


class ConcurrencyError(ReproError):
    """A latch protocol violation (unbalanced release, timed-out wait)."""


class ShardError(ReproError):
    """A sharded-serving operation failed (routing, wire, or worker side).

    When a shard worker's operation raises an exception that is not part
    of this hierarchy, the wire layer re-raises it client-side as a
    ``ShardError`` carrying the original type name and message.
    """


class ShardTimeoutError(ShardError):
    """A scatter-gather waited past its deadline on at least one shard.

    Raised *instead of* returning partial results: a gather that
    silently dropped a timed-out shard's matches would be
    indistinguishable from an empty shard.  Carries the shard ids that
    missed the deadline.
    """

    def __init__(self, message: str, shard_ids: tuple[int, ...] = ()):
        super().__init__(message)
        self.shard_ids = shard_ids


class ShardOverloadError(ShardError):
    """Admission control shed an operation after exhausting its retries.

    The shard's bounded in-flight queue stayed full through every
    backoff attempt; the caller should treat this as load-shedding
    (retry later), not as a data error.
    """

    def __init__(self, message: str, shard_id: int = -1):
        super().__init__(message)
        self.shard_id = shard_id
