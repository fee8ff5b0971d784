"""Trace sinks: where :class:`~repro.obs.tracer.Tracer` events go.

Two sinks cover the observability use cases:

* :class:`RingBufferSink` — keeps the last N events in memory, for
  per-query capture and tests;
* :class:`JsonlSink` — streams one JSON object per line to a file, the
  machine-readable trace format consumed by ``repro stats`` and external
  tooling.

:class:`TeeSink` fans one event stream out to several sinks (e.g. ring
buffer for assertions plus JSONL for the artifact).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .tracer import TraceEvent

__all__ = ["Sink", "RingBufferSink", "JsonlSink", "TeeSink"]


class Sink(Protocol):
    """What a tracer needs from a sink: ``write`` one event, ``close``."""

    def write(self, event: "TraceEvent") -> None: ...

    def close(self) -> None: ...


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        self._buffer: deque["TraceEvent"] = deque(maxlen=capacity)

    def write(self, event: "TraceEvent") -> None:
        self._buffer.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator["TraceEvent"]:
        return iter(self._buffer)

    @property
    def events(self) -> list["TraceEvent"]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()


class JsonlSink:
    """Writes one JSON object per event line (JSON Lines format).

    Accepts a path (opened and owned by the sink) or an already-open
    text stream (left open on :meth:`close`).  Usable as a context
    manager.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self.path: Path | None = Path(target)
            self._fh: IO[str] = self.path.open("w")
            self._owns = True
        else:
            self.path = None
            self._fh = target
            self._owns = False
        self.events_written = 0

    def write(self, event: "TraceEvent") -> None:
        self._fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns and not self._fh.closed:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class TeeSink:
    """Duplicates every event to each of the given sinks."""

    def __init__(self, *sinks: Sink) -> None:
        self.sinks: tuple[Sink, ...] = tuple(sinks)

    def write(self, event: "TraceEvent") -> None:
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_jsonl(path: str | Path) -> Iterable[dict]:
    """Parse a JSONL trace file back into event dicts."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
