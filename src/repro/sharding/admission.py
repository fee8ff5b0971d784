"""Per-shard admission control: bounded in-flight work, shed-and-retry.

Each shard gets a bounded in-flight counter on the *router* side.  An
operation must acquire a slot before its RPC is sent; a full shard sheds
the attempt, the router backs off (exponentially, starting at
``backoff_s``) and retries up to ``max_retries`` times, and only then
fails the operation with :class:`~repro.exceptions.ShardOverloadError`.
Shedding at the router keeps the overload signal *in front of* the pipe:
a saturated worker never accumulates an unbounded request backlog whose
latency the client has already charged itself for.

The controller is deliberately memoryless — no queue, just a counter —
so releasing a slot never requires waking a specific waiter and the hot
path is one small critical section.
"""

from __future__ import annotations

import threading
import time

from ..exceptions import ConfigError, ShardOverloadError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded per-shard in-flight slots with counters for the report."""

    def __init__(
        self,
        max_in_flight: int = 64,
        max_retries: int = 3,
        backoff_s: float = 0.0005,
    ) -> None:
        if max_in_flight < 1:
            raise ConfigError("max_in_flight must be positive")
        if max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if backoff_s < 0:
            raise ConfigError("backoff_s must be non-negative")
        self.max_in_flight = max_in_flight
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._gate = threading.Lock()
        self._in_flight: dict[int, int] = {}
        self._admitted: dict[int, int] = {}
        self._shed: dict[int, int] = {}
        self._retried: dict[int, int] = {}

    def try_acquire(self, shard_id: int) -> bool:
        """One attempt at a slot; never blocks."""
        with self._gate:
            if self._in_flight.get(shard_id, 0) >= self.max_in_flight:
                self._shed[shard_id] = self._shed.get(shard_id, 0) + 1
                return False
            self._in_flight[shard_id] = self._in_flight.get(shard_id, 0) + 1
            self._admitted[shard_id] = self._admitted.get(shard_id, 0) + 1
            return True

    def backoff(self, shard_id: int, retries: int) -> float:
        """The pause before retry ``retries + 1``: the one back-off schedule,
        which a thread sleeps (:meth:`acquire`) and an event loop awaits.
        Raises :class:`~repro.exceptions.ShardOverloadError` once the retry
        budget is spent — the caller translates that into load-shedding,
        not into a partial result."""
        if retries < self.max_retries:
            return self.backoff_s * (1 << retries)
        with self._gate:
            self._retried[shard_id] = (
                self._retried.get(shard_id, 0) + self.max_retries
            )
        raise ShardOverloadError(
            f"shard {shard_id}: {self.max_in_flight} ops in flight after "
            f"{self.max_retries} retries",
            shard_id,
        )

    def acquire(self, shard_id: int) -> int:
        """Acquire a slot, sleeping the back-off between attempts; returns
        the number of retries it took.  Blocks: never call it on an event
        loop."""
        retries = 0
        while not self.try_acquire(shard_id):
            time.sleep(self.backoff(shard_id, retries))
            retries += 1
        return retries

    def release(self, shard_id: int) -> None:
        with self._gate:
            current = self._in_flight.get(shard_id, 0)
            if current > 0:
                self._in_flight[shard_id] = current - 1

    def in_flight(self, shard_id: int) -> int:
        with self._gate:
            return self._in_flight.get(shard_id, 0)

    def snapshot(self) -> dict:
        """JSON-ready counters for bench reports and ``stats`` output."""
        with self._gate:
            shard_ids = sorted(
                set(self._admitted) | set(self._shed) | set(self._retried)
            )
            return {
                "max_in_flight": self.max_in_flight,
                "max_retries": self.max_retries,
                "admitted": sum(self._admitted.values()),
                "shed": sum(self._shed.values()),
                "per_shard": {
                    sid: {
                        "admitted": self._admitted.get(sid, 0),
                        "shed": self._shed.get(sid, 0),
                    }
                    for sid in shard_ids
                },
            }

