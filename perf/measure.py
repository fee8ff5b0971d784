"""Timing loops, failure accounting and the environment stamp.

Every operation runs inside ``try``: a raise is one failed operation with its
exception type tallied, never a crash of the benchmark and never a hang —
thread joins and barriers carry ``WAIT_S`` timeouts.
"""

from __future__ import annotations

import functools
import gc
import itertools
import os
import platform
import random
import resource
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

#: One prepared operation: a bound method of the program under test + its arguments.
Call = tuple[Callable[..., Any], tuple]

#: Upper bound on any wait for another thread; a stuck layer becomes a failed run.
WAIT_S = 60.0

_now = time.perf_counter_ns


# ---------------------------------------------------------------------------
# The speed of the moment
#
# In this sandbox the same instructions take 15-70 % longer for seconds or
# minutes at a time (CPU time grows with wall time and no steal is reported:
# the cycles themselves get slower, some spells hitting computation and some
# the memory system).  Identical 3 s runs of an engine read pass differed by
# 22 % (interquartile) and of an insert batch by 11-28 %, until each was
# divided by the time of two small fixed kernels run right beside it — one
# that stays in cache, one that walks 16 MB at random — which left 4-9 %.  So
# every timed slice is bracketed by ``speed()`` and scaled to the speed at
# which each kernel takes ``REFERENCE_NS``; the raw numbers stay in the run's
# JSON.  The kernels are the benchmark's own code — they touch nothing of
# ``repro``, or a faster ``repro`` would slow the yardstick.
# ---------------------------------------------------------------------------
#: Each kernel's time on this sandbox when nothing disturbs it.
REFERENCE_NS = 1_000_000

_BOXES = tuple(
    tuple(
        (float(17 * i + j), float(13 * j + i), float(17 * i + j + 9), float(13 * j + i + 7), 16 * i + j)
        for j in range(16)
    )
    for i in range(16)
)
_WINDOWS = tuple(
    (float(11 * k), float(7 * k), float(11 * k + 40), float(7 * k + 60)) for k in range(116)
)


@functools.cache
def _scattered() -> list[tuple[float, int]]:
    """150,000 small objects (~16 MB) in shuffled order, built on first use."""
    pool = [(float(i), i) for i in range(150_000)]
    random.Random(0).shuffle(pool)
    return pool


def _compute_kernel() -> int:
    """Box tests over tuples of floats, shaped like a tree search's inner loop."""
    found = 0
    for qlx, qly, qhx, qhy in _WINDOWS:
        hits = []
        for node in _BOXES:
            for lx, ly, hx, hy, rid in node:
                if lx > qhx or hx < qlx or ly > qhy or hy < qly:
                    continue
                hits.append(rid)
        found += len(hits)
    return found


_STRIDE = 19
_turn = itertools.count()


def _memory_kernel() -> float:
    """A strided walk over objects scattered through 16 MB, a different
    nineteenth each call, so that most of what it touches has left the cache."""
    total = 0.0
    for value, _ in _scattered()[next(_turn) % _STRIDE :: _STRIDE]:
        total += value
    return total


def _mean_ns(kernel: Callable[[], Any], runs: int = 4) -> float:
    start = _now()
    for _ in range(runs):
        kernel()
    return (_now() - start) / runs


def speed() -> float:
    """How fast the machine is right now, as a share of the reference speed:
    the geometric mean over the two kernels, each averaged over ~4 ms so that
    it sees the same millisecond-scale bursts a slice of work sees."""
    _scattered()  # built outside the timing, the first time
    return REFERENCE_NS / (_mean_ns(_compute_kernel) * _mean_ns(_memory_kernel)) ** 0.5


class Scaled:
    """Times a slice of work and scales it to the reference speed.

        with Scaled() as slice_:
            wall_ns = run_calls(...)
        wall_ns * slice_.factor   # the slice's time at reference speed
    """

    def __enter__(self) -> "Scaled":
        self._before = speed()
        return self

    def __exit__(self, *exc: object) -> None:
        self.factor = (self._before + speed()) / 2.0


class Tally:
    """Operations attempted and failed; failures keyed by what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self._lock = threading.Lock()

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, what: "BaseException | str", count: int = 1) -> None:
        label = what if isinstance(what, str) else type(what).__name__
        with self._lock:
            self.failed += count
            self.errors[label] += count


def run_calls(
    calls: Sequence[Call],
    tally: Tally,
    latencies: list[int],
    results: "list[Any] | None" = None,
) -> int:
    """Closed loop over ``calls``; returns wall ns.  ``results`` keeps replies."""
    tally.attempt(len(calls))
    start = _now()
    for fn, args in calls:
        t0 = _now()
        try:
            reply = fn(*args)
        except Exception as exc:  # the boundary: a failing layer yields a number
            tally.fail(exc)
            reply = None
        latencies.append(_now() - t0)
        if results is not None:
            results.append(reply)
    return _now() - start


def run_groups(
    groups: Sequence[Sequence[Call]],
    tally: Tally,
    latencies: list[int],
    results: "list[list[Any]] | None" = None,
) -> int:
    """One closed-loop client per group, started together; wall ns of the pass."""
    if len(groups) == 1:
        kept = None if results is None else results[0]
        return run_calls(groups[0], tally, latencies, kept)
    barrier = threading.Barrier(len(groups))
    spans: list[tuple[int, int]] = []
    per_client: list[list[int]] = [[] for _ in groups]

    def client(i: int) -> None:
        barrier.wait(WAIT_S)
        start = _now()
        kept = None if results is None else results[i]
        run_calls(groups[i], tally, per_client[i], kept)
        spans.append((start, _now()))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(groups))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    for lats in per_client:
        latencies.extend(lats)
    if len(spans) != len(groups):
        tally.fail("client_stuck", len(groups) - len(spans))
        return max(1, int(WAIT_S * 1e9))
    return max(end for _, end in spans) - min(start for start, _ in spans)


class PacedWriter(threading.Thread):
    """Commits ``rects`` through ``insert`` on a fixed schedule (the churn)."""

    def __init__(
        self,
        insert: Callable[..., int],
        rects: Iterator[Any],
        rate: float,
        tally: Tally,
        acked: list[tuple[int, Any]],
    ) -> None:
        super().__init__(name="churn-writer")
        self._insert = insert
        self._rects = rects
        self._gap_ns = int(1e9 / rate)
        self._tally = tally
        self._acked = acked
        self._halt = threading.Event()

    def run(self) -> None:
        due = _now()
        for rect in self._rects:
            delay = (due - _now()) / 1e9
            if self._halt.wait(max(0.0, delay)):
                return
            self._tally.attempt()
            try:
                self._acked.append((self._insert(rect), rect))
            except Exception as exc:
                self._tally.fail(exc)
            due += self._gap_ns

    def finish(self) -> None:
        self._halt.set()
        self.join(WAIT_S)
        if self.is_alive():
            self._tally.fail("writer_stuck")


class Schedule:
    """Due times of a fixed-rate arrival process, kept across passes."""

    def __init__(self, rate: float) -> None:
        self.gap_ns = int(1e9 / rate)
        self.due = _now() + self.gap_ns


def run_calls_with_writes(
    calls: Sequence[Call],
    insert: Callable[..., int],
    rects: Iterator[Any],
    schedule: Schedule,
    tally: Tally,
    acked: list[tuple[int, Any]],
) -> int:
    """Closed-loop reads with the client itself committing an insert whenever
    one is due on ``schedule`` — the churn for a structure that is not safe to
    share between threads.  Returns wall ns."""
    tally.attempt(len(calls))
    start = _now()
    for fn, args in calls:
        if _now() >= schedule.due:
            schedule.due += schedule.gap_ns
            tally.attempt()
            try:
                rect = next(rects)
                acked.append((insert(rect), rect))
            except Exception as exc:
                tally.fail(exc)
        try:
            fn(*args)
        except Exception as exc:
            tally.fail(exc)
    return _now() - start


def passes_until(deadline_s: float, at_least: int) -> Iterator[int]:
    """Pass numbers: at least ``at_least``, then more while time remains."""
    end = time.perf_counter() + deadline_s
    done = 0
    while done < at_least or time.perf_counter() < end:
        yield done
        done += 1


def settle() -> None:
    """Collect garbage before a timed phase; the collector stays enabled."""
    gc.collect()


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if len(sorted_values) == 0:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return float(sorted_values[rank])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def rss_self_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> dict[int, float]:
    """``pid`` and its descendants -> peak resident set (``VmHWM``) in MiB."""
    children: dict[int, list[int]] = {}
    peaks: dict[int, float] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue  # the process ended while we were listing
        fields = dict(
            line.split(":", 1) for line in status.splitlines() if ":" in line
        )
        peaks[int(entry.name)] = float(fields.get("VmHWM", "0 kB").split()[0]) / 1024.0
        children.setdefault(int(fields.get("PPid", "0")), []).append(int(entry.name))
    tree: dict[int, float] = {}
    stack = [pid]
    while stack:
        current = stack.pop()
        if current in peaks:
            tree[current] = peaks[current]
        stack.extend(children.get(current, []))
    return tree


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
            best, fstype = parts[1], parts[2]
    return fstype


def environment(work: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "store_filesystem": filesystem_of(work),
        "flush_policy": "fsync per commit group, fsync_delay=0",
    }
