"""Runtime lock-order recorder: Eraser-style acquisition-graph capture.

This module is the gate of the latch discipline: it watches what
actually happens.  When a recorder is installed, the instrumented
primitives — :class:`~repro.concurrency.latch.RWLatch`, the buffer-pool
mutex, the storage manager's page-table lock and the WAL commit lock
(the last three via :class:`TrackedCondition`) — report every
acquisition attempt, grant, release, and condition-variable wait.  The
recorder keeps a per-thread stack of held locks and, at each *attempt*,
adds one edge per held lock to a global lock-acquisition graph
(recording at attempt time rather than grant time means a real
deadlock — which never gets granted — is still captured).

After a workload runs, :meth:`LockOrderRecorder.report` classifies:

* **ascending edges** — a held lock deeper in the canonical hierarchy
  (:mod:`repro.analysis.lockspec`) than the one being acquired;
* **cycles** — strongly connected components of the instance graph
  (two threads taking the same pair of locks in opposite orders);
* **held-while-blocking** — CV waits entered while other exclusive
  locks are held; *risky* when a held lock ranks at or below the CV's
  level (the wakeup it needs may itself need that lock);
* **undeclared levels** — a recorded lock whose level the hierarchy does
  not declare fails the report: it ranks last, so it could never ascend;
* **unreleased holds** — a lock still on some thread's held stack when
  the report is taken (a missing release, or a thread that exited
  holding it) fails the report.

Same-instance re-entry records nothing (re-entrant acquisition cannot
deadlock); every other attempt under a held lock is an edge.

Overhead when **no** recorder is installed is one module-global load and
a ``None`` check per lock operation — a ``with`` on a
:class:`TrackedCondition` then costs what it does on a plain
``threading.Condition``; ``repro racecheck`` measures the installed-path
overhead explicitly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..analysis import lockspec

__all__ = [
    "LockOrderRecorder",
    "TrackedCondition",
    "active_recorder",
    "install",
    "uninstall",
    "recording",
]

#: The installed recorder, or None.  Module-global on purpose: the
#: instrumentation hot path is `lockgraph._ACTIVE is None` — one dict
#: lookup and a comparison when recording is off.
_ACTIVE: Optional["LockOrderRecorder"] = None


def active_recorder() -> Optional["LockOrderRecorder"]:
    """The currently installed recorder, if any."""
    return _ACTIVE


def install(recorder: "LockOrderRecorder") -> None:
    global _ACTIVE
    _ACTIVE = recorder


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def recording(recorder: "LockOrderRecorder | None" = None) -> Iterator["LockOrderRecorder"]:
    """Install a recorder for the duration of a with-block."""
    rec = recorder if recorder is not None else LockOrderRecorder()
    install(rec)
    try:
        yield rec
    finally:
        uninstall()


class _Held:
    """One entry of a thread's held-lock stack."""

    __slots__ = ("key", "level", "mode", "obj_id")

    def __init__(self, key: str, level: str, mode: str, obj_id: int) -> None:
        self.key = key
        self.level = level
        self.mode = mode
        self.obj_id = obj_id


class LockOrderRecorder:
    """Global lock-acquisition graph fed by per-thread held stacks.

    Graph nodes are lock *instances* (labelled ``level#N``), not levels:
    two same-level mutexes acquired in a fixed order are fine, and only
    instance granularity can tell that apart from a genuine AB/BA
    inversion.  Ascent classification still happens on hierarchy ranks.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._tls = threading.local()
        #: (thread name, held stack) for every thread that took a lock: a
        #: dead thread's ``threading.local`` is dropped, and what it still
        #: held is exactly what the report must show.
        self._stacks: list[tuple[str, list[_Held]]] = []
        #: id(obj) -> stable display key "level#N".
        self._keys: dict[int, str] = {}
        self._key_levels: dict[str, str] = {}
        self._seq = 0
        #: (src_key, dst_key) -> edge info dict.
        self._edges: dict[tuple[str, str], dict] = {}
        #: (waiting_key, held_keys) -> wait info dict.
        self._waits: dict[tuple[str, tuple[str, ...]], dict] = {}
        self.acquisitions = 0
        self.attempts_with_held = 0

    # ------------------------------------------------------------------
    # Instrumentation callbacks (hot path)
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Held]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
            with self._mutex:
                self._stacks.append((threading.current_thread().name, stack))
        return stack

    def _key_for(self, level: str, obj_id: int) -> str:
        key = self._keys.get(obj_id)
        if key is None:
            self._seq += 1
            key = f"{level}#{self._seq}"
            self._keys[obj_id] = key
            self._key_levels[key] = level
        return key

    def record_attempt(self, level: str, mode: str, obj: object) -> None:
        """Called *before* a lock operation may block."""
        stack = self._stack()
        if not stack:
            return
        obj_id = id(obj)
        if any(held.obj_id == obj_id for held in stack):
            return  # re-entrant: cannot deadlock, records no edges
        with self._mutex:
            self.attempts_with_held += 1
            dst = self._key_for(level, obj_id)
            for held in stack:
                edge = self._edges.get((held.key, dst))
                if edge is None:
                    self._edges[(held.key, dst)] = {
                        "src_level": held.level,
                        "dst_level": level,
                        "src_mode": held.mode,
                        "dst_mode": mode,
                        "count": 1,
                        "ascending": lockspec.rank_of(held.level)
                        > lockspec.rank_of(level),
                    }
                else:
                    edge["count"] += 1

    def record_acquired(self, level: str, mode: str, obj: object) -> None:
        obj_id = id(obj)
        with self._mutex:
            self.acquisitions += 1
            key = self._key_for(level, obj_id)
        self._stack().append(_Held(key, level, mode, obj_id))

    def record_release(self, level: str, obj: object) -> None:
        stack = self._stack()
        obj_id = id(obj)
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].obj_id == obj_id:
                del stack[i]
                return

    def record_cv_wait(self, level: str, obj: object) -> None:
        """A condition-variable wait is starting on ``obj``'s lock.

        ``wait`` releases the CV's own lock, so the interesting holds are
        the *other* exclusive locks this thread keeps across the block.
        """
        obj_id = id(obj)
        others = [
            held
            for held in self._stack()
            if held.obj_id != obj_id and held.mode != "read"
        ]
        if not others:
            return
        wait_rank = lockspec.rank_of(level)
        with self._mutex:
            waiting_key = self._key_for(level, obj_id)
            held_keys = tuple(held.key for held in others)
            entry = self._waits.get((waiting_key, held_keys))
            if entry is None:
                self._waits[(waiting_key, held_keys)] = {
                    "count": 1,
                    # A wakeup normally comes from a thread that takes the
                    # CV's lock last; if we hold something it would need
                    # at or below the CV's rank, it may never get there.
                    "risky": any(
                        lockspec.rank_of(held.level) >= wait_rank
                        for held in others
                    ),
                }
            else:
                entry["count"] += 1

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _cycles(self) -> list[list[str]]:
        """Strongly connected components with more than one instance
        (iterative Tarjan; same-instance self-edges are never recorded)."""
        graph: dict[str, list[str]] = {}
        for (src, dst) in self._edges:
            graph.setdefault(src, []).append(dst)
            graph.setdefault(dst, [])
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        sccs: list[list[str]] = []

        for root in sorted(graph):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, child_i = work[-1]
                if child_i == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                children = graph[node]
                for i in range(child_i, len(children)):
                    child = children[i]
                    if child not in index:
                        work[-1] = (node, i + 1)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1:
                        sccs.append(sorted(scc))
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def report(self) -> dict:
        """A JSON-ready summary: edges, ascents, cycles, risky waits and
        holds not yet released."""
        with self._mutex:
            edges = [
                {"src": src, "dst": dst, **info}
                for (src, dst), info in sorted(self._edges.items())
            ]
            waits = [
                {
                    "waiting_on": waiting,
                    "held": list(held),
                    **info,
                }
                for (waiting, held), info in sorted(self._waits.items())
            ]
            cycles = self._cycles()
            acquisitions = self.acquisitions
            attempts = self.attempts_with_held
            locks = dict(sorted(self._key_levels.items()))
            unreleased = [
                {"thread": thread, "lock": held.key, "mode": held.mode}
                for thread, stack in self._stacks
                for held in list(stack)
            ]
        ascending = [e for e in edges if e["ascending"]]
        risky_waits = [w for w in waits if w["risky"]]
        # An undeclared level ranks last and can never ascend, so it would
        # pass the hierarchy check by being invisible to it.
        declared = {level.name for level in lockspec.LOCK_HIERARCHY}
        undeclared = sorted(set(locks.values()) - declared)
        return {
            "ok": not ascending and not cycles and not undeclared and not unreleased,
            "locks": locks,
            "undeclared_levels": undeclared,
            "unreleased": unreleased,
            "acquisitions": acquisitions,
            "attempts_with_held": attempts,
            "edges": edges,
            "ascending_edges": ascending,
            "cycles": cycles,
            "held_while_blocking": waits,
            "risky_waits": risky_waits,
        }


class TrackedCondition(threading.Condition):
    """A ``threading.Condition`` that reports to the installed recorder.

    Doubles as the mutex itself (``with cond:`` takes the underlying
    lock), which is exactly how the buffer pool and WAL use their
    condition variables — so one wrapper instruments both the mutex and
    the CV-wait behaviour.
    """

    def __init__(self, level: str, lock: Any = None) -> None:
        super().__init__(lock)
        self._lockgraph_level = level

    # One frame each way, straight onto the underlying lock: no
    # ``super()`` hop through ``Condition.__enter__`` / ``__exit__``.
    def __enter__(self) -> bool:
        rec = _ACTIVE
        if rec is None:
            return self._lock.__enter__()
        rec.record_attempt(self._lockgraph_level, "exclusive", self)
        result = self._lock.__enter__()
        rec.record_acquired(self._lockgraph_level, "exclusive", self)
        return result

    def __exit__(self, *exc: Any) -> Any:
        rec = _ACTIVE
        if rec is not None:
            rec.record_release(self._lockgraph_level, self)
        return self._lock.__exit__(*exc)

    def wait(self, timeout: "float | None" = None) -> bool:
        rec = _ACTIVE
        if rec is not None:
            rec.record_cv_wait(self._lockgraph_level, self)
        return super().wait(timeout)
