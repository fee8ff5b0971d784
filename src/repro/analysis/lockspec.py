"""Canonical lock hierarchy: the machine-readable latch discipline.

PRs 5 and 7 made the repo concurrent; the discipline they rely on — a
fixed latch order, blocking I/O outside mutexes, log-before-dirty-page —
used to live only in docstrings.  This module is the single source of
truth for that discipline.  Three consumers read it:

* lint rules **R5-R7** (:mod:`repro.analysis.rules`) — static checks over
  ``with``-blocks and acquire/release call sites;
* the runtime lock-graph recorder (:mod:`repro.obs.lockgraph`) — ranks
  recorded acquisition edges and classifies ascents;
* ``DESIGN.md`` — :func:`render_markdown` produces the human-readable
  hierarchy table verbatim (a test keeps the two in sync).

The canonical hierarchy, outermost (acquired first) to innermost::

    router topology latch -> index latch
        -> buffer-pool mutex -> WAL mutex -> disk

Acquiring a level while holding a level *below* it (a larger rank)
**ascends** the hierarchy and is the classic lock-order inversion: two
threads ascending/descending between the same pair of levels can
deadlock.  ``disk`` is a pseudo-level — blocking I/O is "acquired" last,
i.e. never while an exclusive lock is held (rule R6), with the
documented exceptions listed in :data:`IO_UNDER_LOCK_ALLOWLIST`.

The MVCC structures (PR 9) sit deliberately *outside* the hierarchy:
snapshot readers over :class:`~repro.storage.buffer.PageVersionCache`
acquire no level at all (immutable version chains + GIL-atomic dict
reads), and the cache's single-mutator methods (``publish`` / ``trim``)
take no locks of their own — they run under the engine's exclusive
``index`` latch, which :data:`HELD_BY_CONVENTION` records so the static
walker checks anything they might acquire against the ``index`` rank.

The shard router (PR 10) adds one level *above* everything: its
topology latch is held (shared) for the duration of every routed
operation, and the workers it dispatches to acquire their own engine
and storage locks in fresh threads or processes — so ``router`` is
rank 0 and nothing a worker does can ascend back into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "LockLevel",
    "LOCK_HIERARCHY",
    "LEVELS_BY_NAME",
    "rank_of",
    "level_for_attr",
    "IMPLEMENTATION_FILES",
    "IO_CALL_NAMES",
    "IO_MODULE_CALLS",
    "IO_UNDER_LOCK_ALLOWLIST",
    "HELD_BY_CONVENTION",
    "render_markdown",
]


@dataclass(frozen=True)
class LockLevel:
    """One level of the canonical hierarchy.

    ``rank`` orders acquisition: a thread may only acquire levels whose
    rank is **greater** than everything it already holds.  ``attrs`` are
    the attribute names whose acquisition (``with self.<attr>:`` or
    ``self.<attr>.acquire*``) the static rules resolve to this level.
    """

    name: str
    rank: int
    description: str
    where: str
    #: Lock-object attribute names resolving to this level (static rules).
    attrs: tuple[str, ...] = ()
    #: An exclusive lock: blocking I/O while holding it violates R6.
    exclusive: bool = True


LOCK_HIERARCHY: tuple[LockLevel, ...] = (
    LockLevel(
        name="router",
        rank=0,
        description=(
            "Shard-router topology latch: every routed operation holds "
            "it shared; rebalances (split_shard) hold it exclusively to "
            "swap the partitioner, client table and rid ownership "
            "atomically.  Outermost by construction — a routed op "
            "acquires engine/storage locks only *inside* the worker it "
            "was dispatched to, never the reverse."
        ),
        where="sharding/router.py (`ShardRouter._topology_latch`)",
        attrs=("_topology_latch",),
        exclusive=False,  # shared on the serving paths; exclusive only to rebalance
    ),
    LockLevel(
        name="index",
        rank=1,
        description=(
            "Engine-wide reader-writer latch: writers exclusive, "
            "readers shared for their whole traversal.  MVCC snapshot "
            "readers bypass "
            "every level: they pin a commit epoch in the version cache "
            "and never latch; the cache's mutators (publish/GC) run "
            "under this latch held exclusively."
        ),
        where="concurrency/engine.py (`ConcurrentIndex._index_latch`)",
        attrs=("_index_latch",),
        exclusive=False,  # shared in read mode; R6 keys off the acquire mode
    ),
    LockLevel(
        name="buffer",
        rank=2,
        description=(
            "Buffer-pool mutex (one lock + condition variable guarding "
            "frames, LRU order, the in-flight table).  Disk reads happen "
            "outside it; dirty-victim writebacks are the documented "
            "exception."
        ),
        where="storage/buffer.py (`BufferPool._cond`) and "
        "storage/pager.py (`StorageManager._page_lock`)",
        attrs=("_lock", "_cond", "_page_lock", "_op_lock"),
    ),
    LockLevel(
        name="wal",
        rank=3,
        description=(
            "Write-ahead-log commit mutex (group-commit condition "
            "variable).  Appends serialize under it; the group-commit "
            "fsync runs outside it."
        ),
        where="storage/wal.py (`WriteAheadLog._cv`)",
        attrs=("_cv",),
    ),
    LockLevel(
        name="disk",
        rank=4,
        description=(
            "Blocking I/O pseudo-level: page reads/writes, fsync, "
            "simulated latency sleeps.  Always last — never under an "
            "exclusive lock (rule R6) outside the documented allowlist.  "
            "Its one real lock is the file store's handle mutex, which "
            "makes each seek + read/write pair atomic and is held for "
            "nothing else."
        ),
        where="storage/disk.py, storage/filedisk.py (`FileDisk._io_lock`), "
        "os.fsync, time.sleep",
        attrs=("_io_lock",),
        exclusive=False,
    ),
)

LEVELS_BY_NAME: Mapping[str, LockLevel] = {lv.name: lv for lv in LOCK_HIERARCHY}

_ATTR_TO_LEVEL: Mapping[str, str] = {
    attr: lv.name for lv in LOCK_HIERARCHY for attr in lv.attrs
}


def rank_of(level: str) -> int:
    """The hierarchy rank of a level name (unknown names rank last, so
    they never produce spurious ascent findings)."""
    spec = LEVELS_BY_NAME.get(level)
    return spec.rank if spec is not None else len(LOCK_HIERARCHY)


def level_for_attr(attr: str) -> "str | None":
    """Resolve a lock-object attribute name to its hierarchy level."""
    return _ATTR_TO_LEVEL.get(attr)


#: Files that *implement* the locking primitives; the lock rules skip
#: them the way R2 skips ``core/floatcmp.py`` — an RWLatch's internal
#: condition variable is the latch, not a buffer-pool mutex.
IMPLEMENTATION_FILES: frozenset[str] = frozenset({"concurrency/latch.py"})


#: Method names whose call is blocking I/O (rule R6): the simulated-disk
#: API plus the repo's fsync wrapper.  Deliberately narrow — generic
#: ``.write()``/``.flush()`` on a buffered file is not *blocking* I/O.
IO_CALL_NAMES: frozenset[str] = frozenset(
    {"read_page", "write_page", "sync", "_fsync_file"}
)

#: ``module.function`` call pairs that are blocking I/O.
IO_MODULE_CALLS: frozenset[tuple[str, str]] = frozenset(
    {("os", "fsync"), ("os", "replace"), ("time", "sleep")}
)

#: Documented exceptions to R6 (*no blocking I/O under a mutex*), keyed
#: by ``(package-relative path, function name)``.  Each entry must carry
#: its justification — the allowlist is audited, not a dumping ground.
IO_UNDER_LOCK_ALLOWLIST: Mapping[tuple[str, str], str] = {
    ("storage/buffer.py", "_make_room"): (
        "dirty-victim writeback under the pool mutex keeps the 'page is "
        "on disk or resident-dirty' invariant trivially crash-safe "
        "(PR 2); evictions are rare on the read paths the pool serves"
    ),
    ("storage/buffer.py", "flush"): (
        "checkpoint-time writeback of every dirty page; runs quiesced "
        "(checkpoints exclude concurrent writers by contract)"
    ),
    ("storage/wal.py", "_maybe_roll_locked"): (
        "segment-roll fsync under the WAL mutex; rolls are rare (soft "
        "segment bound) and deferred while a group-commit flusher is "
        "active, so no committer ever waits behind one"
    ),
    ("storage/wal.py", "close"): (
        "final fsync at shutdown; close() runs quiesced by contract "
        "(no concurrent appenders or committers)"
    ),
}

#: Functions documented to run with a level already held by their caller
#: (``callers hold self._lock`` docstrings).  The held-region walker
#: seeds these so lexical analysis sees through the convention.
HELD_BY_CONVENTION: Mapping[tuple[str, str], tuple[str, ...]] = {
    ("storage/buffer.py", "_make_room"): ("buffer",),
    ("storage/wal.py", "_maybe_roll_locked"): ("wal",),
    ("storage/wal.py", "_encode_page_locked"): ("wal",),
    # PageVersionCache single-mutator contract: publish and the GC
    # run under the engine's exclusive index latch, so any lock they
    # ever grow must descend from the top of the hierarchy.  The
    # latch-free read side (pin/unpin/read) is deliberately absent:
    # it holds nothing.
    ("storage/buffer.py", "publish"): ("index",),
    ("storage/buffer.py", "trim"): ("index",),
    ("storage/buffer.py", "_begin_gc"): ("index",),
}


def render_markdown() -> str:
    """The hierarchy as a Markdown table (pasted verbatim into DESIGN.md;
    ``tests/test_analysis_lint.py`` asserts the two stay identical)."""
    lines = [
        "| rank | level | lives in | discipline |",
        "|------|-------|----------|------------|",
    ]
    for lv in LOCK_HIERARCHY:
        lines.append(
            f"| {lv.rank} | `{lv.name}` | {lv.where} | {lv.description} |"
        )
    return "\n".join(lines)
