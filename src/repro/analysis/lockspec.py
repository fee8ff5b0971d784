"""Canonical lock hierarchy: the one declared table of the latch discipline.

Two consumers read it:

* the runtime lock-order recorder (:mod:`repro.obs.lockgraph`), which
  ranks every recorded acquisition edge, fails on ascents and on locks
  of a level this table does not declare, and which ``repro racecheck``
  and the stress tests run under;
* ``DESIGN.md`` §6.1 — :func:`render_markdown` produces the table
  verbatim (a test keeps the two in sync).

Lint rule R6 (:mod:`repro.analysis.rules.io_under_lock`) resolves lock
attribute names to levels through :func:`level_for_attr`; its I/O names
and allowlist live in that module.

The canonical hierarchy, outermost (acquired first) to innermost::

    router topology latch -> index latch
        -> buffer-pool mutex -> WAL mutex -> disk

Acquiring a level while holding a level *below* it (a larger rank)
**ascends** the hierarchy and is the classic lock-order inversion: two
threads ascending/descending between the same pair of levels can
deadlock.  ``disk`` is a pseudo-level — blocking I/O is "acquired" last.

The MVCC structures sit deliberately *outside* the hierarchy: snapshot
readers over :class:`~repro.storage.buffer.PageVersionCache` acquire no
level at all (immutable version chains + GIL-atomic dict reads), and the
cache's single-mutator methods take no locks of their own — they run
under the engine's exclusive ``index`` latch.

The shard router adds one level *above* everything: its topology latch
is held (shared) for the duration of every routed operation, and the
workers it dispatches to acquire their own engine and storage locks in
fresh threads or processes — so ``router`` is rank 0 and nothing a
worker does can ascend back into it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LockLevel",
    "LOCK_HIERARCHY",
    "rank_of",
    "level_for_attr",
    "render_markdown",
]


@dataclass(frozen=True)
class LockLevel:
    """One level of the canonical hierarchy; its rank is its position in
    :data:`LOCK_HIERARCHY`.  A thread may only acquire levels whose rank
    is **greater** than everything it already holds.  ``attrs`` are the
    attribute names whose acquisition (``with self.<attr>:`` or
    ``self.<attr>.acquire*``) rule R6 resolves to this level.
    """

    name: str
    description: str
    where: str
    attrs: tuple[str, ...] = ()


LOCK_HIERARCHY: tuple[LockLevel, ...] = (
    LockLevel(
        name="router",
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
    ),
    LockLevel(
        name="index",
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
    ),
    LockLevel(
        name="buffer",
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
        description=(
            "Blocking I/O pseudo-level: page reads/writes, fsync, "
            "simulated latency sleeps.  Always last — never under an "
            "exclusive lock (rule R6) outside the documented allowlist.  "
            "Its one real lock is the file store's handle mutex, which "
            "makes each seek + write pair atomic, and the flush a read "
            "makes of bytes a write left buffered; reads are positional "
            "and take it for nothing else."
        ),
        where="storage/disk.py, storage/filedisk.py (`FileDisk._io_lock`), "
        "os.fsync, time.sleep",
        attrs=("_io_lock",),
    ),
)

_RANKS: dict[str, int] = {lv.name: rank for rank, lv in enumerate(LOCK_HIERARCHY)}

_ATTR_TO_LEVEL: dict[str, str] = {
    attr: lv.name for lv in LOCK_HIERARCHY for attr in lv.attrs
}


def rank_of(level: str) -> int:
    """The hierarchy rank of a level name (unknown names rank last, so
    they never produce spurious ascent findings)."""
    return _RANKS.get(level, len(LOCK_HIERARCHY))


def level_for_attr(attr: str) -> "str | None":
    """Resolve a lock-object attribute name to its hierarchy level."""
    return _ATTR_TO_LEVEL.get(attr)


def render_markdown() -> str:
    """The hierarchy as a Markdown table (pasted verbatim into DESIGN.md;
    ``tests/test_analysis_lint.py`` asserts the two stay identical)."""
    lines = [
        "| rank | level | lives in | discipline |",
        "|------|-------|----------|------------|",
    ]
    for rank, lv in enumerate(LOCK_HIERARCHY):
        lines.append(f"| {rank} | `{lv.name}` | {lv.where} | {lv.description} |")
    return "\n".join(lines)
