"""R6 — no blocking I/O inside a held-mutex region.

A mutex held across a disk read, fsync, or sleep convoys every other
thread that needs the lock behind the device: the buffer pool's whole
design (release the mutex, fault the page, re-validate under the mutex)
exists to avoid exactly this.  The rule flags calls to the simulated-disk
API (``read_page``/``write_page``/``sync``), ``os.fsync``,
``os.replace``, and ``time.sleep`` that sit lexically inside a region
holding an *exclusive* lock — a plain mutex, or a latch acquired in
write mode.  Shared (read-mode) latches are fine: readers fault pages
under the shared index latch by design.

The walk is lexical, one function at a time.  A ``with``-block over a
lock attribute (resolved to its level by
:func:`repro.analysis.lockspec.level_for_attr`) holds for its body,
exclusively unless it is a latch's ``.read()`` guard; a bare
``acquire*`` call holds for the rest of its block, or until a
``release*`` call on a lock of the same level.  A function documented
to run with a lock its caller holds (:data:`HELD_BY_CONVENTION`)
starts with it held.

At runtime, I/O under a lock happens on every commit (the index latch
is held across the WAL append), so the runtime lock recorder cannot
take over this rule: only the static walk can tell the audited
exceptions in :data:`IO_UNDER_LOCK_ALLOWLIST` from a new one.  Each
entry is keyed by ``(file, function)`` and carries its justification;
anything not on that list is a finding, not a judgement call.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from .. import lockspec
from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register

__all__ = [
    "IoUnderLockRule",
    "IO_CALL_NAMES",
    "IO_MODULE_CALLS",
    "IO_UNDER_LOCK_ALLOWLIST",
    "HELD_BY_CONVENTION",
]

#: Package-relative directories where the rule applies.
SCOPES = ("concurrency/", "storage/", "sharding/", "rules/")

#: Files that *implement* the locking primitives: an RWLatch's internal
#: condition variable is the latch, not a buffer-pool mutex.
IMPLEMENTATION_FILES = frozenset({"concurrency/latch.py"})

#: Method names whose call is blocking I/O: the simulated-disk API plus
#: the repo's fsync wrapper.  Deliberately narrow — generic
#: ``.write()``/``.flush()`` on a buffered file is not *blocking* I/O.
IO_CALL_NAMES = frozenset({"read_page", "write_page", "sync", "_fsync_file"})

#: ``module.function`` call pairs that are blocking I/O.
IO_MODULE_CALLS = frozenset({("os", "fsync"), ("os", "replace"), ("time", "sleep")})

#: Documented exceptions, keyed by ``(package-relative path, function
#: name)``.  Each entry must carry its justification — the allowlist is
#: audited, not a dumping ground.
IO_UNDER_LOCK_ALLOWLIST: Mapping[tuple[str, str], str] = {
    ("storage/buffer.py", "_make_room"): (
        "dirty-victim writeback under the pool mutex keeps the 'page is "
        "on disk or resident-dirty' invariant trivially crash-safe; "
        "evictions are rare on the read paths the pool serves"
    ),
    ("storage/buffer.py", "flush"): (
        "checkpoint-time writeback of every dirty page; runs quiesced "
        "(checkpoints exclude concurrent writers by contract)"
    ),
    ("storage/wal.py", "_maybe_roll_locked"): (
        "segment-roll sync under the WAL mutex, then the new segment's "
        "zero fill, its fsync and the directory fsync; rolls are rare "
        "(one per segment_bytes of log) and deferred while a group-commit "
        "flusher is active, so no committer ever waits behind one"
    ),
    ("storage/wal.py", "close"): (
        "final fsync at shutdown; close() runs quiesced by contract "
        "(no concurrent appenders or committers)"
    ),
}

#: Functions documented to run with a level already held by their caller
#: (``callers hold self._lock`` docstrings); the walk starts them with
#: that level held.
HELD_BY_CONVENTION: Mapping[tuple[str, str], str] = {
    ("storage/buffer.py", "_make_room"): "buffer",
    ("storage/wal.py", "_maybe_roll_locked"): "wal",
    ("storage/wal.py", "_encode_page_locked"): "wal",
}

_ACQUIRE_MODES = {"acquire_read": "read", "acquire_write": "write", "acquire": "exclusive"}
_RELEASES = frozenset({"release_read", "release_write", "release"})
_BLOCK_FIELDS = ("body", "orelse", "finalbody")
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: One held lock: (level, "read" | "write" | "exclusive").
_Hold = tuple[str, str]


def _level(expr: ast.expr) -> "str | None":
    """``self._cond`` -> ``buffer``; a name no level declares -> None."""
    if isinstance(expr, ast.Attribute):
        return lockspec.level_for_attr(expr.attr)
    if isinstance(expr, ast.Name):
        return lockspec.level_for_attr(expr.id)
    return None


def _with_hold(expr: ast.expr) -> "_Hold | None":
    """The hold a ``with`` context expression takes, if it is a lock."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in ("read", "write"):
            level = _level(func.value)
            if level is not None:
                return level, func.attr
        return None
    level = _level(expr)
    return None if level is None else (level, "exclusive")


def _io_name(call: ast.Call) -> "str | None":
    """The blocking-I/O name for a call, or ``None``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and (func.value.id, func.attr) in IO_MODULE_CALLS:
        return f"{func.value.id}.{func.attr}"
    return func.attr if func.attr in IO_CALL_NAMES else None


def _own_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls in a statement's own expressions, excluding nested blocks."""
    for field, value in ast.iter_fields(stmt):
        if field in _BLOCK_FIELDS or field == "handlers":
            continue
        for node in value if isinstance(value, list) else [value]:
            if isinstance(node, ast.AST):
                yield from (sub for sub in ast.walk(node) if isinstance(sub, ast.Call))


def _io_under_locks(
    stmts: list[ast.stmt], held: list[_Hold]
) -> Iterator[tuple[ast.Call, str, list[_Hold]]]:
    """Each blocking call in ``stmts`` made while an exclusive lock is
    held, with those holds.  ``held`` is restored on return."""
    depth = len(held)
    for stmt in stmts:
        if isinstance(stmt, _SCOPE_NODES):
            continue  # nested scopes are walked as their own functions
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = len(held)
            for item in stmt.items:
                hold = _with_hold(item.context_expr)
                if hold is not None:
                    held.append(hold)
            yield from _io_under_locks(stmt.body, held)
            del held[inner:]
            continue
        for call in _own_calls(stmt):
            func = call.func
            if isinstance(func, ast.Attribute) and (level := _level(func.value)):
                if func.attr in _ACQUIRE_MODES:
                    held.append((level, _ACQUIRE_MODES[func.attr]))
                    continue
                if func.attr in _RELEASES:
                    for i in range(len(held) - 1, -1, -1):
                        if held[i][0] == level:
                            del held[i]
                            break
                    continue
            io = _io_name(call)
            exclusive = [h for h in held if h[1] != "read"]
            if io is not None and exclusive:
                yield call, io, exclusive
        for field in _BLOCK_FIELDS:
            yield from _io_under_locks(getattr(stmt, field, None) or [], held)
        for handler in getattr(stmt, "handlers", None) or ():
            yield from _io_under_locks(handler.body, held)
    del held[depth:]


@register
class IoUnderLockRule(Rule):
    id = "R6"
    name = "io-under-lock"
    description = (
        "no blocking I/O (disk read/write/sync, os.fsync, time.sleep) "
        "while holding an exclusive lock, outside the documented "
        "allowlist in rules/io_under_lock.py"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(*SCOPES) or ctx.package_path in IMPLEMENTATION_FILES:
            return
        scopes: list[tuple[str, list[ast.stmt]]] = [("<module>", ctx.tree.body)]
        scopes += [
            (node.name, node.body)
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function, body in scopes:
            key = (ctx.package_path, function)
            if key in IO_UNDER_LOCK_ALLOWLIST:
                continue
            seeded = HELD_BY_CONVENTION.get(key)
            held: list[_Hold] = [] if seeded is None else [(seeded, "exclusive")]
            for call, io, exclusive in _io_under_locks(body, held):
                held_desc = ", ".join(f"`{level}`({mode})" for level, mode in exclusive)
                yield self.diagnostic(
                    ctx,
                    call,
                    f"blocking call `{io}` while holding {held_desc}; "
                    "move the I/O outside the lock (buffer-pool fetch pattern) "
                    "or add a justified entry to IO_UNDER_LOCK_ALLOWLIST",
                )
