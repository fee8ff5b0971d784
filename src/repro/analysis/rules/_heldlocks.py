"""Shared lexical held-lock walker for the lock-discipline rules.

Walks one file's functions (and module level) statement by statement,
maintaining a stack of the lock levels lexically held at each point:
``with``-blocks over recognized lock attributes push for their body;
bare ``acquire_*`` calls push for the remainder of their block;
``release_*`` calls pop.  Functions documented to run with a lock held
by their caller (:data:`repro.analysis.lockspec.HELD_BY_CONVENTION`)
start with that level pre-seeded, so the analysis sees through the
"callers hold self._lock" convention.

The walk is *lexical*, not interprocedural: a lock acquired in one
function and released in another is invisible (R7 covers the pairing
discipline instead).  That keeps the rules fast and the findings
explainable — every diagnostic points at a ``with`` or call site whose
enclosing lock region is visible in the same function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from .. import lockspec
from ..engine import FileContext

__all__ = ["Held", "LockEvent", "IoEvent", "iter_lock_events"]


@dataclass(frozen=True)
class Held:
    """One lexically held lock: hierarchy level + acquisition mode."""

    level: str
    #: "read" | "write" (latches) or "exclusive" (plain mutexes).
    mode: str

    @property
    def blocking(self) -> bool:
        """True when holders exclude other threads (R6's mutex notion)."""
        return self.mode != "read"


@dataclass(frozen=True)
class LockEvent:
    """One acquisition site, with everything held just before it."""

    node: ast.AST
    level: str
    mode: str
    held: tuple[Held, ...]
    function: str


@dataclass(frozen=True)
class IoEvent:
    """One blocking-I/O call site, with everything held around it."""

    node: ast.AST
    call: str
    held: tuple[Held, ...]
    function: str


def _terminal_name(expr: ast.expr) -> "str | None":
    """``self._cond`` -> ``_cond``; bare names return themselves."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _classify_with_item(expr: ast.expr) -> "tuple[str, str] | None":
    """Map a ``with`` context expression to (level, mode), if it is a lock."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        method = expr.func.attr
        if method in ("read", "write"):
            level = _receiver_level(expr.func.value)
            if level is not None:
                return level, method
        return None
    name = _terminal_name(expr)
    if name is None:
        return None
    level = lockspec.level_for_attr(name)
    if level is not None:
        return level, "exclusive"
    return None


def _receiver_level(recv: ast.expr) -> "str | None":
    name = _terminal_name(recv)
    return None if name is None else lockspec.level_for_attr(name)


def _classify_acquire(call: ast.Call) -> "tuple[str, str] | None":
    if not isinstance(call.func, ast.Attribute):
        return None
    method = call.func.attr
    if method not in ("acquire_read", "acquire_write", "acquire"):
        return None
    level = _receiver_level(call.func.value)
    if level is None:
        return None
    mode = {"acquire_read": "read", "acquire_write": "write"}.get(method, "exclusive")
    return level, mode


def _classify_release(call: ast.Call) -> "str | None":
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr not in ("release_read", "release_write", "release"):
        return None
    return _receiver_level(call.func.value)


def _classify_io(call: ast.Call) -> "str | None":
    """The blocking-I/O name for a call, or ``None``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name):
        pair = (func.value.id, func.attr)
        if pair in lockspec.IO_MODULE_CALLS:
            return f"{pair[0]}.{pair[1]}"
    if func.attr in lockspec.IO_CALL_NAMES:
        return func.attr
    return None


_BLOCK_FIELDS = ("body", "orelse", "finalbody")


def _scan_expressions(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls in a statement's own expressions, excluding nested blocks."""
    for field, value in ast.iter_fields(stmt):
        if field in _BLOCK_FIELDS or field == "handlers":
            continue
        nodes = value if isinstance(value, list) else [value]
        for node in nodes:
            if isinstance(node, ast.AST):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        yield sub


class _Walker:
    def __init__(self, function: str, seeded: tuple[str, ...]) -> None:
        self.function = function
        self.held: list[Held] = [Held(level, "exclusive") for level in seeded]
        self.locks: list[LockEvent] = []
        self.io: list[IoEvent] = []

    def _snapshot(self) -> tuple[Held, ...]:
        return tuple(self.held)

    def _pop(self, level: str) -> None:
        for i in range(len(self.held) - 1, -1, -1):
            if self.held[i].level == level:
                del self.held[i]
                return

    def walk(self, stmts: list[ast.stmt]) -> None:
        entry_depth = len(self.held)
        for stmt in stmts:
            self._visit(stmt)
        del self.held[entry_depth:]

    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are walked as their own functions
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                classified = _classify_with_item(item.context_expr)
                if classified is not None:
                    level, mode = classified
                    self.locks.append(
                        LockEvent(
                            item.context_expr, level, mode,
                            self._snapshot(), self.function,
                        )
                    )
                    self.held.append(Held(level, mode))
                    pushed += 1
            self.walk(stmt.body)
            if pushed:
                del self.held[len(self.held) - pushed :]
            return
        for call in _scan_expressions(stmt):
            acquired = _classify_acquire(call)
            if acquired is not None:
                level, mode = acquired
                self.locks.append(
                    LockEvent(call, level, mode, self._snapshot(), self.function)
                )
                self.held.append(Held(level, mode))
                continue
            released = _classify_release(call)
            if released is not None:
                self._pop(released)
                continue
            io_name = _classify_io(call)
            if io_name is not None:
                self.io.append(
                    IoEvent(call, io_name, self._snapshot(), self.function)
                )
        for field in _BLOCK_FIELDS:
            block = getattr(stmt, field, None)
            if block:
                self.walk(block)
        for handler in getattr(stmt, "handlers", ()) or ():
            self.walk(handler.body)


def iter_lock_events(
    ctx: FileContext,
) -> tuple[list[LockEvent], list[IoEvent]]:
    """All acquisition and blocking-I/O events in one file.

    Module-level statements walk with an empty held stack; every function
    walks independently, pre-seeded from ``HELD_BY_CONVENTION``.
    """
    locks: list[LockEvent] = []
    io: list[IoEvent] = []

    module_walker = _Walker("<module>", ())
    module_walker.walk(list(ctx.tree.body))
    locks.extend(module_walker.locks)
    io.extend(module_walker.io)

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            seeded = lockspec.HELD_BY_CONVENTION.get(
                (ctx.package_path, node.name), ()
            )
            walker = _Walker(node.name, tuple(seeded))
            walker.walk(list(node.body))
            locks.extend(walker.locks)
            io.extend(walker.io)
    return locks, io
