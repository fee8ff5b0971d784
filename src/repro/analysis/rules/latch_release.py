"""R7 — latch release on all paths: bare acquires must pair structurally.

A latch acquired with a bare ``acquire_read()``/``acquire_write()``/
``.acquire()`` call leaks on any exception path unless the release is
structurally guaranteed.  The rule accepts three shapes:

* the acquire sits inside a ``try`` whose ``finally`` releases the same
  receiver (matching mode: ``acquire_read`` pairs with ``release_read``);
* the acquire is immediately followed — later in the same block — by
  such a ``try/finally`` (the PR 5 engine's ``acquire; try: ...
  finally: release`` idiom, where setup statements may intervene);
* the enclosing function is ``__enter__`` (guard classes release in
  ``__exit__`` — the ``_LatchGuard`` pattern).

Everything else is a finding.  ``with``-based acquisition needs no
pairing and is the preferred form.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import lockspec
from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register

__all__ = ["LatchReleaseRule"]

#: Package-relative directories where the rule applies.
SCOPES = ("concurrency/", "storage/", "sharding/", "rules/")

_PAIRS = {
    "acquire_read": "release_read",
    "acquire_write": "release_write",
    "acquire": "release",
}

#: Receiver-name fragments that mark an object as a lock even when the
#: attribute is not in the lockspec hierarchy.
_LOCKISH_FRAGMENTS = ("lock", "latch", "mutex", "cond", "_cv")


def _is_lockish(name: str) -> bool:
    if lockspec.level_for_attr(name) is not None:
        return True
    lowered = name.lower()
    return any(frag in lowered for frag in _LOCKISH_FRAGMENTS)


def _acquire_calls(stmt: ast.stmt) -> "Iterator[ast.Call]":
    """Bare acquire calls in a statement's own expressions."""
    for field, value in ast.iter_fields(stmt):
        if field in ("body", "orelse", "finalbody", "handlers"):
            continue
        nodes = value if isinstance(value, list) else [value]
        for node in nodes:
            if not isinstance(node, ast.AST):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _PAIRS
                ):
                    recv = sub.func.value
                    name = (
                        recv.attr
                        if isinstance(recv, ast.Attribute)
                        else recv.id if isinstance(recv, ast.Name) else None
                    )
                    if name is not None and _is_lockish(name):
                        yield sub


def _releases_in(stmts: list[ast.stmt], release: str, receiver: str) -> bool:
    """True when any statement subtree calls ``<receiver>.<release>()``."""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == release
                and ast.dump(node.func.value) == receiver
            ):
                return True
    return False


@register
class LatchReleaseRule(Rule):
    id = "R7"
    name = "latch-release"
    description = (
        "bare acquire_read/acquire_write/.acquire calls must release on "
        "all paths: try/finally with the matching release, or a guard "
        "class's __enter__"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(*SCOPES):
            return
        if ctx.package_path in lockspec.IMPLEMENTATION_FILES:
            return
        yield from self._check_block(ctx, list(ctx.tree.body), [], "<module>")
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_block(
                    ctx, list(node.body), [], node.name
                )

    def _check_block(
        self,
        ctx: FileContext,
        stmts: list[ast.stmt],
        finallys: list[list[ast.stmt]],
        function: str,
    ) -> Iterator[Diagnostic]:
        for i, stmt in enumerate(stmts):
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested defs are their own top-level walk
            for call in _acquire_calls(stmt):
                assert isinstance(call.func, ast.Attribute)
                release = _PAIRS[call.func.attr]
                receiver = ast.dump(call.func.value)
                if function == "__enter__":
                    continue
                if any(
                    _releases_in(fin, release, receiver) for fin in finallys
                ):
                    continue
                if any(
                    isinstance(later, ast.Try)
                    and _releases_in(later.finalbody, release, receiver)
                    for later in stmts[i + 1 :]
                ):
                    continue
                yield self.diagnostic(
                    ctx,
                    call,
                    f"`{call.func.attr}` without a structural `{release}` "
                    "on all paths; use a with-block or try/finally",
                )
            # Recurse with the finally-context each child block runs under.
            if isinstance(stmt, ast.Try):
                inner = finallys + ([stmt.finalbody] if stmt.finalbody else [])
                yield from self._check_block(ctx, stmt.body, inner, function)
                for handler in stmt.handlers:
                    yield from self._check_block(
                        ctx, handler.body, inner, function
                    )
                yield from self._check_block(ctx, stmt.orelse, inner, function)
                yield from self._check_block(
                    ctx, stmt.finalbody, finallys, function
                )
            else:
                for field in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, field, None)
                    if block:
                        yield from self._check_block(
                            ctx, block, finallys, function
                        )
                for handler in getattr(stmt, "handlers", ()) or ():
                    yield from self._check_block(
                        ctx, handler.body, finallys, function
                    )
