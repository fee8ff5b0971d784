"""R3 — exception hygiene for library code under ``src/repro``.

Two checks:

* **raise-hierarchy** — every ``raise`` must construct an exception from
  the :mod:`repro.exceptions` hierarchy (or a locally-defined subclass of
  one).  Re-raises (bare ``raise`` or ``raise exc`` of a caught name) are
  always fine, as are the Python-protocol exceptions the language forces
  on us: ``NotImplementedError`` (abstract methods), ``StopIteration``
  (iterator protocol), ``SystemExit`` (CLI entry points only), and
  ``AttributeError`` *inside* ``__setattr__``-family methods (the
  immutability protocol).

* **no-swallow** — in ``storage/``, ``workloads/`` and ``sharding/``
  paths an ``except Exception`` / ``except BaseException`` / bare
  ``except`` handler must re-raise somewhere in its body.  Durability
  code that silently eats a failure turns a detectable crash into silent
  data loss; a workload driver that eats one corrupts its own error
  accounting; an RPC worker that eats one hides a failed shard op from
  its router.  The audited exceptions — places whose *job* is converting
  exceptions into data, like the shard worker's reply serializer — live
  in :data:`NO_SWALLOW_ALLOWLIST`, keyed by (file, enclosing function) so
  the exemption cannot silently widen.

The allowed-name set is derived from :mod:`repro.exceptions` itself at
lint time, so adding an exception class there automatically legalises it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ... import exceptions as _exceptions
from ...exceptions import ReproError
from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register

__all__ = ["ExceptionHygieneRule"]

#: Exception names from the repro hierarchy (computed, not hand-listed).
HIERARCHY_NAMES = frozenset(
    name
    for name in dir(_exceptions)
    if isinstance(getattr(_exceptions, name), type)
    and issubclass(getattr(_exceptions, name), ReproError)
)

#: Python-protocol exceptions allowed anywhere in library code.
_PROTOCOL_ANYWHERE = frozenset({"NotImplementedError", "StopIteration"})

#: Allowed only in CLI entry modules.
_CLI_ONLY = frozenset({"SystemExit"})
_CLI_MODULES = ("cli.py", "__main__.py")

#: Allowed only inside the attribute-protocol special methods.
_SETATTR_METHODS = frozenset(
    {"__setattr__", "__delattr__", "__getattr__", "__getattribute__"}
)

_BROAD_TYPES = frozenset({"Exception", "BaseException"})

#: Package prefixes where the no-swallow check applies.
NO_SWALLOW_SCOPES = ("storage/", "workloads/", "sharding/")

#: Audited broad-except survivors: (package path, enclosing function).
#: Every entry is a place whose contract is to turn exceptions into
#: data rather than propagate them; anything not listed here must
#: re-raise or catch something specific.
NO_SWALLOW_ALLOWLIST = frozenset(
    {
        # The shard worker's dispatch boundary serializes failures into
        # error Replies; reply_error rebuilds them client-side.
        ("sharding/worker.py", "handle"),
    }
)


def _exception_name(node: ast.expr) -> str | None:
    """The root exception class name of a ``raise`` expression."""
    if isinstance(node, ast.Call):
        return _exception_name(node.func)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        # e.g. ``errors.StorageError`` — judge by the final component.
        return node.attr
    return None


class _Scope:
    """Names legal to (re-)raise at one point in the file."""

    def __init__(self) -> None:
        self.caught: set[str] = set()
        self.local_subclasses: set[str] = set()


def _collect_local_subclasses(tree: ast.Module) -> set[str]:
    """Class names in this module that (transitively) extend an allowed
    exception name."""
    allowed = set(HIERARCHY_NAMES)
    progress = True
    while progress:
        progress = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in allowed:
                continue
            for base in node.bases:
                base_name = _exception_name(base)
                if base_name in allowed:
                    allowed.add(node.name)
                    progress = True
                    break
    return allowed - HIERARCHY_NAMES


@register
class ExceptionHygieneRule(Rule):
    id = "R3"
    name = "exception-hygiene"
    description = (
        "library code raises only repro.exceptions classes; storage/ never "
        "swallows broad exceptions without re-raising"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        yield from self._check_raises(ctx)
        if ctx.in_scope(*NO_SWALLOW_SCOPES):
            yield from self._check_swallows(ctx)

    # -- raise-hierarchy check -----------------------------------------
    def _check_raises(self, ctx: FileContext) -> Iterator[Diagnostic]:
        local_ok = _collect_local_subclasses(ctx.tree)
        is_cli = ctx.package_path.endswith(_CLI_MODULES)
        for raise_node, caught, method in _walk_raises(ctx.tree):
            if raise_node.exc is None:
                continue  # bare re-raise
            name = _exception_name(raise_node.exc)
            if name is None:
                # ``raise some_expr`` — allow re-raising a caught name,
                # flag anything we cannot resolve.
                continue
            if isinstance(raise_node.exc, ast.Name) and name in caught:
                continue  # ``raise exc`` of a caught exception
            if name in HIERARCHY_NAMES or name in local_ok:
                continue
            if name in _PROTOCOL_ANYWHERE:
                continue
            if name in _CLI_ONLY and is_cli:
                continue
            if name == "AttributeError" and method in _SETATTR_METHODS:
                continue
            yield self.diagnostic(
                ctx,
                raise_node,
                f"raises {name}, which is outside the repro.exceptions "
                "hierarchy; raise a ReproError subclass (dual-inherit the "
                "builtin if callers rely on it)",
            )

    # -- no-swallow check ----------------------------------------------
    def _check_swallows(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node, function in _walk_handlers(ctx.tree):
            if not _is_broad(node.type):
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue
            if function and (ctx.package_path, function) in NO_SWALLOW_ALLOWLIST:
                continue
            caught = "Exception" if node.type is not None else "bare except"
            yield self.diagnostic(
                ctx,
                node,
                f"swallows {caught} without re-raising; handle the "
                "specific error, re-raise, or (for a boundary whose "
                "contract is converting exceptions to data) add an "
                "audited NO_SWALLOW_ALLOWLIST entry",
            )


def _is_broad(type_node: ast.expr | None) -> bool:
    if type_node is None:
        return True
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(elt) for elt in type_node.elts)
    name = _exception_name(type_node)
    return name in _BROAD_TYPES


def _walk_handlers(
    tree: ast.Module,
) -> Iterator[tuple[ast.ExceptHandler, str | None]]:
    """Yield (except-handler, enclosing-function-name) pairs."""

    def visit(
        node: ast.AST, function: str | None
    ) -> Iterator[tuple[ast.ExceptHandler, str | None]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def _walk_raises(
    tree: ast.Module,
) -> Iterator[tuple[ast.Raise, set[str], str | None]]:
    """Yield (raise-node, caught-names-in-scope, enclosing-method-name)."""

    def visit(
        node: ast.AST, caught: frozenset[str], method: str | None
    ) -> Iterator[tuple[ast.Raise, set[str], str | None]]:
        if isinstance(node, ast.Raise):
            yield node, set(caught), method
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = node.name
            caught = frozenset()  # handler names don't cross function bounds
        if isinstance(node, ast.ExceptHandler) and node.name:
            caught = caught | {node.name}
        for child in ast.iter_child_nodes(node):
            yield from visit(child, caught, method)

    yield from visit(tree, frozenset(), None)
