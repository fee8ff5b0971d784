"""R1 — every tracer event/span call site must match the declared schema.

The single source of truth is :mod:`repro.obs.events`.  A call like
``self.tracer.event("spliit", node_id=...)`` (typo'd name) or
``tracer.event("split", nod_id=...)`` (undeclared field) would emit
nothing useful at runtime — reports silently lose the data — so this rule
kills it in CI instead.

Recognised call shapes: ``<expr>.event(...)`` and ``<expr>.span(...)``
where the receiver expression is (or dotted-path-ends in) ``tracer`` —
``tracer.event``, ``self.tracer.event``, ``self.pool.tracer.span``.  The
event name must be a **string literal**: a computed name cannot be
checked statically and is itself a finding.

Span-end fields attached via ``handle.set(...)`` are not tracked here
(handle aliasing makes that unreliable statically); the schema smoke
test checks them on every ``span_end`` a real workload emits, with
:func:`~repro.obs.events.check_span_fields`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from ...obs.events import EVENT_SCHEMA, SPAN_SCHEMA
from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, register

__all__ = ["TraceSchemaRule"]


def _receiver_is_tracer(func: ast.Attribute) -> bool:
    """True when the call receiver looks like a tracer object."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id == "tracer" or value.id.endswith("_tracer")
    if isinstance(value, ast.Attribute):
        return value.attr == "tracer" or value.attr.endswith("_tracer")
    return False


@register
class TraceSchemaRule(Rule):
    id = "R1"
    name = "trace-event-schema"
    description = (
        "tracer.event()/tracer.span() call sites must use names and fields "
        "declared in repro.obs.events"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("event", "span") or not _receiver_is_tracer(func):
                continue
            yield from self._check_call(ctx, node, kind=func.attr)

    def _check_call(
        self, ctx: FileContext, call: ast.Call, kind: str
    ) -> Iterator[Diagnostic]:
        if not call.args:
            yield self.diagnostic(
                ctx, call, f"tracer.{kind}() call without a name argument"
            )
            return
        name_arg = call.args[0]
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            yield self.diagnostic(
                ctx,
                call,
                f"tracer.{kind}() name must be a string literal so it can be "
                "checked against the schema",
            )
            return
        name = name_arg.value
        allowed: frozenset[str]
        required: frozenset[str]
        if kind == "event":
            espec = EVENT_SCHEMA.get(name)
            if espec is None:
                yield self._unknown(ctx, name_arg, "event type", name, EVENT_SCHEMA)
                return
            allowed, required = espec.allowed, espec.required
        else:
            sspec = SPAN_SCHEMA.get(name)
            if sspec is None:
                yield self._unknown(ctx, name_arg, "span op", name, SPAN_SCHEMA)
                return
            allowed, required = sspec.begin, frozenset()

        has_star_kwargs = any(kw.arg is None for kw in call.keywords)
        given = {kw.arg for kw in call.keywords if kw.arg is not None}
        if has_star_kwargs:
            yield self.diagnostic(
                ctx,
                call,
                f"tracer.{kind}({name!r}, **...) hides fields from static "
                "checking; pass fields as explicit keywords",
            )

        extra = given - allowed
        if extra:
            yield self.diagnostic(
                ctx,
                call,
                f"{kind} {name!r}: undeclared field(s) {sorted(extra)}; "
                f"allowed: {sorted(allowed)}",
            )
        if not has_star_kwargs:
            missing = required - given
            if missing:
                yield self.diagnostic(
                    ctx,
                    call,
                    f"{kind} {name!r}: missing required field(s) {sorted(missing)}",
                )

    def _unknown(
        self,
        ctx: FileContext,
        node: ast.AST,
        what: str,
        name: str,
        schema: Mapping[str, object],
    ) -> Diagnostic:
        return self.diagnostic(
            ctx,
            node,
            f"undeclared trace {what} {name!r}; declare it in "
            f"repro.obs.events (known: {sorted(schema)})",
        )
