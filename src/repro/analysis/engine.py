"""AST lint engine: rule registry, file walker, suppression handling.

The engine parses each Python file once, hands the AST to every selected
rule, and collects :class:`~repro.analysis.diagnostics.Diagnostic`
records.  Rules are repo-specific — they enforce invariants of *this*
codebase (trace-event schema conformance, float-comparison discipline,
exception hygiene, frozen-geometry immutability) that generic linters
cannot know about.

Rules register themselves with the :func:`register` decorator; importing
:mod:`repro.analysis.rules` populates the registry.  A finding on line N
can be suppressed with a ``# lint: ignore[R2]`` (or ``ignore[R2,R4]``)
comment on that line — used sparingly; the rules are meant to be fixed,
not silenced.

Scoping: rules declare path scopes relative to the ``repro`` package
(e.g. ``core/``).  The engine derives that package-relative path from
each file's location, so fixtures under any directory can exercise
path-scoped rules by mimicking the package layout.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..exceptions import ConfigError, InputFormatError
from .diagnostics import Diagnostic

__all__ = [
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "rule_ids",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "STALE_IGNORE_ID",
]

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9_*,\s]+)\]")

#: Pseudo-rule id for stale-suppression warnings (a ``# lint: ignore``
#: that suppresses nothing).  Not in the registry: it is a property of
#: the suppression comments, not of the AST, so it cannot itself be
#: suppressed or ``--select``\ ed.
STALE_IGNORE_ID = "W1"


@dataclass
class FileContext:
    """Everything a rule needs to know about one file."""

    path: str
    source: str
    tree: ast.Module
    #: Path relative to the ``repro`` package root ("core/rtree.py"),
    #: or the bare filename when the file lives outside the package.
    package_path: str
    #: line -> set of rule ids suppressed on that line ("*" = all).
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def in_scope(self, *prefixes: str) -> bool:
        """True when the file sits under any of the package-relative
        prefixes (an empty prefix list means the whole package)."""
        if not prefixes:
            return True
        return any(self.package_path.startswith(p) for p in prefixes)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` ("R1"), ``name`` (a kebab-case slug), and
    ``description``, and implement :meth:`check` yielding diagnostics.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            rule=self.id,
            name=self.name,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the engine's registry."""
    if not cls.id or not cls.name:
        raise ConfigError(f"rule {cls.__name__} must declare `id` and `name`")
    if cls.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """One instance of every registered rule, in id order."""
    _load_builtin_rules()
    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


def _load_builtin_rules() -> None:
    # Importing the rules package runs the @register decorators.
    from . import rules  # noqa: F401


def _select_rules(select: Sequence[str] | None) -> list[Rule]:
    rules = all_rules()
    if select is None:
        return rules
    known = {r.id for r in rules}
    unknown = [s for s in select if s not in known]
    if unknown:
        raise ConfigError(
            f"unknown rule id(s) {unknown}; known: {sorted(known)}"
        )
    wanted = set(select)
    return [r for r in rules if r.id in wanted]


def _package_path(path: Path) -> str:
    """The path relative to the ``repro`` package root, if any.

    ``src/repro/core/rtree.py`` -> ``core/rtree.py``; files outside any
    ``repro`` directory fall back to their bare name, so fixtures can
    opt into path-scoped rules by living under a ``repro/``-shaped tree.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return path.name


def _collect_suppressions(source: str) -> dict[int, set[str]]:
    """Suppressions from *actual comments* (tokenize, not line regex —
    a docstring that merely mentions ``# lint: ignore[R2]`` must neither
    suppress anything nor count as stale)."""
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions  # unparsable files never reach the rules anyway
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _IGNORE_RE.search(tok.string)
        if match:
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            suppressions.setdefault(tok.start[0], set()).update(ids)
    return suppressions


def _make_context(source: str, path: str) -> FileContext:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise InputFormatError(f"{path}: cannot parse: {exc}") from exc
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        package_path=_package_path(Path(path)),
        suppressions=_collect_suppressions(source),
    )


def _stale_ignores(
    ctx: FileContext,
    used: set[tuple[int, str]],
    select: Sequence[str] | None,
) -> Iterator[Diagnostic]:
    """W1 warnings for suppression comments that suppressed nothing.

    Under ``--select`` only the selected ids are judged — a partial run
    cannot prove an out-of-selection ignore (or a ``*`` wildcard) stale.
    Unknown rule ids are always stale on a full run: they can never
    suppress anything.
    """
    checkable = set(select) if select is not None else None
    for line, ids in sorted(ctx.suppressions.items()):
        for rid in sorted(ids):
            if rid == "*":
                if checkable is not None or (line, "*") in used:
                    continue
            else:
                if checkable is not None and rid not in checkable:
                    continue
                if (line, rid) in used:
                    continue
            yield Diagnostic(
                path=ctx.path,
                line=line,
                col=1,
                rule=STALE_IGNORE_ID,
                name="stale-ignore",
                message=(
                    f"`# lint: ignore[{rid}]` suppresses nothing on this "
                    "line; remove it (or fix the rule id) so suppressions "
                    "stay auditable"
                ),
            )


def lint_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
    stale_ignores: bool = False,
) -> list[Diagnostic]:
    """Lint one in-memory source blob (the fixture-test entry point).

    With ``stale_ignores``, suppression comments that suppressed no
    finding are reported as :data:`STALE_IGNORE_ID` diagnostics.
    """
    ctx = _make_context(source, path)
    findings: list[Diagnostic] = []
    used: set[tuple[int, str]] = set()
    for rule in _select_rules(select):
        for diag in rule.check(ctx):
            ids = ctx.suppressions.get(diag.line)
            if ids is None or not (diag.rule in ids or "*" in ids):
                findings.append(diag)
            else:
                used.add((diag.line, diag.rule if diag.rule in ids else "*"))
    if stale_ignores:
        findings.extend(_stale_ignores(ctx, used, select))
    return sorted(findings)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(q for q in p.rglob("*.py") if "__pycache__" not in q.parts)
        elif p.suffix == ".py":
            out.add(p)
        elif not p.exists():
            raise InputFormatError(f"no such file or directory: {p}")
    return sorted(out)


def lint_paths(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
    on_file: Callable[[Path], None] | None = None,
    stale_ignores: bool = False,
) -> list[Diagnostic]:
    """Lint every Python file under ``paths``; returns sorted diagnostics."""
    findings: list[Diagnostic] = []
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        source = path.read_text()
        findings.extend(lint_source(source, str(path), select, stale_ignores))
    return sorted(findings)
