"""Machine-readable benchmark run reports (``BENCH_<name>.json``).

Every experiment-harness invocation can emit one report file: the run's
configuration, wall time, a metrics snapshot, and histogram summaries.
The schema is versioned and validated on both write and load, so the
files double as a perf trajectory across PRs — a future session can
diff ``BENCH_graph1.json`` against its predecessor and see exactly which
counter moved.

Schema (``repro.bench-report/v2``)::

    {
      "schema": "repro.bench-report/v2",
      "name": "<run name>",
      "config": { ... run parameters ... },
      "wall_seconds": 1.23,
      "metrics": { ... stats snapshots ... },
      "histograms": { "<name>": {count, sum, mean, min, max, le, counts} },
      "extra": { ... optional free-form ... }
    }

Any other schema, v1 included, is rejected.  Keys the validator does not
check are kept as they are, so a v2 file written with the since-dropped
``latencies`` section still loads.
"""

from __future__ import annotations

import json
import re
from numbers import Number
from pathlib import Path

from ..exceptions import InputFormatError

__all__ = [
    "SCHEMA",
    "build_report",
    "report_filename",
    "write_report",
    "load_report",
    "validate_report",
    "format_report",
]

SCHEMA = "repro.bench-report/v2"

_REQUIRED = ("schema", "name", "config", "wall_seconds", "metrics", "histograms")


def build_report(
    name: str,
    *,
    config: dict,
    wall_seconds: float,
    metrics: dict,
    histograms: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble (and validate) a v2 report document."""
    doc = {
        "schema": SCHEMA,
        "name": name,
        "config": config,
        "wall_seconds": wall_seconds,
        "metrics": metrics,
        "histograms": histograms or {},
    }
    if extra:
        doc["extra"] = extra
    validate_report(doc)
    return doc


def report_filename(name: str) -> str:
    """``BENCH_<name>.json`` with the name made filesystem-safe."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "run"
    return f"BENCH_{safe}.json"


def write_report(doc: dict, out_dir: str | Path) -> Path:
    """Validate and write ``doc`` to ``out_dir``; returns the file path."""
    validate_report(doc)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / report_filename(doc["name"])
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    """Read and validate a report document."""
    with Path(path).open() as fh:
        doc = json.load(fh)
    validate_report(doc)
    return doc


def validate_report(doc: object) -> None:
    """Raise :class:`~repro.exceptions.InputFormatError` listing every
    schema problem found.  Only the current schema (v2) is accepted."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise InputFormatError(f"report must be a JSON object, got {type(doc).__name__}")
    for key in _REQUIRED:
        if key not in doc:
            problems.append(f"missing required key {key!r}")
    if "schema" in doc and doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if "name" in doc and (not isinstance(doc["name"], str) or not doc["name"]):
        problems.append("name must be a non-empty string")
    for key in ("config", "metrics", "histograms"):
        if key in doc and not isinstance(doc[key], dict):
            problems.append(f"{key} must be an object")
    wall = doc.get("wall_seconds")
    if "wall_seconds" in doc and (
        not isinstance(wall, Number) or isinstance(wall, bool) or wall < 0
    ):
        problems.append("wall_seconds must be a non-negative number")
    hists = doc.get("histograms")
    for name, hist in (hists.items() if isinstance(hists, dict) else ()):
        if not isinstance(hist, dict):
            problems.append(f"histogram {name!r} must be an object")
            continue
        for key in ("count", "sum", "le", "counts"):
            if key not in hist:
                problems.append(f"histogram {name!r} missing {key!r}")
        le, counts = hist.get("le"), hist.get("counts")
        if isinstance(le, list) and isinstance(counts, list) and len(le) != len(counts):
            problems.append(
                f"histogram {name!r}: {len(le)} bounds vs {len(counts)} counts"
            )
        if isinstance(counts, list) and isinstance(hist.get("count"), int):
            if sum(counts) != hist["count"]:
                problems.append(
                    f"histogram {name!r}: bin counts sum to {sum(counts)}, "
                    f"count says {hist['count']}"
                )
    if problems:
        raise InputFormatError("invalid bench report: " + "; ".join(problems))


def _flatten(prefix: str, value: object, out: list[tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out.append((prefix, value))


def format_report(doc: dict, bar_width: int = 40) -> str:
    """Human-readable rendering of a report (the ``repro stats`` view)."""
    lines = [f"{doc['name']}  ({doc['schema']})"]
    lines.append(f"  wall time: {doc['wall_seconds']:.3f}s")
    lines.append("  config:")
    for key, value in sorted(doc.get("config", {}).items()):
        lines.append(f"    {key} = {value}")
    flat: list[tuple[str, object]] = []
    _flatten("", doc.get("metrics", {}), flat)
    if flat:
        lines.append("  metrics:")
        width = max(len(k) for k, _ in flat)
        for key, value in flat:
            if isinstance(value, float):
                value = f"{value:.4g}"
            lines.append(f"    {key.ljust(width)}  {value}")
    for name, hist in sorted(doc.get("histograms", {}).items()):
        lines.append(
            f"  histogram {name}: n={hist['count']} mean={hist.get('mean', 0):.2f} "
            f"min={hist.get('min')} max={hist.get('max')}"
        )
        peak = max(hist["counts"], default=0)
        for bound, count in zip(hist["le"], hist["counts"]):
            if not count:
                continue
            label = "+inf" if bound is None else f"<={bound:g}"
            bar = "#" * max(1, round(count / peak * bar_width)) if peak else ""
            lines.append(f"    {label.rjust(10)}  {str(count).rjust(8)}  {bar}")
    return "\n".join(lines)

