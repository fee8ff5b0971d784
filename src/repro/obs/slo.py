"""SLO specs and their evaluation against v2 bench reports.

An SLO spec is a small JSON document declaring tail-latency objectives
over the ``latencies`` section of a ``repro.bench-report/v2`` report::

    {
      "slo": [
        {"name": "interactive p99",
         "series": "*/small_range/*",
         "quantile": "p99",
         "threshold_ms": 50.0},
        {"name": "stab p999",
         "series": "*/stab/*",
         "quantile": "p999",
         "threshold_us": 800}
      ]
    }

``series`` is an :mod:`fnmatch` glob over series names (the SLO bench
emits ``<index>/<query_class>/<tenant>``); exactly one of
``threshold_ns`` / ``threshold_us`` / ``threshold_ms`` / ``threshold_s``
gives the bound.  A rule **fails** when any matching series' quantile
exceeds its threshold — and also when *no* series matches at all, so a
renamed query class cannot silently green-light a dashboard.

:func:`evaluate_slo` returns one :class:`SloResult` per (rule, series)
pair; ``repro slo`` renders them and exits non-zero on any failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Mapping, Sequence

from ..exceptions import InputFormatError
from .latency import QUANTILE_LABELS, format_ns
from .report import validate_report

__all__ = [
    "DEFAULT_SLO_SPEC",
    "SloRule",
    "SloResult",
    "parse_slo_spec",
    "load_slo_spec",
    "evaluate_slo",
    "slo_passed",
    "format_slo_results",
]

_QUANTILE_KEYS = tuple(label for label, _ in QUANTILE_LABELS)

#: ``threshold_<unit>`` key -> nanoseconds per unit.
_THRESHOLD_UNITS: Mapping[str, int] = {
    "threshold_ns": 1,
    "threshold_us": 1_000,
    "threshold_ms": 1_000_000,
    "threshold_s": 1_000_000_000,
}

#: The spec ``repro slo`` applies when no ``--spec`` file is given:
#: loose sanity bounds for the simulated-disk SLO bench, meant to catch
#: order-of-magnitude regressions rather than to gate a product.
DEFAULT_SLO_SPEC: dict = {
    "slo": [
        {
            "name": "stab p99",
            "series": "*/stab/*",
            "quantile": "p99",
            "threshold_ms": 100.0,
        },
        {
            "name": "small-range p99",
            "series": "*/small_range/*",
            "quantile": "p99",
            "threshold_ms": 250.0,
        },
        {
            "name": "large-range p999",
            "series": "*/large_range/*",
            "quantile": "p999",
            "threshold_ms": 1000.0,
        },
        {
            "name": "insert p99",
            "series": "*/insert/*",
            "quantile": "p99",
            "threshold_ms": 500.0,
        },
    ]
}


@dataclass(frozen=True)
class SloRule:
    """One objective: a quantile bound over a glob of latency series."""

    name: str
    series: str
    quantile: str
    threshold_ns: int

    def describe(self) -> str:
        return (
            f"{self.name}: {self.series} {self.quantile} "
            f"<= {format_ns(self.threshold_ns)}"
        )


@dataclass(frozen=True)
class SloResult:
    """Outcome of one rule against one matching series (or no match)."""

    rule: SloRule
    series: str | None
    observed_ns: int | None
    passed: bool

    @property
    def reason(self) -> str:
        if self.series is None:
            return "no latency series matches"
        assert self.observed_ns is not None
        verb = "<=" if self.passed else ">"
        return (
            f"{self.rule.quantile}={format_ns(self.observed_ns)} "
            f"{verb} {format_ns(self.rule.threshold_ns)}"
        )


def parse_slo_spec(doc: object) -> tuple[SloRule, ...]:
    """Parse and validate a spec document; raises
    :class:`~repro.exceptions.InputFormatError` naming every problem."""
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("slo"), list):
        raise InputFormatError("SLO spec must be an object with an 'slo' rule list")
    rules: list[SloRule] = []
    for i, raw in enumerate(doc["slo"]):
        where = f"slo[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{where}: rule must be an object")
            continue
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: 'name' must be a non-empty string")
            name = f"rule {i}"
        series = raw.get("series")
        if not isinstance(series, str) or not series:
            problems.append(f"{where}: 'series' must be a non-empty glob pattern")
            series = "*"
        quantile = raw.get("quantile")
        if quantile not in _QUANTILE_KEYS:
            problems.append(
                f"{where}: 'quantile' must be one of {list(_QUANTILE_KEYS)}, "
                f"got {quantile!r}"
            )
            quantile = "p99"
        given = [key for key in _THRESHOLD_UNITS if key in raw]
        if len(given) != 1:
            problems.append(
                f"{where}: exactly one of {sorted(_THRESHOLD_UNITS)} is required"
            )
            threshold_ns = 0
        else:
            value = raw[given[0]]
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
                problems.append(f"{where}: {given[0]} must be a positive number")
                threshold_ns = 0
            else:
                threshold_ns = round(value * _THRESHOLD_UNITS[given[0]])
        unknown = set(raw) - {"name", "series", "quantile"} - set(_THRESHOLD_UNITS)
        if unknown:
            problems.append(f"{where}: unknown key(s) {sorted(unknown)}")
        rules.append(SloRule(name, series, str(quantile), threshold_ns))
    if problems:
        raise InputFormatError("invalid SLO spec: " + "; ".join(problems))
    if not rules:
        raise InputFormatError("invalid SLO spec: 'slo' rule list is empty")
    return tuple(rules)


def load_slo_spec(path: str | Path) -> tuple[SloRule, ...]:
    """Read and parse a spec file."""
    try:
        with Path(path).open() as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read SLO spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    return parse_slo_spec(doc)


def evaluate_slo(
    report: dict, rules: Sequence[SloRule] | None = None
) -> list[SloResult]:
    """Apply ``rules`` (default: :data:`DEFAULT_SLO_SPEC`) to a report.

    Returns one result per (rule, matching series), plus a failing
    no-match result for rules that matched nothing.
    """
    validate_report(report)
    if rules is None:
        rules = parse_slo_spec(DEFAULT_SLO_SPEC)
    latencies: Mapping[str, dict] = report.get("latencies", {})
    results: list[SloResult] = []
    for rule in rules:
        matched = False
        for series in sorted(latencies):
            if not fnmatchcase(series, rule.series):
                continue
            matched = True
            observed = int(latencies[series]["quantiles"][rule.quantile])
            results.append(
                SloResult(rule, series, observed, observed <= rule.threshold_ns)
            )
        if not matched:
            results.append(SloResult(rule, None, None, False))
    return results


def slo_passed(results: Sequence[SloResult]) -> bool:
    """True when every evaluated (rule, series) pair met its objective."""
    return all(result.passed for result in results)


def format_slo_results(results: Sequence[SloResult]) -> str:
    """Fixed-width pass/fail rendering (the ``repro slo`` view)."""
    if not results:
        return "no SLO rules evaluated"
    name_width = max(len(r.rule.name) for r in results)
    series_width = max(len(r.series or "(no match)") for r in results)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        series = result.series or "(no match)"
        lines.append(
            f"{status}  {result.rule.name.ljust(name_width)}  "
            f"{series.ljust(series_width)}  {result.reason}"
        )
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"slo: {len(results) - failed}/{len(results)} objectives met"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
