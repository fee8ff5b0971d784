"""The serving-tier bench scaffold (``repro bench <scenario>``).

Everything the scenarios in :mod:`repro.bench.scenarios` share lives here
once: the R1 dataset and uniform query set, index construction over the
five served variants, the client-thread driver, the reference comparison,
and the report tail (the serving stack is :func:`repro.store.open_store`) —
:func:`run_bench` looks a scenario up, echoes its merged parameters as
the report's ``config``, times it, evaluates its acceptance bars and
writes the v2 report; :func:`format_bench` renders any scenario from its
table spec.

A scenario is a function whose keyword defaults *are* its parameter
declaration (the ``config`` echo and the CLI flags are both generated
from them), wrapped by :func:`scenario` with its acceptance bars and
tables declared as data.  ``perf/`` answers "did it get slower"; these
scenarios answer "does the mechanism still pay under injected stalls,
and is it still right".
"""

from __future__ import annotations

import inspect
import json
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from ..core.geometry import Rect
from ..core.packed import pack_tree
from ..core.rtree import RTree
from ..core.srtree import SRTree
from ..exceptions import ConfigError
from ..obs.latency import LatencyRecorder
from ..obs.report import build_report, write_report
from ..workloads.generators import DOMAIN, dataset_R1
from ..workloads.queries import uniform_queries
from .experiment import INDEX_TYPES, build_index

__all__ = [
    "BATCH_INDEX_TYPES",
    "CORRECTNESS",
    "TIMING",
    "Bar",
    "Table",
    "Scenario",
    "scenario",
    "workload",
    "build_tree",
    "drive",
    "divergences",
    "get_scenario",
    "run_bench",
    "failed_bars",
    "format_bench",
]

#: The four dynamic paper indexes plus the packed (bulk-loaded) tree —
#: the five variants the serving stack must treat uniformly.
BATCH_INDEX_TYPES: tuple[str, ...] = INDEX_TYPES + ("Packed SR-Tree",)

#: A *correctness* bar is deterministic: failing it fails the run (exit
#: status 1).  A *timing* bar depends on the machine and the scale; it is
#: evaluated into the report and printed, and never fails the run —
#: shared CI runners cannot hold it.
CORRECTNESS = "correctness"
TIMING = "timing"

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class Bar:
    """One acceptance bar: ``metrics[<dotted metric path>] <op> bound``."""

    metric: str
    op: str
    bound: float
    kind: str


@dataclass(frozen=True)
class Table:
    """One printed table: a row per key of ``metrics[rows]``.

    ``columns`` are ``(header, dotted path into the row, format)``; a
    ``*`` path segment expands to one column per key found there (its
    header is formatted with the key).  ``format`` is a format spec or a
    callable.
    """

    rows: str
    label: str
    columns: tuple[tuple[str, str, str | Callable[[Any], str]], ...]


@dataclass(frozen=True)
class Scenario:
    """A scenario function plus its bars and tables."""

    run: Callable[..., tuple[dict, dict]]
    bars: tuple[Bar, ...]
    tables: tuple[Table, ...]

    @property
    def name(self) -> str:
        return self.run.__name__

    @property
    def defaults(self) -> dict[str, Any]:
        """The scenario's parameters: its keyword defaults."""
        return {
            p.name: p.default for p in inspect.signature(self.run).parameters.values()
        }


def scenario(
    *, bars: Sequence[Bar], tables: Sequence[Table]
) -> Callable[[Callable[..., tuple[dict, dict]]], Scenario]:
    """Declare ``fn(**params) -> (metrics, latencies)`` a bench scenario."""
    return lambda fn: Scenario(fn, tuple(bars), tuple(tables))


# ----------------------------------------------------------------------
# Workload and stack
# ----------------------------------------------------------------------
def workload(
    records: int, queries: int, area_fraction: float, seed: int
) -> tuple[list[Rect], list[Rect]]:
    """The R1 uniform-rectangle dataset plus a uniform square query set."""
    return (
        dataset_R1(records, seed=seed),
        uniform_queries(queries, area_fraction, seed + 1, DOMAIN),
    )


def build_tree(kind: str, dataset: Sequence[Rect]) -> RTree:
    """One index of ``kind`` (see :data:`BATCH_INDEX_TYPES`) holding
    ``dataset``, payload = position: packed by STR, or built by
    :func:`~repro.bench.experiment.build_index` one insert at a time."""
    if kind == "Packed SR-Tree":
        return pack_tree([(rect, i) for i, rect in enumerate(dataset)], None, SRTree)
    return build_index(kind, dataset)


def drive(
    call: Callable[[Any], Any], items: Sequence[Any], threads: int, rounds: int = 1
) -> tuple[list[Any], LatencyRecorder, float]:
    """``threads`` clients make ``call(item)`` over ``items``, ``rounds`` times.

    Returns each item's (last) result in item order, the per-call
    latencies, and the wall-clock seconds.  Assignment is strided so
    every client sees the same mix of cheap and expensive items (block
    assignment would skew per-thread work) and concurrent writers
    interleave in time.
    """
    results: list[Any] = [None] * len(items)
    recorders = [LatencyRecorder() for _ in range(threads)]

    def client(t: int) -> None:
        record = recorders[t].record
        for _ in range(rounds):
            for i in range(t, len(items), threads):
                start = time.perf_counter_ns()
                results[i] = call(items[i])
                record(time.perf_counter_ns() - start)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(client, t) for t in range(threads)]:
            future.result()
    wall = time.perf_counter() - start
    for recorder in recorders[1:]:
        recorders[0].merge(recorder)
    return results, recorders[0], wall


def divergences(got: Sequence[Any], want: Sequence[Any]) -> int:
    """How many answers differ from the reference's, query by query."""
    return sum(1 for g, w in zip(got, want, strict=True) if g != w)


# ----------------------------------------------------------------------
# The report tail
# ----------------------------------------------------------------------
def _lookup(doc: Any, path: str) -> Any:
    for key in path.split("."):
        doc = doc[key]
    return doc


def get_scenario(name: str) -> Scenario:
    """The scenario called ``name``."""
    # Imported here so that `import repro.cli` (and with it `repro
    # serve`'s start-up) does not load the scenarios.
    from .scenarios import SCENARIOS

    spec = SCENARIOS.get(name)
    if spec is None:
        raise ConfigError(f"unknown bench scenario {name!r}; pick from {sorted(SCENARIOS)}")
    return spec


def run_bench(name: str, report_dir: str | None = None, **params: Any) -> dict:
    """Run scenario ``name`` with ``params`` over its defaults.

    Returns the v2 report document — ``config`` is the merged parameter
    set, ``extra.bars`` one verdict per acceptance bar — and writes it to
    ``report_dir`` as ``BENCH_<name>.json`` when one is given.
    """
    spec = get_scenario(name)
    config = spec.defaults
    unknown = sorted(set(params) - set(config))
    if unknown:
        raise ConfigError(
            f"bench {name}: unknown parameter(s) {unknown}; it takes {sorted(config)}"
        )
    config.update(params)
    start = time.perf_counter()
    metrics, latencies = spec.run(**config)
    wall_seconds = time.perf_counter() - start
    bars = []
    for bar in spec.bars:
        value = _lookup(metrics, bar.metric)
        bars.append({**asdict(bar), "value": value, "ok": _OPS[bar.op](value, bar.bound)})
    doc = build_report(
        name,
        config=config,
        wall_seconds=wall_seconds,
        metrics=metrics,
        latencies=latencies,
        extra={"bars": bars},
    )
    # The document as `load_report` reads it back: tuples are lists and
    # every key (shard ids, ...) is a string.
    doc = json.loads(json.dumps(doc))
    if report_dir:
        write_report(doc, report_dir)
    return doc


def failed_bars(doc: dict) -> list[str]:
    """The metrics of the correctness bars ``doc``'s run failed."""
    return [
        bar["metric"]
        for bar in doc["extra"]["bars"]
        if bar["kind"] == CORRECTNESS and not bar["ok"]
    ]


def _columns(table: Table, rows: dict) -> list[tuple[str, str, Any]]:
    """``table.columns`` with every ``*`` segment expanded over the keys
    the first row holds there."""
    columns = []
    for header, path, fmt in table.columns:
        head, star, tail = path.partition("*")
        if not star:
            columns.append((header, path, fmt))
            continue
        first = next(iter(rows.values()))
        for key in _lookup(first, head.rstrip(".")):
            columns.append((header.format(key), f"{head}{key}{tail}", fmt))
    return columns


def format_bench(doc: dict) -> str:
    """Fixed-width summary of a scenario's report: the parameters, its
    tables, and one ``ok``/``FAIL`` line per acceptance bar."""
    params = ", ".join(f"{k}={v}" for k, v in doc["config"].items())
    lines = [f"{doc['name']} bench  ({params})"]
    for table in get_scenario(doc["name"]).tables:
        rows = _lookup(doc["metrics"], table.rows)
        if not rows:
            continue
        columns = _columns(table, rows)
        widths = [max(len(header), 7) + 2 for header, _, _ in columns]
        width = max(len(table.label), *(len(str(label)) for label in rows)) + 2
        lines.append(
            table.label.ljust(width)
            + "".join(header.rjust(w) for (header, _, _), w in zip(columns, widths))
        )
        for label, row in rows.items():
            cells = []
            for (_, path, fmt), w in zip(columns, widths):
                value = _lookup(row, path)
                cells.append((fmt(value) if callable(fmt) else format(value, fmt)).rjust(w))
            lines.append(str(label).ljust(width) + "".join(cells))
    for bar in doc["extra"]["bars"]:
        value = bar["value"]
        shown = f"{value:.4g}" if isinstance(value, float) else value
        lines.append(
            f"{'ok' if bar['ok'] else 'FAIL':<5}{bar['metric'].replace('_', ' ')} = "
            f"{shown}  ({bar['kind']} bar: {bar['op']} {bar['bound']})"
        )
    return "\n".join(lines)
