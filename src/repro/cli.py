"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``  — write one of the paper's datasets (I1-I4, R1-R2) to CSV;
* ``experiment`` — run the Section 5 protocol on a distribution (or a CSV
  produced by ``generate``) and print the table / ASCII graph;
* ``inspect``   — build one index type and print its structural metrics;
* ``graphs``    — reproduce one or more of the paper's Graphs 1-6;
* ``trace``     — run a search workload with tracing on and dump the
  JSONL event stream;
* ``serve``     — run the sharded serving tier behind a line-delimited
  JSON TCP front-end until interrupted;
* ``stats``     — pretty-print a machine-readable ``BENCH_*.json`` report
  (``experiment`` and ``graphs`` write them);
* ``fsck``      — verify a checkpointed page store: recover the page
  table, CRC-check every page, rebuild the tree, run the structural
  invariant checker, and scan the write-ahead log (if any) for valid
  records and torn tails;
* ``lint``      — run the repository's AST lint rules (R1-R4, R6, R8; see
  ``repro.analysis``) over Python sources; exit 0 clean, 1 findings,
  2 usage error; ``--strict-ignores`` fails on stale suppressions;
* ``racecheck`` — run the concurrency stress harness and WAL group-
  commit workload under the runtime lock-order recorder; exit 1 when
  any hierarchy ascent, lock-graph cycle, undeclared level or
  unreleased lock is observed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import INDEX_CLASSES, Rect, measure_index
from .exceptions import InputFormatError
from .obs import JsonlSink, NULL_TRACER, RingBufferSink, TeeSink, Tracer
from .obs.report import format_report, load_report

__all__ = ["main"]

#: Default directory for machine-readable run reports.
DEFAULT_REPORT_DIR = "results/reports"

# The laboratory (`repro.bench`, `repro.workloads`, and numpy with them) is
# imported by the subcommands that use it, never here: `repro serve` starts
# without it.  So the parser spells the names of `workloads.DATASETS` and
# `bench.FIGURES` itself (tests/test_cli.py holds both pairs equal).
INDEX_TYPES = tuple(INDEX_CLASSES)
DATASET_NAMES = ("I1", "I2", "I3", "I4", "R1", "R2")
GRAPH_NAMES = ("graph1", "graph2", "graph3", "graph4", "graph5", "graph6")


def _report_dir(args) -> str:
    """Resolve the report directory: explicit --report-dir beats the
    REPRO_REPORT_DIR environment variable beats the default.  An empty
    value (or --no-report) suppresses the report."""
    if args.no_report:
        return ""
    if args.report_dir is not None:
        return args.report_dir
    return os.environ.get("REPRO_REPORT_DIR", DEFAULT_REPORT_DIR)


def _load_csv(path: Path) -> list[Rect]:
    """Parse a ``repro generate`` CSV; malformed rows raise ``ValueError``
    naming the file and line."""
    rects = []
    try:
        fh = path.open()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("x_low"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise InputFormatError(
                    f"{path}:{line_no}: expected 4 comma-separated values "
                    f"(x_low,y_low,x_high,y_high), got {len(parts)}"
                )
            try:
                x_lo, y_lo, x_hi, y_hi = map(float, parts)
            except ValueError:
                raise InputFormatError(
                    f"{path}:{line_no}: non-numeric value in row {line!r}"
                ) from None
            try:
                rects.append(Rect((x_lo, y_lo), (x_hi, y_hi)))
            except Exception as exc:
                raise InputFormatError(f"{path}:{line_no}: {exc}") from None
    if not rects:
        raise InputFormatError(f"{path}: no rectangles found")
    return rects


def _dataset(args) -> list[Rect]:
    if args.input:
        return _load_csv(Path(args.input))
    from .workloads import DATASETS

    return DATASETS[args.dist](args.n, args.seed)


def _cmd_generate(args) -> int:
    from .workloads import DATASETS

    rects = DATASETS[args.dist](args.n, args.seed)
    out = Path(args.output)
    with out.open("w") as fh:
        fh.write("x_low,y_low,x_high,y_high\n")
        for r in rects:
            fh.write(f"{r.lows[0]},{r.lows[1]},{r.highs[0]},{r.highs[1]}\n")
    print(f"wrote {len(rects)} rectangles ({args.dist}, seed {args.seed}) to {out}")
    return 0


def _run_experiment(name: str, rects: list[Rect], args, kinds=INDEX_TYPES, csv=None) -> None:
    """Run the Section 5 protocol; print the table (and plot), write the
    series and the report the flags ask for."""
    from .bench import ascii_plot, format_table, run_experiment, to_csv, write_experiment_report

    result = run_experiment(
        name,
        rects,
        index_types=kinds,
        queries_per_qar=args.queries,
        report_dir="",  # the CLI writes (or skips) the report itself
    )
    print(format_table(result))
    if args.plot:
        print()
        print(ascii_plot(result))
    if csv:
        Path(csv).write_text(to_csv(result) + "\n")
        print(f"series written to {csv}")
    report_dir = _report_dir(args)
    if report_dir:
        path = write_experiment_report(result, report_dir)
        print(f"report written to {path}")


def _cmd_experiment(args) -> int:
    kinds = INDEX_TYPES if args.index == "all" else (args.index,)
    _run_experiment(args.dist or "custom", _dataset(args), args, kinds, args.csv)
    return 0


def _cmd_inspect(args) -> int:
    from .bench import build_index

    rects = _dataset(args)
    index = build_index(args.index, rects)
    metrics = measure_index(index)
    print(f"{args.index} over {len(rects)} records:")
    print(metrics.summary())
    stats = index.stats.snapshot()
    interesting = (
        "inserts", "splits", "spanning_placements", "cuts",
        "demotions", "promotions", "coalesces",
    )
    print("  " + "  ".join(f"{k}={stats[k]}" for k in interesting))
    return 0


def _cmd_graphs(args) -> int:
    from .bench import FIGURES

    for graph_id in args.graph:
        spec = FIGURES[graph_id]
        print(f"\n## {graph_id}: {spec.title}")
        _run_experiment(graph_id, spec.dataset(args.n, args.seed), args)
    return 0


def _cmd_trace(args) -> int:
    """Run a traced search workload and dump the JSONL event stream."""
    from .bench import build_index
    from .workloads import qar_sweep

    rects = _dataset(args)
    out = Path(args.output)
    ring = RingBufferSink()
    with JsonlSink(out) as jsonl:
        tracer = Tracer(TeeSink(ring, jsonl))
        build_tracer = tracer if args.phase in ("build", "both") else None
        index = build_index(args.index, rects, tracer=build_tracer)
        index.tracer = NULL_TRACER
        if args.buffer_bytes:
            from .storage import SimulatedDisk
            from .store import open_store

            open_store(
                SimulatedDisk(), tree=index, buffer_bytes=args.buffer_bytes, tracer=tracer
            )
        if args.phase in ("search", "both"):
            index.tracer = tracer
            queries = qar_sweep((args.qar,), args.queries, seed=args.seed)[args.qar]
            for query in queries:
                index.search(query)
            index.tracer = NULL_TRACER
        events = jsonl.events_written
    by_type: dict[str, int] = {}
    for event in ring:
        by_type[event.etype] = by_type.get(event.etype, 0) + 1
    print(f"wrote {events} events to {out}")
    for etype, count in sorted(by_type.items(), key=lambda kv: -kv[1]):
        print(f"  {etype}: {count}")
    if args.phase in ("search", "both"):
        print(
            f"searches: {index.stats.searches}, "
            f"avg nodes/search: {index.stats.avg_nodes_per_search:.1f}"
        )
    return 0


def _cmd_fsck(args) -> int:
    """Verify a FileDisk store end to end: pages, recovered tree, log."""
    from .core.validation import check_index
    from .exceptions import IndexStructureError, PageCorruptionError, StorageError
    from .storage import FileDisk, SimulatedDisk, recover_tree, verify_page, wal_directory_for

    if not os.path.exists(args.path):
        # FileDisk would create an empty store at a missing path; a
        # typo'd path must not masquerade as a healthy (new) store.
        print(f"fsck {args.path}: no such file")
        return 1
    try:
        disk = FileDisk(args.path)
    except StorageError as exc:
        print(f"fsck {args.path}: unrecoverable: {exc}")
        return 1
    status = 0
    # fsck is read-only, and recovery replays the log onto the disk it is
    # given: that is a copy of the pages in memory, under the same sidecar.
    image = SimulatedDisk()
    image.checkpoint_info = disk.checkpoint_info  # type: ignore[attr-defined]
    try:
        print(
            f"fsck {args.path}: recovered generation {disk.generation} "
            f"from {disk.recovered_from!r} sidecar state"
        )
        blank = 0
        violations: list[str] = []
        page_ids = disk.page_ids()
        for page_id in page_ids:
            data = disk.read_page(page_id)
            image.allocate(page_id, len(data))
            image.write_page(page_id, data)
            if data.count(0) == len(data):
                blank += 1  # allocated but never checkpointed
                continue
            try:
                verify_page(data, page_id)
            except (PageCorruptionError, StorageError) as exc:
                violations.append(str(exc))
        info = disk.checkpoint_info or {}
    finally:
        disk.close(sync=False)  # never commit a generation
    print(
        f"  pages: {len(page_ids)} scanned, {blank} blank, "
        f"{len(violations)} checksum violation(s)"
    )
    for message in violations:
        print(f"    {message}")
    if violations:
        status = 1
        print("  tree: skipped structural check (corrupt pages present)")
    else:
        # The store's state is checkpoint + log tail: check what an open
        # would load, and count what its sweep would free.
        try:
            tree, _ = recover_tree(image, wal_directory_for(args.path))
            check_index(tree)
        except (StorageError, IndexStructureError) as exc:
            print(f"  tree: FAILED: {exc}")
            status = 1
        else:
            if tree._loaded_pages is None:
                print("  tree: no checkpoint metadata recorded; skipping structural check")
            else:
                print(
                    f"  tree: loaded {len(tree)} records "
                    f"(height {tree.height}); structural invariants OK"
                )
                garbage = set(image.page_ids()) - set(tree._loaded_pages[1].values())
                print(
                    f"  pages: {len(garbage)} page(s) unreachable from the root "
                    f"({sum(map(image.page_size, garbage))} bytes)"
                )
    status = max(status, _fsck_wal(args.path, info))
    print("fsck: " + ("clean" if status == 0 else "PROBLEMS FOUND"))
    return status


def _fsck_wal(path: str, checkpoint_info: dict) -> int:
    """Scan the store's write-ahead log, if it has one; returns 0/1.

    A torn tail is *expected* WAL semantics (a crash mid-append tears the
    last record; replay stops cleanly before it), so it is reported but
    is not a problem.  Records older than the checkpoint's recovery LSN
    replaying as no-ops is likewise normal after a crash mid-truncation.
    """
    from .exceptions import StorageError
    from .storage import scan_wal, wal_directory_for

    directory = wal_directory_for(path)
    if not directory.is_dir():
        return 0
    try:
        info = scan_wal(directory)
    except (StorageError, OSError) as exc:
        print(f"  wal: FAILED to scan {directory}: {exc}")
        return 1
    lsn_range = (
        f"LSNs {info.first_lsn}..{info.last_lsn}" if info.records else "no records"
    )
    tail = "torn tail (unacknowledged work only)" if info.torn_tail else "clean tail"
    print(
        f"  wal: {info.segments} segment(s), {info.records} valid record(s) "
        f"({info.commits} commit(s), {lsn_range}, {info.bytes_scanned} bytes), {tail}"
    )
    recovery_lsn = int(checkpoint_info.get("wal_lsn") or 0)
    if info.records and info.last_lsn <= recovery_lsn:
        print(
            f"    all records predate the checkpoint (recovery LSN {recovery_lsn}); "
            "replay is a no-op"
        )
    return 0


def _cmd_racecheck(args) -> int:
    """Run the concurrency workloads under the runtime lock-order recorder."""
    import json

    from .concurrency.racecheck import run_racecheck

    report = run_racecheck(
        seed=args.seed,
        kinds=tuple(args.index.split(",")) if args.index else ("SR-Tree",),
        readers=args.readers,
        writers=args.writers,
        ops_per_thread=args.ops,
        wal_writers=args.wal_writers,
        wal_records=args.wal_records,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        graph = report["lock_order"]
        selftest = report["selftest"]
        print(
            f"racecheck: selftest "
            f"{'detected the planted inversion' if selftest['detected'] else 'FAILED to detect the planted inversion'}"
        )
        for item in report["workloads"]:
            desc = ", ".join(
                f"{k}={v}" for k, v in item.items() if k != "workload"
            )
            print(f"  workload {item['workload']}: {desc}")
        print(
            f"  lock graph: {len(graph['locks'])} locks, "
            f"{len(graph['edges'])} edges, "
            f"{len(graph['ascending_edges'])} ascending, "
            f"{len(graph['cycles'])} cycle(s), "
            f"{len(graph['risky_waits'])} risky wait(s), "
            f"{len(graph['unreleased'])} unreleased"
        )
        for edge in graph["ascending_edges"]:
            print(
                f"    ASCENT {edge['src']} ({edge['src_mode']}) -> "
                f"{edge['dst']} ({edge['dst_mode']}) x{edge['count']}"
            )
        for cycle in graph["cycles"]:
            print(f"    CYCLE {' -> '.join(cycle)}")
        for level in graph["undeclared_levels"]:
            print(f"    UNDECLARED lock level {level!r} (not in lockspec)")
        for held in graph["unreleased"]:
            print(f"    UNRELEASED {held['lock']} ({held['mode']}) by {held['thread']}")
        probe = report["overhead_probe"]
        print(
            f"  overhead probe: x{probe['overhead_ratio']:.2f} per latch "
            f"op while recording (off-path cost is one None check)"
        )
        print(f"racecheck: {'ok' if report['ok'] else 'FAILED'}")
        if args.output:
            print(f"report written to {args.output}")
    return 0 if report["ok"] else 1


def _cmd_lint(args) -> int:
    """Run the repository's AST lint rules (R1-R4, R6, R8) over Python sources."""
    import json

    from .analysis import all_rules, lint_paths
    from .analysis.engine import STALE_IGNORE_ID
    from .exceptions import ConfigError

    select = None
    if args.select:
        select = [rule_id.strip() for rule_id in args.select.split(",") if rule_id.strip()]
    paths = args.paths or ["src/repro"]
    try:
        diagnostics = lint_paths(paths, select=select, stale_ignores=True)
    except (ConfigError, InputFormatError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    errors = [d for d in diagnostics if d.rule != STALE_IGNORE_ID]
    warnings = [d for d in diagnostics if d.rule == STALE_IGNORE_ID]
    if args.format == "json":
        payload = {
            "version": 1,
            "rules": [
                {"id": rule.id, "name": rule.name, "description": rule.description}
                for rule in all_rules()
                if select is None or rule.id in select
            ],
            "count": len(errors),
            "stale_ignores": len(warnings),
            "findings": [diagnostic.to_dict() for diagnostic in diagnostics],
        }
        print(json.dumps(payload, indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
        noun = "finding" if len(errors) == 1 else "findings"
        summary = f"lint: {len(errors)} {noun}"
        if warnings:
            noun_w = "warning" if len(warnings) == 1 else "warnings"
            summary += f", {len(warnings)} stale-ignore {noun_w}"
        print(summary)
    if errors:
        return 1
    if warnings and args.strict_ignores:
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Serve the sharded tier over line-delimited JSON TCP until ^C."""
    import asyncio

    from .core.config import DOMAIN
    from .sharding import build_router, serve

    bounds = Rect(
        tuple(lo for lo, _ in DOMAIN), tuple(hi for _, hi in DOMAIN)
    )
    router = build_router(
        args.shards,
        bounds=bounds,
        transport=args.transport,
        buffer_bytes=args.buffer_bytes,
    )
    try:
        asyncio.run(serve(router, host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("interrupted; shutting down shards")
    finally:
        router.close()
    return 0


def _cmd_stats(args) -> int:
    """Pretty-print one or more BENCH_*.json run reports."""
    for i, path in enumerate(args.report):
        if i:
            print()
        print(format_report(load_report(Path(path))))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Segment Indexes (SIGMOD 1991) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a paper dataset to CSV")
    gen.add_argument("--dist", choices=DATASET_NAMES, required=True)
    gen.add_argument("-n", type=int, default=20_000)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    exp = sub.add_parser("experiment", help="run the Section 5 protocol")
    exp.add_argument("--dist", choices=DATASET_NAMES)
    exp.add_argument("--input", help="CSV from `repro generate` instead of --dist")
    exp.add_argument("-n", type=int, default=20_000)
    exp.add_argument("--seed", type=int, default=42)
    exp.add_argument("--queries", type=int, default=50)
    exp.add_argument(
        "--index", default="all", choices=("all",) + INDEX_TYPES
    )
    exp.add_argument("--plot", action="store_true", help="ASCII graph")
    exp.add_argument("--csv", help="write the series to this file")
    exp.add_argument(
        "--report-dir",
        default=None,
        help="directory for the BENCH_<name>.json run report "
        f"(default: $REPRO_REPORT_DIR or {DEFAULT_REPORT_DIR})",
    )
    exp.add_argument(
        "--no-report", action="store_true", help="skip the JSON run report"
    )
    exp.set_defaults(func=_cmd_experiment)

    ins = sub.add_parser("inspect", help="structural metrics of one index")
    ins.add_argument("--dist", choices=DATASET_NAMES)
    ins.add_argument("--input")
    ins.add_argument("-n", type=int, default=10_000)
    ins.add_argument("--seed", type=int, default=42)
    ins.add_argument("--index", default="Skeleton SR-Tree", choices=INDEX_TYPES)
    ins.set_defaults(func=_cmd_inspect)

    gra = sub.add_parser("graphs", help="reproduce the paper's graphs")
    gra.add_argument("graph", nargs="+", choices=GRAPH_NAMES)
    gra.add_argument("-n", type=int, default=20_000)
    gra.add_argument("--seed", type=int, default=42)
    gra.add_argument("--queries", type=int, default=50)
    gra.add_argument("--plot", action="store_true")
    gra.add_argument("--report-dir", default=None)
    gra.add_argument("--no-report", action="store_true")
    gra.set_defaults(func=_cmd_graphs)

    tra = sub.add_parser(
        "trace", help="run a workload with tracing on and dump JSONL"
    )
    tra.add_argument("--dist", choices=DATASET_NAMES)
    tra.add_argument("--input", help="CSV from `repro generate` instead of --dist")
    tra.add_argument("-n", type=int, default=10_000)
    tra.add_argument("--seed", type=int, default=42)
    tra.add_argument("--index", default="SR-Tree", choices=INDEX_TYPES)
    tra.add_argument("--queries", type=int, default=50)
    tra.add_argument("--qar", type=float, default=1.0, help="query aspect ratio")
    tra.add_argument(
        "--phase",
        choices=("build", "search", "both"),
        default="search",
        help="which phase(s) to trace",
    )
    tra.add_argument(
        "--buffer-bytes",
        type=int,
        default=0,
        help="attach a buffer pool of this size to also trace page I/O",
    )
    tra.add_argument("-o", "--output", required=True, help="JSONL output file")
    tra.set_defaults(func=_cmd_trace)

    srv = sub.add_parser(
        "serve", help="run the sharded serving tier over JSON TCP until ^C"
    )
    srv.add_argument("--shards", type=int, default=4)
    srv.add_argument(
        "--transport",
        default="process",
        choices=("local", "process"),
    )
    srv.add_argument("--buffer-bytes", type=int, default=128 * 1024)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="0 picks a free port")
    srv.set_defaults(func=_cmd_serve)

    sta = sub.add_parser("stats", help="pretty-print BENCH_*.json run reports")
    sta.add_argument("report", nargs="+", help="report file(s) to print")
    sta.set_defaults(func=_cmd_stats)

    fsck = sub.add_parser(
        "fsck", help="verify a checkpointed page store (checksums + structure)"
    )
    fsck.add_argument("path", help="FileDisk data file (with its .meta sidecar)")
    fsck.set_defaults(func=_cmd_fsck)

    lint = sub.add_parser(
        "lint", help="run the repository's AST lint rules (R1-R4, R6, R8)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--select",
        help="comma-separated rule ids to run (e.g. R1,R3); default: all",
    )
    lint.add_argument(
        "--strict-ignores",
        action="store_true",
        help="treat stale `# lint: ignore[...]` comments as errors",
    )
    lint.set_defaults(func=_cmd_lint)

    racecheck = sub.add_parser(
        "racecheck",
        help="run the stress harness + WAL workload under the runtime "
        "lock-order recorder; exit 1 on any hierarchy ascent, cycle, "
        "undeclared level or unreleased lock",
    )
    racecheck.add_argument("--seed", type=int, default=0)
    racecheck.add_argument(
        "--index",
        default="SR-Tree",
        help="comma-separated index kinds for the stress phase "
        "(default: SR-Tree)",
    )
    racecheck.add_argument("--readers", type=int, default=3)
    racecheck.add_argument("--writers", type=int, default=2)
    racecheck.add_argument(
        "--ops", type=int, default=80, help="operations per stress thread"
    )
    racecheck.add_argument("--wal-writers", type=int, default=4)
    racecheck.add_argument("--wal-records", type=int, default=160)
    racecheck.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    racecheck.add_argument(
        "--output", help="also write the JSON report to this path"
    )
    racecheck.set_defaults(func=_cmd_racecheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("experiment", "inspect", "trace") and not (
        args.dist or args.input
    ):
        raise SystemExit("either --dist or --input is required")
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    except BrokenPipeError:
        # stdout went away (e.g. `repro stats ... | head`); not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        raise SystemExit(f"{type(exc).__name__}: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
