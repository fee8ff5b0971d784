"""``python -m perf``: the whole set, the A/A check, a comparison, the trace.

    python -m perf run     --seed 1991 --out <dir>   every workload, one child process each
    python -m perf aa      [--runs N]                the set twice on this code, against the bounds
    python -m perf compare a.json b.json             two saved sets, against the bounds
    python -m perf trace   --seed 1991 --out <dir>   the traced run: waterfalls + per-layer metrics

Bounds, names and units come from ``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from .spec import ROOT, load_spec

Run = dict[str, dict[str, float]]  # workload -> metric -> value


def run_child(
    workload: str, seed: int, trace: int, extra: list[str], echo: bool
) -> tuple[dict, int]:
    """One workload in a fresh process; its result line and exit status."""
    command = [
        sys.executable, str(ROOT / "perf" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), *extra,
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        raise SystemExit(f"{workload}: no result line (exit {child.returncode})") from None
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result, child.returncode


def run_set(
    spec: dict, seed: int, trace: int, extra: list[str], echo: bool = True,
    only: "list[str] | None" = None,
) -> tuple[dict, bool]:
    """Every workload once; ``{workload: result}`` and whether all were correct."""
    results, ok = {}, True
    for workload in only or [w["name"] for w in spec["workloads"]]:
        result, status = run_child(workload, seed, trace, extra, echo)
        results[workload] = result
        ok = ok and status == 0 and result["correct"]
        error_rate = result["failed"] / result["attempted"]
        print(f"{workload:13s} error_rate {error_rate:.6f} ({result['failed']}/{result['attempted']})")
    return results, ok


def values(results: dict) -> Run:
    return {w: {m: e["value"] for m, e in r["metrics"].items()} for w, r in results.items()}


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative = better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def judge(spec: dict, a: Run, b: Run, spreads: "Run | None" = None) -> bool:
    """Print workload x metric: both values, the difference, the bound; True
    when no end-to-end metric of ``b`` is worse than ``a`` beyond its bound."""
    ok = True
    print(f"{'workload':13s} {'metric':18s} {'a':>12s} {'b':>12s} {'b worse by':>10s} {'bound':>6s} {'spread':>7s}")
    for workload in a:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a[workload] or name not in b.get(workload, {}):
                continue
            worse = worse_by(metric, a[workload][name], b[workload][name])
            verdict = "" if worse <= metric["bound"] else "  REGRESSION"
            ok = ok and not verdict
            spread = f"{spreads[workload][name]:7.3f}" if spreads else "      -"
            print(
                f"{workload:13s} {name:18s} {a[workload][name]:12.2f} {b[workload][name]:12.2f} "
                f"{worse:+10.3f} {metric['bound']:6.2f} {spread}{verdict}"
            )
    return ok


def medians(runs: list[Run]) -> Run:
    return {
        w: {m: statistics.median(r[w][m] for r in runs) for m in runs[0][w]} for w in runs[0]
    }


def spread_of(runs: list[Run]) -> Run:
    """Interquartile distance over the median, per workload and metric."""
    out: Run = {}
    for w in runs[0]:
        out[w] = {}
        for m in runs[0][w]:
            series = [r[w][m] for r in runs]
            q1, _, q3 = statistics.quantiles(series, n=4)
            out[w][m] = (q3 - q1) / statistics.median(series)
    return out


def common(args: argparse.Namespace) -> list[str]:
    return ["--scale", args.scale, "--seconds", str(args.seconds)]


def cmd_run(args: argparse.Namespace, spec: dict, trace: int = 0) -> int:
    results, ok = run_set(spec, args.seed, trace, [*common(args), "--out", str(args.out)])
    summary = args.out / ("trace.json" if trace else "run.json")
    summary.write_text(json.dumps({"seed": args.seed, "results": results}, indent=1) + "\n")
    print(f"saved {summary}")
    if trace:
        beside_end_to_end(args.out)
    return 0 if ok else 1


def beside_end_to_end(out: Path) -> None:
    """The waterfall's top level next to what the end-to-end run saw, when a
    ``run`` was saved in the same directory."""
    try:
        top = json.loads((out / "shard_tcp.trace1.json").read_text())["detail"]["waterfall"][-1]
        run = json.loads((out / "run.json").read_text())["results"]["shard_tcp"]["metrics"]
    except (OSError, KeyError, IndexError, ValueError):
        return
    print(
        f"shard_tcp: waterfall top ({top['level']}) {top['mean_us']:.1f} us mean; "
        f"end-to-end search_p50_us {run['search_p50_us']['value']:.1f} us (two connections)"
    )


def cmd_aa(args: argparse.Namespace, spec: dict) -> int:
    """The same code measured twice: ``--runs`` seeds, each run on both sides,
    the side that goes first alternating."""
    sides: tuple[list[Run], list[Run]] = ([], [])
    ok = True
    for i in range(args.runs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            results, correct = run_set(
                spec, args.seed + i, 0, common(args), echo=False,
                only=args.workload,
            )
            sides[side].append(values(results))
            ok = ok and correct
    spreads = spread_of(sides[0]) if args.runs >= 4 else None
    agree = judge(spec, medians(sides[0]), medians(sides[1]), spreads)
    if spreads:
        wide = [
            (w, m["name"]) for w in spreads for m in spec["end_to_end"]
            if m["name"] != "setup_s" and spreads[w][m["name"]] > m["bound"]
        ]
        for workload, name in wide:
            print(f"spread beyond bound: {workload} {name}")
        agree = agree and not wide
    print("A/A:", "agree within bounds" if agree and ok else "DISAGREE")
    return 0 if agree and ok else 1


def cmd_compare(args: argparse.Namespace, spec: dict) -> int:
    a, b = (values(json.loads(path.read_text())["results"]) for path in (args.a, args.b))
    return 0 if judge(spec, a, b) else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    spec = load_spec()
    for name in ("run", "trace", "aa"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=1991)
        p.add_argument("--scale", default="full")
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        if name == "aa":
            p.add_argument("--runs", type=int, default=1, help="seeds per side; the driver uses 10")
            p.add_argument("--workload", action="append", help="only this workload (repeatable)")
        else:
            p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args, spec)
    if args.command == "trace":
        return cmd_run(args, spec, trace=1)
    if args.command == "aa":
        return cmd_aa(args, spec)
    return cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
