"""Run one workload: the command ``BENCHMARK.json`` names.

    python3 perf/run.py --workload engine_fit --seed 7 --seconds 10 --trace 0

prints the workload's metrics by name and unit, then — as the last line of
standard output — one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Exit status 1 when an operation failed or an
answer diverged from the oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# Import as the ``perf`` package (not as loose modules beside this script),
# and ``repro`` from the checkout's source tree.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _ROOT / "perf"]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"nothing to measure: {_ROOT / 'src' / 'repro'} is not in this checkout")

from perf import layers, workloads  # noqa: E402
from perf.measure import environment  # noqa: E402
from perf.spec import SCALES, load_spec, units  # noqa: E402
from perf.stacks import WorkDir  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", type=Path, help="also save the run's JSON (and spans) here")
    parser.add_argument(
        "--sabotage", choices=("oracle", "server"),
        help="inject a fault; the smoke tests use it to see failures reported",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]

    with WorkDir() as work:
        if args.trace:
            outcome = layers.TRACES[args.workload](args.seed, scale, work, args.out)
            unit_of = units(spec, "per_layer")
        else:
            outcome = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, scale, work, args.sabotage
            )
            unit_of = units(spec, "end_to_end")
        stamp = environment(work.path)

    missing = sorted(set(unit_of) ^ set(outcome.metrics))
    if missing:
        print(f"contract violation: metric names differ from BENCHMARK.json: {missing}")
        return 2
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit} for name, unit in unit_of.items()
    }
    tally = outcome.tally
    for name, entry in metrics.items():
        print(f"{args.workload:13s} {name:42s} {entry['value']:>16.4f} {entry['unit']}")
    if tally.errors:
        print(f"failed operations by kind: {dict(tally.errors)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            scale=vars(scale),
            environment=stamp,
            errors=dict(tally.errors),
            detail=outcome.detail,
        )
        path = args.out / f"{args.workload}.trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
