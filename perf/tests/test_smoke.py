"""Smoke tests for the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest perf/tests -q

Every workload runs at ``--scale tiny`` (under three seconds each) in a child
process, exactly as the driver runs it, and is held to ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf.__main__ import judge  # noqa: E402
from perf.inputs import dataset, q_mix  # noqa: E402
from perf.measure import Tally  # noqa: E402
from perf.oracle import Oracle  # noqa: E402
from perf.spans import Ladder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def run(
    workload: str, seed: int = 7, trace: int = 0, sabotage: str = "", attempt: int = 0
) -> tuple[int, dict]:
    """One cached child run; ``attempt`` only tells repeated runs apart."""
    command = [
        sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    ]
    if sabotage:
        command += ["--sabotage", sabotage]
    child = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert child.stdout.strip(), child.stderr
    return child.returncode, json.loads(child.stdout.strip().splitlines()[-1])


def test_spec_is_within_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_exactly_the_declared_metrics(workload: str, trace: int, section: str) -> None:
    status, result = run(workload, trace=trace)
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["index_qar", "engine_fit", "engine_spill"])
def test_counts_repeat_exactly_for_one_seed(workload: str) -> None:
    _, first = run(workload, trace=1)
    _, second = run(workload, trace=1, attempt=1)
    exact = [
        name for name in first["metrics"]
        if name.startswith("core.nodes_per_search.")
        or name in ("storage.pool_misses", "storage.wal.fsyncs", "storage.disk_reads")
    ]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_bypassed_layers_report_zero() -> None:
    _, qar = run("index_qar", trace=1)
    _, mvcc = run("engine_mvcc", trace=1)
    _, spill = run("engine_spill", trace=1)
    value = lambda result, name: result["metrics"][name]["value"]  # noqa: E731
    assert value(qar, "storage.pool_misses") == 0 and value(qar, "storage.wal.fsyncs") == 0
    assert value(mvcc, "concurrency.read_latch_acquires") == 0  # snapshot reads take no latch
    assert value(mvcc, "concurrency.mvcc.versions_published") > 0
    assert value(spill, "storage.pool_evictions") > 0
    assert value(spill, "storage.pool_misses") > 0.2 * value(spill, "storage.pool_hits")


def test_seed_changes_the_inputs_and_nothing_else_does() -> None:
    assert dataset(50, 1) == dataset(50, 1)
    assert dataset(50, 1) != dataset(50, 2)
    records = dataset(200, 3)
    assert q_mix(40, records, 3) == q_mix(40, records, 3)
    assert q_mix(40, records, 3) != q_mix(40, records, 4)
    _, a = run("index_qar", seed=7, trace=1)
    _, b = run("index_qar", seed=8, trace=1)
    name = "core.nodes_per_search.SkSR"
    assert a["metrics"][name]["value"] != b["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["index_qar", "engine_fit", "shard_tcp"])
def test_wrong_oracle_answer_is_a_failed_run(workload: str) -> None:
    status, result = run(workload, sabotage="oracle")
    assert status != 0 and not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_killed_server_is_a_failed_run_not_a_hang() -> None:
    status, result = run("shard_tcp", sabotage="server")
    assert status != 0 and not result["correct"]
    assert result["failed"] > 0


def test_oracle_matches_the_geometry_kernel() -> None:
    records = dataset(300, 5)
    oracle = Oracle(capacity=8)  # small: exercises growth
    oracle.add_all(records)
    oracle.remove(17)
    for op in q_mix(60, records, 5):
        kind, args = op
        if kind == "stab":
            want = {i + 1 for i, r in enumerate(records) if r.contains_point(args)}
        else:
            want = {i + 1 for i, r in enumerate(records) if r.intersects(args[0])}
        assert oracle.answer(op) == want - {17}


def test_compare_applies_the_bounds(capsys: pytest.CaptureFixture) -> None:
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    base = {"w": {name: 100.0 for name in bound}}
    within = {"w": dict(base["w"], search_qps=100 * (1 - bound["search_qps"] / 2),
                        search_p50_us=100 * (1 + bound["search_p50_us"] / 2))}
    beyond = {"w": dict(base["w"], search_qps=100 * (1 - bound["search_qps"] - 0.05))}
    assert judge(SPEC, base, within)
    assert not judge(SPEC, base, beyond)
    assert "REGRESSION" in capsys.readouterr().out


def test_negative_self_time_is_flagged_not_printed() -> None:
    ladder, tally = Ladder(), Tally()
    slow = [(sum, (range(2000),))] * 20
    fast = [(sum, (range(10),))] * 20
    ladder.measure("inner", "core", slow, tally)
    ladder.measure("outer", "storage", fast, tally)
    assert ladder.negative() == ["outer"]
    assert "NEGATIVE" in ladder.table()
