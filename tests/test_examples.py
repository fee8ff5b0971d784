"""Smoke tests: every example script runs (at reduced scale where needed)."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, env_extra: dict | None = None, timeout: int = 240):
    import os

    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_quickstart_runs():
    proc = _run("quickstart.py")
    assert proc.returncode == 0, proc.stderr
    assert "skeleton index: 10000 records" in proc.stdout
    assert "reopened from disk: 10000 records, 0 pages written by the open" in proc.stdout


def test_salary_history_runs():
    proc = _run("salary_history.py")
    assert proc.returncode == 0, proc.stderr
    assert "1975 head count: 500" in proc.stdout
    assert "salary history of" in proc.stdout


def test_rule_locks_runs():
    proc = _run("rule_locks.py")
    assert proc.returncode == 0, proc.stderr
    assert "fires ['rule2" in proc.stdout
    assert "escalation ratio" in proc.stdout


def test_map_overlay_components():
    """map_overlay's full main() builds 4 indexes over 15K features; the
    smoke test exercises its map synthesis + one index at reduced scale."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "map_overlay", EXAMPLES / "map_overlay.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    features = mod.synthesize_map(n_features=800, seed=1)
    assert len(features) >= 790
    kinds = {name.split(":")[0] for _, name in features}
    assert kinds == {"parcel", "road", "river", "region"}
    from repro.bench import build_index

    index = build_index("Skeleton SR-Tree", [r for r, _ in features])
    assert len(index) == len(features)


def test_cg_comparison_components():
    """cg_comparison's full main() is heavy; exercise its data generator and
    agreement check at reduced scale."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "cg_comparison", EXAMPLES / "cg_comparison.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    items = mod.make_intervals(300, seed=2)
    from repro.cg import IntervalTree, SegmentTree

    seg, itree = SegmentTree(items), IntervalTree(items)
    for x in (0.0, 500_000.0, 1_000_000.0):
        assert {p for _, _, p in seg.stab(x)} == {p for _, _, p in itree.stab(x)}


def test_reproduce_graphs_single_graph_small():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "reproduce_graphs.py"), "graph1"],
        capture_output=True,
        text=True,
        env={**__import__("os").environ, "REPRO_SCALE": "1500"},
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert "graph1" in proc.stdout
    assert "log10(QAR)" in proc.stdout


def test_reproduce_graphs_rejects_unknown():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "reproduce_graphs.py"), "graph99"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "unknown graphs" in proc.stdout
