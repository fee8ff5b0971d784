"""Shared infrastructure for the benchmark suite.

Every module regenerates one artifact of the paper's evaluation (a graph,
an in-text claim, or a design-choice ablation; see DESIGN.md section 4).
Modules print the same series the paper plots and use pytest-benchmark to
time a representative search batch on each index.

Scale: the paper uses 200 000 tuples.  The default here is
``default_scale()`` (20 000, override with REPRO_SCALE / REPRO_FULL=1);
EXPERIMENTS.md records a full-scale 200K run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import build_index, default_scale, format_table, run_experiment
from repro.workloads import qar_sweep

# Every benchmark run leaves a machine-readable BENCH_<name>.json behind
# (schema repro.bench-report/v2) unless the caller points REPRO_REPORT_DIR
# elsewhere or sets it to "" to suppress.
os.environ.setdefault(
    "REPRO_REPORT_DIR", str(Path(__file__).resolve().parent.parent / "results" / "reports")
)


def graph_experiment(name, spec, scale=None, config=None, queries_per_qar=30, seed=42):
    """Build the four index types on a figure's dataset and run the sweep."""
    n = scale or default_scale()
    dataset = spec.dataset(n, seed)
    indexes = {
        kind: build_index(kind, dataset, config)
        for kind in ("R-Tree", "SR-Tree", "Skeleton R-Tree", "Skeleton SR-Tree")
    }
    result = run_experiment(
        name,
        dataset,
        config=config,
        queries_per_qar=queries_per_qar,
        indexes=indexes,
    )
    print()
    print(format_table(result))
    for claim in spec.claims:
        print(f"  paper claim: {claim}")
    return result, indexes


#: Shape assertions are calibrated for the default 20K scale; below this
#: the spanning-record geometry degenerates (cells get too wide relative
#: to the interval lengths) and only the timing benches remain meaningful.
requires_default_scale = pytest.mark.skipif(
    default_scale() < 16_000,
    reason="shape assertions are calibrated for REPRO_SCALE >= 16000",
)

_experiment_cache: dict[str, tuple] = {}


def get_experiment(graph_id: str):
    """Session-cached graph experiment: modules asserting cross-graph
    claims reuse the builds instead of repeating them."""
    from repro.bench import FIGURES

    if graph_id not in _experiment_cache:
        _experiment_cache[graph_id] = graph_experiment(graph_id, FIGURES[graph_id])
    return _experiment_cache[graph_id]


def search_batch(index, qar=1.0, count=25, seed=7):
    """A closure running ``count`` searches; used as the benchmark body."""
    queries = qar_sweep(qars=(qar,), count=count, seed=seed)[qar]

    def run():
        total = 0
        for q in queries:
            total += len(index.search(q))
        return total

    return run


@pytest.fixture(scope="session")
def bench_scale():
    return default_scale()
