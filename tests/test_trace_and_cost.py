"""Tests for the analytical cost model."""

import math

import pytest

from repro import RTree, point
from repro.bench import expected_node_accesses, predict_qar_series
from repro.bench.experiment import build_index
from repro.exceptions import WorkloadError
from repro.workloads import dataset_I1, qar_sweep


class TestCostModel:
    def test_single_leaf_tree(self):
        tree = RTree()
        tree.insert(point(5, 5))
        # Only the root exists: exactly one access regardless of shape.
        assert expected_node_accesses(tree, 1000, 1000) == 1.0

    def test_monotone_in_query_size(self, small_config):
        tree = build_index("R-Tree", dataset_I1(2000, seed=7), small_config)
        small = expected_node_accesses(tree, 100, 100)
        large = expected_node_accesses(tree, 10_000, 10_000)
        assert small < large

    def test_predicts_measured_accesses(self, small_config):
        """The model must track reality closely: uniform data, uniform
        query centroids — exactly its assumptions."""
        tree = build_index("SR-Tree", dataset_I1(3000, seed=8), small_config)
        qars = (0.01, 1.0, 100.0)
        predicted = predict_qar_series(tree, qars)
        queries = qar_sweep(qars=qars, count=60, seed=9)
        for qar, pred in zip(qars, predicted):
            tree.stats.reset_search_counters()
            for q in queries[qar]:
                tree.search(q)
            measured = tree.stats.avg_nodes_per_search
            assert pred == pytest.approx(measured, rel=0.35), qar

    def test_predicts_index_ordering(self, small_config):
        """Whatever structure wins on vertical slivers, the model must
        predict the same winner that measurement finds."""
        data = dataset_I1(3000, seed=10)
        trees = {
            kind: build_index(kind, data, small_config)
            for kind in ("R-Tree", "Skeleton R-Tree")
        }
        w, h = math.sqrt(1e6 * 1e-4), math.sqrt(1e6 / 1e-4)
        predicted = {k: expected_node_accesses(t, w, h) for k, t in trees.items()}
        queries = qar_sweep(qars=(0.0001,), count=60, seed=9)[0.0001]
        measured = {}
        for kind, tree in trees.items():
            tree.stats.reset_search_counters()
            for q in queries:
                tree.search(q)
            measured[kind] = tree.stats.avg_nodes_per_search
        predicted_winner = min(predicted, key=predicted.get)
        measured_winner = min(measured, key=measured.get)
        assert predicted_winner == measured_winner
        for kind in trees:
            assert predicted[kind] == pytest.approx(measured[kind], rel=0.35)

    def test_invalid_inputs_rejected(self):
        tree = RTree()
        tree.insert(point(0, 0))
        with pytest.raises(WorkloadError):
            expected_node_accesses(tree, -1, 10)
        with pytest.raises(WorkloadError):
            predict_qar_series(tree, qars=(0.0,))
