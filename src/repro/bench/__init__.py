"""Experiment harness: Section 5's protocol, figures, and reports."""

from .cost_model import expected_node_accesses, predict_qar_series
from .experiment import (
    INDEX_TYPES,
    PREDICTION_FRACTION,
    ExperimentResult,
    build_index,
    default_scale,
    fresh_index,
    run_experiment,
)
from .figures import FIGURES, FigureSpec, hqar_mean, vqar_mean
from .plot import ascii_plot
from .report import (
    experiment_report,
    format_table,
    print_result,
    to_csv,
    write_experiment_report,
)

__all__ = [
    "INDEX_TYPES",
    "PREDICTION_FRACTION",
    "ExperimentResult",
    "build_index",
    "fresh_index",
    "default_scale",
    "run_experiment",
    "FIGURES",
    "FigureSpec",
    "ascii_plot",
    "expected_node_accesses",
    "predict_qar_series",
    "hqar_mean",
    "vqar_mean",
    "format_table",
    "print_result",
    "to_csv",
    "experiment_report",
    "write_experiment_report",
]
