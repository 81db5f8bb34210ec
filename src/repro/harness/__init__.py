"""Experiment harness regenerating the paper's tables and figures."""

from repro.harness.runner import ExperimentResult, ExperimentRunner
from repro.harness.configs import replica_placement_table
from repro.harness.matrix import CellResult, MatrixResult, MatrixRunner

__all__ = [
    "ExperimentRunner",
    "ExperimentResult",
    "replica_placement_table",
    "MatrixRunner",
    "MatrixResult",
    "CellResult",
]
