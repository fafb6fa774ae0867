"""Benchmark harness: cost measurement, sweep running, reporting, the gate.

One module per concern; the actual per-figure experiment definitions live
in ``benchmarks/`` at the repository root (one file per paper table or
figure, see DESIGN.md Section 3).
"""

from .complexity import (
    measured_flops,
    theoretical_indexing_flops,
    theoretical_querying_flops,
)
from .gate import RegressionCheck, check_regression
from .reporting import format_table, metrics_block, speedup
from .runner import (
    ModelComparison,
    QueryMeasurement,
    compare_models,
    measure_queries,
    sweep_sizes,
)

__all__ = [
    "format_table",
    "speedup",
    "metrics_block",
    "QueryMeasurement",
    "ModelComparison",
    "measure_queries",
    "compare_models",
    "sweep_sizes",
    "measured_flops",
    "theoretical_indexing_flops",
    "theoretical_querying_flops",
    "RegressionCheck",
    "check_regression",
]
