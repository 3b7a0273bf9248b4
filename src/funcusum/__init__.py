"""Change-point detection for functional time series.

Weighted CUSUM of long-run functional principal component scores with
Darling-Erdos normalization, plus a functional AR(1) simulator and a
Monte Carlo harness for size/power studies.
"""

__version__ = "0.1.0"

from .basis import (Basis, CurveCSVError, CurveMatrix, FunctionalSample,
                    Grid, SingularFitError, bspline_basis, change_basis,
                    fit_sample, fourier_basis, read_curves_csv,
                    write_curves_csv)
from .cusum import (ApproximationFailureError, CusumStats, TestConfig,
                    TestResult, critical_value, cusum_stats, gumbel_critical,
                    gumbel_pvalue, normalizers, run_test, scores, statistic,
                    vostrikova_critical, vostrikova_pvalue, vostrikova_tail)
from .harness import (CellCoords, CellResult, ExperimentGrid, cells_to_csv,
                      format_table_panels, grid_sidecar, run_cell, run_grid)
from .lrcov import default_bandwidth, lag_cov, lag_window, lrcov_estimate
from .simulate import (ChangeSpec, Far1Simulator, IntegralKernel, SimSpec,
                       calibrate_kernel, make_change)

__all__ = [
    "ApproximationFailureError", "Basis", "CellCoords", "CellResult",
    "ChangeSpec", "CurveCSVError", "CurveMatrix", "CusumStats",
    "ExperimentGrid", "Far1Simulator", "FunctionalSample", "Grid",
    "IntegralKernel", "SimSpec", "SingularFitError", "TestConfig",
    "TestResult", "bspline_basis", "calibrate_kernel", "cells_to_csv",
    "change_basis", "critical_value", "cusum_stats", "default_bandwidth",
    "fit_sample", "format_table_panels", "fourier_basis", "grid_sidecar",
    "gumbel_critical", "gumbel_pvalue", "lag_cov", "lag_window",
    "lrcov_estimate", "make_change", "normalizers", "read_curves_csv",
    "run_cell", "run_grid", "run_test", "scores", "statistic",
    "vostrikova_critical", "vostrikova_pvalue", "vostrikova_tail",
    "write_curves_csv",
]
