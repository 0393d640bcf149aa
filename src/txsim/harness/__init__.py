"""Experiment runner: config grids in, deterministic CSV out."""

from .metrics import Metrics, percentile
from .experiment import (
    find_saturation_rate,
    parse_arrival,
    run_experiment,
    sweep,
    sweep_cells_from_grid,
    table2_cells,
    vary,
)
from .forecast import (
    ConsistencyReport,
    ForecastBand,
    check_forecast_consistency,
    corner_configs,
    forecast_band,
)
from .csvout import CSV_COLUMNS, emit_csv, run_row
from .trends import (
    authenticated_ledger_slows_large_records,
    ops_slow_throughput,
    skew_slows_throughput,
)

__all__ = [
    "CSV_COLUMNS",
    "ConsistencyReport",
    "ForecastBand",
    "Metrics",
    "authenticated_ledger_slows_large_records",
    "check_forecast_consistency",
    "ops_slow_throughput",
    "skew_slows_throughput",
    "corner_configs",
    "emit_csv",
    "find_saturation_rate",
    "forecast_band",
    "parse_arrival",
    "percentile",
    "run_experiment",
    "run_row",
    "sweep",
    "sweep_cells_from_grid",
    "table2_cells",
    "vary",
]
