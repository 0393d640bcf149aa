"""Wiring one experiment cell: workload -> pipeline -> consensus -> storage.

``run_experiment`` runs every cell, flat or sharded.  A flat cell goes
through ``run_pipeline``, a sharded cell through ``ShardedRun``, which is a
pipeline too.  Both drive the simulator with the one drive loop
(``PipelineBase.drive``) and return a ``RunResult``, so one
``metrics_from_run`` builds every ``Metrics``, and either can write its trace
TSV.  A sweep runs a grid of cells varying exactly one parameter.  It checks
every cell's config before it runs any, so an invalid cell stops the sweep;
a cell that fails at run time becomes a stalled row.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional, Tuple

from ..core.configio import ConfigError, coerce, from_fields, read_as, with_field
from ..core.types import DesignConfig, InvalidConfig, ShardingMode, check_config, validate_config
from ..pipeline import Arrival, run_pipeline, txn_report
from ..sharding import ShardedRun
from ..workload import WorkloadSpec
from .metrics import Metrics, metrics_from_run


def run_experiment(
    cfg: DesignConfig,
    spec: WorkloadSpec,
    arrival: Arrival,
    seed: int = 0,
    trace_path=None,
    txn_log_path=None,
) -> Metrics:
    """Run one cell and measure it, writing its trace TSV and transaction log if asked."""
    trace = trace_path is not None
    if cfg.sharding_mode is ShardingMode.NONE:
        res = run_pipeline(cfg, spec, arrival, seed, trace=trace)
    else:
        check_config(cfg)
        res = ShardedRun(cfg, spec, arrival, seed, trace=trace).run()
    if trace:
        with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(res.trace)
    if txn_log_path is not None:
        with open(txn_log_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(txn_report(res))
    return metrics_from_run(res)


# -- sweeps ----------------------------------------------------------------------

def vary(cfg: DesignConfig, spec: WorkloadSpec, axis: str, value):
    """The cell with one axis set to ``value``, written as in a config or workload file.

    An axis is ``config.F``, ``config.cost_model.F`` or ``workload.F`` for
    any field F of ``DesignConfig``, ``CostModel`` or ``WorkloadSpec``.
    """
    scope, _, path = axis.partition(".")
    if scope == "config":
        return with_field(cfg, path, value), spec
    if scope == "workload":
        return cfg, with_field(spec, path, value)
    raise ConfigError(f"axis must start with workload. or config., got {axis!r}")


TABLE2_AXES = {
    "record_size_bytes": ("workload", [10, 100, 1000, 5000]),
    "theta": ("workload", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
    "ops_per_txn": ("workload", [1, 2, 4, 6, 8, 10]),
    "node_count": ("config", [3, 5, 7, 11, 15, 19]),
}
# defaults mirror the underlined values: 1000-byte records, theta 0, 1 op, 5 nodes


def table2_cells(axis: str, cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int):
    """Cells varying one Table-2 axis, defaults for everything else."""
    if axis not in TABLE2_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; one of {sorted(TABLE2_AXES)}")
    scope, values = TABLE2_AXES[axis]
    return [(*vary(cfg, spec, f"{scope}.{axis}", v), arrival, seed) for v in values]


def sweep(cells) -> List[Tuple[DesignConfig, WorkloadSpec, Arrival, int, Metrics]]:
    """Run every cell; a cell failing at run time becomes a stalled zero row.

    Every cell's config is checked before any runs: ``InvalidConfig`` names
    the first cell that ``validate_config`` rejects.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("empty sweep grid")
    for i, (cfg, *_) in enumerate(cells):
        violations = validate_config(cfg)
        if violations:
            raise InvalidConfig([f"cell {i}: {v}" for v in violations])
    out = []
    for cfg, spec, arrival, seed in cells:
        try:
            metrics = run_experiment(cfg, spec, arrival, seed)
        except Exception:
            metrics = Metrics(submitted=spec.txn_count, pending=spec.txn_count, stalled=True)
        out.append((cfg, spec, arrival, seed, metrics))
    return out


def parse_arrival(data) -> Arrival:
    """An ``Arrival`` from ``"open_loop:RATE"``/``"closed_loop:CLIENTS"`` or a grid object.

    The grid object is ``{"mode": ..., "rate_tps": ..., "clients": ...}``.
    Whatever is left out defaults to closed loop, 16 clients, 1000 tps.
    """
    if isinstance(data, str):
        mode, _, value = data.partition(":")
        data = {"mode": mode}
        if value:
            data["rate_tps" if mode == "open_loop" else "clients"] = value
    data = data or {}
    mode = data.get("mode", "closed_loop")
    if mode == "open_loop":
        return Arrival.open_loop(coerce(Arrival, "rate_tps", data.get("rate_tps", 1000.0)))
    if mode == "closed_loop":
        return Arrival.closed_loop(coerce(Arrival, "clients", data.get("clients", 16)))
    raise ValueError(f"arrival mode must be open_loop or closed_loop, got {mode!r}")


_GRID_KEYS = ("config", "workload", "arrival", "seed", "axis", "values")


def sweep_cells_from_grid(text: str):
    """Parse a JSON grid file: base config/workload plus one varied axis."""
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) - set(_GRID_KEYS):
        raise ConfigError(f"a grid is one JSON object with keys from: {', '.join(_GRID_KEYS)}")
    cfg = from_fields(DesignConfig, data.get("config", {}))
    spec = from_fields(WorkloadSpec, data.get("workload", {}))
    arrival = parse_arrival(data.get("arrival"))
    seed = read_as(int, "seed", data.get("seed", 0))
    axis = data.get("axis")
    values = data.get("values", [])
    if axis is None or not values:
        raise ValueError("grid file needs 'axis' and a non-empty 'values' list")
    return [(*vary(cfg, spec, axis, value), arrival, seed) for value in values]


# -- saturation ---------------------------------------------------------------------


def find_saturation_rate(
    cfg: DesignConfig,
    spec: WorkloadSpec,
    seed: int = 0,
    low_rate: float = 100.0,
    high_rate: float = 50_000.0,
    rounds: int = 8,
) -> float:
    """Binary-search the open-loop rate where latency exceeds 5x the unsaturated mean."""

    def mean_latency(rate: float) -> Optional[float]:
        res = run_pipeline(cfg, spec, Arrival.open_loop(rate), seed)
        lats = res.latencies()
        return statistics.mean(lats) if lats else None

    base = mean_latency(low_rate)
    if base is None:
        raise ValueError("no commits at the low probe rate")
    threshold = 5 * base
    lo, hi = low_rate, high_rate
    for _ in range(rounds):
        mid = (lo + hi) / 2
        lat = mean_latency(mid)
        if lat is not None and lat <= threshold:
            lo = mid
        else:
            hi = mid
    return lo
