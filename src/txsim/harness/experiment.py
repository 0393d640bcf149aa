"""Wiring one experiment cell: workload -> pipeline -> consensus -> storage.

Sharded configurations route through the sharded runner instead of the flat
pipelines; everything else dispatches on the configured lifecycle.  A sweep
runs a grid of cells varying exactly one parameter, and per-cell failures
become stalled rows rather than aborting the sweep.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from typing import List, Optional, Tuple

from ..core.configio import _build_config
from ..core.types import DesignConfig, ShardingMode, TxnOutcome, validate_config
from ..pipeline import Arrival, run_pipeline, txn_report
from ..sharding import ShardedRun
from ..workload import WorkloadSpec
from ..workload.spec import _build_spec
from .metrics import Metrics, metrics_from_run, percentile


def _sharded_metrics(result, cfg: DesignConfig, interval: int) -> Metrics:
    committed_times = result.runner.commit_times
    submit_times = result.runner.submit_times
    lat = sorted(
        committed_times[t] - submit_times[t] for t in committed_times if t in submit_times
    )
    outcomes = result.outcomes
    aborts = {}
    for o in outcomes.values():
        if o not in (TxnOutcome.COMMITTED, TxnOutcome.PENDING):
            aborts[o.name.lower()] = aborts.get(o.name.lower(), 0) + 1
    submitted = len(result.runner.txns)
    committed = result.committed
    pending = submitted - committed - sum(aborts.values())
    return Metrics(
        submitted=submitted,
        committed=committed,
        abort_counts=aborts,
        dropped=0,
        pending=pending,
        span_us=result.span,
        throughput_tps=result.throughput_tps,
        latency_p50_us=percentile(lat, 0.50),
        latency_p95_us=percentile(lat, 0.95),
        latency_p99_us=percentile(lat, 0.99),
        mean_execute_us=0.0,
        mean_order_us=0.0,
        mean_validate_us=0.0,
        messages_total=result.protocol_messages(),
        messages_per_commit=result.messages_per_cross_shard_commit(),
        state_bytes=sum(
            len(k) + len(v) for s in result.runner.shards for k, v in s.store.items()
        ),
        block_bytes=0,
        index_overhead_per_record=0.0,
        stalled=result.stalled,
        shard_count=result.shard_map.shard_count,
        cross_shard_ratio=result.cross_shard_ratio,
        blocked_count=result.blocked_count,
        reconfig_interval=interval,
    )


def run_experiment(
    cfg: DesignConfig,
    spec: WorkloadSpec,
    arrival: Arrival,
    seed: int = 0,
    trace_path=None,
    txn_log_path=None,
    nodes_per_shard: int = 3,
) -> Metrics:
    violations = validate_config(cfg)
    if violations:
        raise ValueError("invalid design config: " + "; ".join(violations))
    if cfg.sharding_mode is not ShardingMode.NONE:
        shard_count = max(1, cfg.node_count // nodes_per_shard)
        runner = ShardedRun(
            spec,
            shard_count=shard_count,
            cost_model=cfg.cost_model,
            bft_coordinator=cfg.sharding_mode is ShardingMode.BFT_COORDINATED_2PC,
            reconfiguration_interval=cfg.reconfiguration_interval,
            seed=seed,
            arrival_rate_tps=arrival.rate_tps or 2_000.0,
        )
        result = runner.run()
        return _sharded_metrics(result, cfg, cfg.reconfiguration_interval)
    res = run_pipeline(cfg, spec, arrival, seed, trace=trace_path is not None)
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(res.trace)
    if txn_log_path is not None:
        with open(txn_log_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(txn_report(res))
    return metrics_from_run(res)


# -- sweeps ----------------------------------------------------------------------

TABLE2_AXES = {
    "record_size_bytes": [10, 100, 1000, 5000],
    "theta": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "ops_per_txn": [1, 2, 4, 6, 8, 10],
    "node_count": [3, 5, 7, 11, 15, 19],
}
# defaults mirror the underlined values: 1000-byte records, theta 0, 1 op, 5 nodes


def table2_cells(axis: str, cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int):
    """Cells varying one Table-2 axis, defaults for everything else."""
    if axis not in TABLE2_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; one of {sorted(TABLE2_AXES)}")
    cells = []
    for value in TABLE2_AXES[axis]:
        if axis == "node_count":
            cell_cfg = dataclasses.replace(cfg, node_count=value)
            cell_spec = spec
        else:
            cell_cfg = cfg
            cell_spec = dataclasses.replace(spec, **{axis: value})
        cells.append((cell_cfg, cell_spec, arrival, seed))
    return cells


def sweep(cells) -> List[Tuple[DesignConfig, WorkloadSpec, Arrival, int, Metrics]]:
    """Run every cell; failures become stalled zero rows, never exceptions."""
    cells = list(cells)
    if not cells:
        raise ValueError("empty sweep grid")
    out = []
    for cfg, spec, arrival, seed in cells:
        try:
            metrics = run_experiment(cfg, spec, arrival, seed)
        except Exception:
            metrics = _failed_metrics(spec)
        out.append((cfg, spec, arrival, seed, metrics))
    return out


def _failed_metrics(spec: WorkloadSpec) -> Metrics:
    return Metrics(
        submitted=spec.txn_count,
        committed=0,
        abort_counts={},
        dropped=0,
        pending=spec.txn_count,
        span_us=0,
        throughput_tps=0.0,
        latency_p50_us=0,
        latency_p95_us=0,
        latency_p99_us=0,
        mean_execute_us=0.0,
        mean_order_us=0.0,
        mean_validate_us=0.0,
        messages_total=0,
        messages_per_commit=0.0,
        state_bytes=0,
        block_bytes=0,
        index_overhead_per_record=0.0,
        stalled=True,
    )


def _parse_arrival(data) -> Arrival:
    if data is None:
        return Arrival.closed_loop(16)
    mode = data.get("mode", "closed_loop")
    if mode == "open_loop":
        return Arrival.open_loop(float(data.get("rate_tps", 1000.0)))
    return Arrival.closed_loop(int(data.get("clients", 16)))


def sweep_cells_from_grid(text: str):
    """Parse a JSON grid file: base config/workload plus one varied axis."""
    data = json.loads(text)
    cfg = _build_config(dict(data.get("config", {})), dict(data.get("cost_model", {})))
    spec = _build_spec(dict(data.get("workload", {})))
    arrival = _parse_arrival(data.get("arrival"))
    seed = int(data.get("seed", 0))
    axis = data.get("axis")
    values = data.get("values", [])
    if axis is None or not values:
        raise ValueError("grid file needs 'axis' and a non-empty 'values' list")
    cells = []
    for value in values:
        scope, _, name = axis.partition(".")
        if scope == "workload":
            cell_cfg, cell_spec = cfg, dataclasses.replace(spec, **{name: value})
        elif scope == "config" and name.startswith("cost_model."):
            cm = dataclasses.replace(cfg.cost_model, **{name.split(".", 1)[1]: value})
            cell_cfg, cell_spec = dataclasses.replace(cfg, cost_model=cm), spec
        elif scope == "config":
            cell_cfg, cell_spec = dataclasses.replace(cfg, **{name: value}), spec
        else:
            raise ValueError(f"axis must start with workload. or config., got {axis!r}")
        cells.append((cell_cfg, cell_spec, arrival, seed))
    return cells


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
