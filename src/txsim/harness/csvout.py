"""Deterministic CSV output: fixed column order, LF endings, stable formatting."""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable

from ..core.types import DesignConfig
from ..pipeline import Arrival
from ..workload import WorkloadSpec
from .metrics import Metrics

# the run reports its reconfiguration interval (``reconfig_interval``); the
# cost model is not a column
_DESIGN_COLUMNS = tuple(
    f.name
    for f in dataclasses.fields(DesignConfig)
    if f.name not in ("reconfiguration_interval", "cost_model")
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def run_row(
    cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int, metrics: Metrics
) -> dict:
    """One CSV row: the design, the workload cell, then every ``Metrics`` field."""
    arrival_s = (
        f"open_loop:{_fmt(arrival.rate_tps)}"
        if arrival.mode == "open_loop"
        else f"closed_loop:{arrival.clients}"
    )
    return {
        **{name: getattr(cfg, name) for name in _DESIGN_COLUMNS},
        "workload_kind": spec.kind,
        "record_count": spec.record_count,
        "record_size_bytes": spec.effective_record_size,
        "theta": spec.theta,
        "ops_per_txn": spec.ops_per_txn,
        "txn_count": spec.txn_count,
        "arrival": arrival_s,
        "seed": seed,
        **dataclasses.asdict(metrics),
    }


# the header is the keys of any row, here one of defaults
CSV_COLUMNS = list(run_row(DesignConfig(), WorkloadSpec(), Arrival.closed_loop(1), 0, Metrics()))


def emit_csv(rows: Iterable[dict], path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        missing = set(CSV_COLUMNS) - set(row)
        if missing:
            raise ValueError(f"row is missing columns: {sorted(missing)}")
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
