"""Command-line entry points: run one cell, sweep a grid, forecast a design."""

from __future__ import annotations

import argparse
import sys

from ..core.configio import config_from_file
from ..core.types import InvalidConfig, check_config
from ..workload import workload_from_file
from .csvout import emit_csv, run_row
from .experiment import parse_arrival, run_experiment, sweep, sweep_cells_from_grid
from .forecast import forecast_band


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txsim",
        description="Deterministic simulator for distributed transactional system designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one (config, workload) cell")
    run_p.add_argument("--config", required=True, help="design config file (key-value or JSON)")
    run_p.add_argument("--workload", required=True, help="workload spec file")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", required=True, help="CSV output path")
    run_p.add_argument("--trace", default=None, help="optional event-trace TSV path")
    run_p.add_argument(
        "--txn-log", default=None, help="optional per-transaction report TSV path"
    )
    run_p.add_argument(
        "--arrival",
        default="closed_loop:16",
        help="open_loop:RATE_TPS or closed_loop:CLIENTS (default closed_loop:16)",
    )

    sweep_p = sub.add_parser("sweep", help="run a one-axis grid of cells")
    sweep_p.add_argument("--grid", required=True, help="JSON grid file")
    sweep_p.add_argument("--out", required=True, help="CSV output path")

    fc_p = sub.add_parser("forecast", help="print the throughput band for a config")
    fc_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = config_from_file(args.config)
            spec = workload_from_file(args.workload)
            arrival = parse_arrival(args.arrival)
            metrics = run_experiment(
                cfg, spec, arrival, args.seed, trace_path=args.trace, txn_log_path=args.txn_log
            )
            emit_csv([run_row(cfg, spec, arrival, args.seed, metrics)], args.out)
            print(
                f"committed {metrics.committed}/{metrics.submitted} "
                f"at {metrics.throughput_tps:.1f} tps -> {args.out}"
            )
            return 0
        if args.command == "sweep":
            with open(args.grid, "r", encoding="utf-8") as fh:
                cells = sweep_cells_from_grid(fh.read())
            results = sweep(cells)
            rows = [run_row(cfg, spec, arr, seed, m) for cfg, spec, arr, seed, m in results]
            emit_csv(rows, args.out)
            print(f"{len(rows)} rows -> {args.out}")
            return 0
        if args.command == "forecast":
            cfg = config_from_file(args.config)
            check_config(cfg)
            band = forecast_band(cfg)
            flag = " (high variance under contention)" if band.high_variance else ""
            print(f"tier {band.tier} of 4 (1 slowest): {band.label}{flag}")
            return 0
    except InvalidConfig as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
