"""Experiment harness: runs, sweeps, CSV stability, forecast, CLI."""

import hashlib
import json

import pytest

from txsim.core import (
    ConcurrencyMode,
    DesignConfig,
    IndexKind,
    ReplicationModel,
    ShardingMode,
)
from txsim.harness import (
    CSV_COLUMNS,
    check_forecast_consistency,
    corner_configs,
    emit_csv,
    emit_storage_csv,
    find_saturation_rate,
    forecast_band,
    parse_arrival,
    run_experiment,
    run_row,
    sweep,
    sweep_cells_from_grid,
    table2_cells,
)
from txsim.harness.cli import main as cli_main
from txsim.harness.csvout import parse_csv
from txsim.pipeline import Arrival
from txsim.sharding import ShardedRun
from txsim.simnet import FaultKind
from txsim.workload import WorkloadSpec, WorkloadKind


def trivial_config():
    return DesignConfig(
        concurrency_mode=ConcurrencyMode.SERIAL,
        ledger_enabled=False,
        index=IndexKind.PLAIN,
        node_count=1,
        tolerated_failures=0,
    )


def small_spec(**overrides):
    base = dict(
        kind=WorkloadKind.YCSB_UPDATE,
        record_count=100,
        record_size_bytes=100,
        txn_count=100,
        seed=13,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestRunExperiment:
    def test_trivial_single_node_commits_everything(self):
        metrics = run_experiment(trivial_config(), small_spec(), Arrival.open_loop(2000), seed=1)
        assert metrics.committed == 100
        assert metrics.aborted == 0
        assert metrics.throughput_tps > 0

    def test_invalid_config_is_rejected(self):
        cfg = DesignConfig(node_count=3, tolerated_failures=2)  # violates 2f+1
        with pytest.raises(ValueError, match="2f\\+1"):
            run_experiment(cfg, small_spec(), Arrival.open_loop(100), seed=1)

    def test_accounting_identity_holds(self):
        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
            ledger_enabled=False,
            node_count=5,
            tolerated_failures=2,
        )
        m = run_experiment(cfg, small_spec(theta=1.0), Arrival.closed_loop(8), seed=2)
        assert m.submitted == m.committed + m.aborted + m.pending + m.dropped

    def test_sharded_config_routes_to_sharded_runner(self):
        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
            ledger_enabled=False,
            sharding_mode=ShardingMode.TRUSTED_2PC,
            node_count=12,
            tolerated_failures=2,
        )
        m = run_experiment(cfg, small_spec(ops_per_txn=2), Arrival.open_loop(2000), seed=3)
        assert m.shard_count == 4
        assert m.cross_shard_ratio > 0
        assert not m.stalled

    def test_sharded_run_left_unsettled_reports_a_stall(self, monkeypatch):
        run = ShardedRun.run

        def crash_coordinator_then_run(runner, *args, **kwargs):
            runner.sim.inject_fault("coord", FaultKind.CRASHED, at_time=20_000)
            return run(runner, *args, **kwargs)

        monkeypatch.setattr(ShardedRun, "run", crash_coordinator_then_run)
        cfg = DesignConfig(sharding_mode=ShardingMode.TRUSTED_2PC, node_count=12, tolerated_failures=1)
        spec = small_spec(ops_per_txn=2, txn_count=200, seed=4)
        m = run_experiment(cfg, spec, Arrival.open_loop(2000), seed=4)
        assert m.pending > 0
        assert m.stalled

    @pytest.mark.parametrize(
        "mode, interval",
        [(ShardingMode.TRUSTED_2PC, 0), (ShardingMode.BFT_COORDINATED_2PC, 30_000)],
    )
    def test_sharded_closed_loop_settles_every_txn_with_bounded_clients(
        self, mode, interval, monkeypatch
    ):
        runners, inflight, peak = [], set(), [0]
        begin, finished = ShardedRun.begin_txn, ShardedRun.txn_finished

        def begin_txn(runner, txn_id):
            if runner not in runners:
                runners.append(runner)
            inflight.add(txn_id)
            peak[0] = max(peak[0], len(inflight))
            begin(runner, txn_id)

        def txn_finished(runner, record):
            inflight.discard(record.txn.id)
            finished(runner, record)

        monkeypatch.setattr(ShardedRun, "begin_txn", begin_txn)
        monkeypatch.setattr(ShardedRun, "txn_finished", txn_finished)
        cfg = DesignConfig(sharding_mode=mode, node_count=12, tolerated_failures=1,
                           reconfiguration_interval=interval)
        spec, arrival = small_spec(ops_per_txn=2, txn_count=200, seed=4), Arrival.closed_loop(8)
        rows = []
        for _ in range(2):
            m = run_experiment(cfg, spec, arrival, seed=4)
            assert not m.stalled and m.pending == 0
            assert m.committed + m.aborted == 200
            rows.append(run_row(cfg, spec, arrival, 4, m))
        assert rows[0] == rows[1]
        assert peak[0] == 8
        assert [r.pauses > 0 for r in runners] == [interval > 0] * 2


class TestParseArrival:
    @pytest.mark.parametrize(
        "text, grid, expected",
        [
            ("open_loop:2500", {"mode": "open_loop", "rate_tps": 2500}, Arrival.open_loop(2500)),
            ("open_loop", {"mode": "open_loop"}, Arrival.open_loop(1000)),
            ("closed_loop:8", {"mode": "closed_loop", "clients": 8}, Arrival.closed_loop(8)),
            ("closed_loop", {}, Arrival.closed_loop(16)),
        ],
    )
    def test_text_and_grid_forms_agree(self, text, grid, expected):
        assert parse_arrival(text) == parse_arrival(grid) == expected

    def test_missing_grid_arrival_is_closed_loop_16(self):
        assert parse_arrival(None) == Arrival.closed_loop(16)

    @pytest.mark.parametrize("data", ["poisson:5", {"mode": "poisson"}])
    def test_unknown_mode_is_rejected(self, data):
        with pytest.raises(ValueError, match="poisson"):
            parse_arrival(data)


class TestSweep:
    def test_theta_sweep_has_six_rows(self):
        cells = table2_cells(
            "theta", trivial_config(), small_spec(txn_count=40), Arrival.open_loop(2000), 1
        )
        results = sweep(cells)
        assert len(results) == 6
        assert [spec.theta for _, spec, _, _, _ in results] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_node_sweep_values(self):
        cfg = DesignConfig(
            concurrency_mode=ConcurrencyMode.ORDER_EXECUTE, node_count=5, tolerated_failures=1
        )
        cells = table2_cells("node_count", cfg, small_spec(txn_count=30), Arrival.open_loop(2000), 1)
        assert [c.node_count for c, _, _, _ in cells] == [3, 5, 7, 11, 15, 19]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep([])

    def test_cell_failure_becomes_stalled_row(self):
        bad_cfg = DesignConfig(node_count=3, tolerated_failures=2)
        results = sweep([(bad_cfg, small_spec(), Arrival.open_loop(100), 1)])
        assert len(results) == 1
        assert results[0][4].stalled

    def test_grid_file_round_trip(self):
        grid = {
            "config": {
                "concurrency_mode": "serial",
                "ledger_enabled": False,
                "index": "plain",
                "node_count": 1,
                "tolerated_failures": 0,
            },
            "workload": {"kind": "ycsb_update", "record_count": 50, "txn_count": 20, "seed": 4},
            "arrival": {"mode": "open_loop", "rate_tps": 2000},
            "axis": "workload.theta",
            "values": [0.0, 1.0],
        }
        cells = sweep_cells_from_grid(json.dumps(grid))
        assert len(cells) == 2
        assert cells[0][1].theta == 0.0 and cells[1][1].theta == 1.0

    def test_grid_requires_axis_and_values(self):
        with pytest.raises(ValueError, match="axis"):
            sweep_cells_from_grid('{"workload": {}, "values": []}')


class TestCsv:
    def test_zero_rows_yields_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_round_trip(self, tmp_path):
        cfg, spec, arrival = trivial_config(), small_spec(txn_count=30), Arrival.open_loop(2000)
        metrics = run_experiment(cfg, spec, arrival, seed=5)
        row = run_row(cfg, spec, arrival, 5, metrics)
        path = tmp_path / "one.csv"
        emit_csv([row], path)
        parsed = parse_csv(path.read_text())
        assert len(parsed) == 1
        assert parsed[0]["committed"] == "30"
        assert parsed[0]["concurrency_mode"] == "serial"

    def test_byte_identical_across_runs(self, tmp_path):
        cfg, spec, arrival = trivial_config(), small_spec(txn_count=50), Arrival.open_loop(2000)
        eol = []
        for name in ("a.csv", "b.csv"):
            metrics = run_experiment(cfg, spec, arrival, seed=6)
            path = tmp_path / name
            emit_csv([run_row(cfg, spec, arrival, 6, metrics)], path)
            eol.append(path.read_bytes())
        assert eol[0] == eol[1]
        assert b"\r" not in eol[0]  # LF endings only

    def test_golden_default_run_digest(self, tmp_path):
        # frozen after first generation; any change to metrics, formatting,
        # or simulation behavior for the default config shows up here
        cfg, spec, arrival = trivial_config(), small_spec(txn_count=50), Arrival.open_loop(2000)
        metrics = run_experiment(cfg, spec, arrival, seed=6)
        path = tmp_path / "golden.csv"
        emit_csv([run_row(cfg, spec, arrival, 6, metrics)], path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "611b240d41119f795a9c4ea513199d6f16677367951dff79188e754233726822"

    def test_storage_report(self, tmp_path):
        rows = [
            {
                "records": 10,
                "record_bytes": 100,
                "state_bytes": 1160,
                "block_bytes": 0,
                "index_overhead_per_record": 4.25,
            }
        ]
        path = tmp_path / "storage.csv"
        emit_storage_csv(rows, path)
        text = path.read_text()
        assert text.startswith("records,record_bytes,state_bytes,block_bytes,")
        assert "4.25" in text


class TestForecast:
    def test_band_examples(self):
        corners = corner_configs()
        tiers = [forecast_band(c).tier for c in corners]
        assert tiers == [1, 2, 3, 4]

    def test_variance_flag_on_optimistic_and_locking(self):
        cfg = corner_configs()[3]
        assert forecast_band(cfg).high_variance
        assert not forecast_band(corner_configs()[0]).high_variance

    def test_single_corner_sweep_reports_precondition(self):
        cfg = corner_configs()[0]
        m = run_experiment(cfg, small_spec(txn_count=40), Arrival.closed_loop(8), seed=7)
        report = check_forecast_consistency([(cfg, m)])
        assert not report.ok
        assert any("missing tiers" in v for v in report.violations)

    def test_high_contention_check_is_skipped_with_note(self):
        corners = corner_configs()
        fake = [(c, None) for c in corners]
        report = check_forecast_consistency(fake, theta=1.0)
        assert report.ok and report.skipped and "high-contention" in report.note


class TestTrendChecks:
    def test_skew_and_ops_slow_conflict_prone_pipelines(self):
        from txsim.harness import ops_slow_throughput, skew_slows_throughput

        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
            ledger_enabled=False,
            node_count=5,
            tolerated_failures=2,
        )
        spec = small_spec(record_count=50, txn_count=300)
        holds, details = skew_slows_throughput(cfg, spec, Arrival.closed_loop(16), seed=11)
        assert holds, details
        holds, details = ops_slow_throughput(cfg, spec, Arrival.closed_loop(16), seed=11)
        assert holds, details

    def test_authenticated_ledger_slows_large_records(self):
        from txsim.harness import authenticated_ledger_slows_large_records

        cfg = DesignConfig(
            concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
            node_count=5,
            tolerated_failures=2,
        )
        spec = small_spec(record_count=64, txn_count=100)
        holds, details = authenticated_ledger_slows_large_records(
            cfg, spec, Arrival.closed_loop(20), seed=12
        )
        assert holds, details

    def test_liveness_loss_is_reported_as_stall_not_failure(self):
        from txsim.pipeline.order_execute import OrderExecutePipeline
        from txsim.simnet import FaultKind

        cfg = DesignConfig(node_count=5, tolerated_failures=2)
        pipeline = OrderExecutePipeline(
            cfg, small_spec(txn_count=60), Arrival.open_loop(2000), seed=13
        )
        for victim in (0, 1, 2):  # quorum 3 of 5 unreachable
            pipeline.sim.inject_fault(victim, FaultKind.CRASHED, at_time=0)
        stalled = pipeline.drive(stall_window=500_000)
        assert stalled
        assert pipeline.committed_count() == 0


class TestSaturation:
    def test_saturation_rate_is_found_between_probes(self):
        cfg = trivial_config()
        spec = small_spec(txn_count=150)
        rate = find_saturation_rate(cfg, spec, seed=8, low_rate=200, high_rate=30_000, rounds=5)
        assert 200 <= rate <= 30_000
        # the pipeline genuinely saturates below the upper probe
        assert rate < 30_000


CONFIG_INI = """
[design]
concurrency_mode = serial
ledger_enabled = false
index = plain
node_count = 1
tolerated_failures = 0
"""

WORKLOAD_INI = """
[workload]
kind = ycsb_update
record_count = 50
record_size_bytes = 100
txn_count = 30
seed = 9
"""


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CONFIG_INI)
        wl_file = tmp_path / "wl.ini"
        wl_file.write_text(WORKLOAD_INI)
        out = tmp_path / "out.csv"
        trace = tmp_path / "trace.tsv"
        txn_log = tmp_path / "txns.tsv"
        code = cli_main(
            [
                "run",
                "--config", str(cfg_file),
                "--workload", str(wl_file),
                "--seed", "9",
                "--out", str(out),
                "--trace", str(trace),
                "--txn-log", str(txn_log),
                "--arrival", "open_loop:2000",
            ]
        )
        assert code == 0
        rows = parse_csv(out.read_text())
        assert rows[0]["committed"] == "30"
        assert trace.read_text().count("\n") > 10
        txn_lines = txn_log.read_text().rstrip("\n").split("\n")
        assert len(txn_lines) == 31  # header + one row per transaction
        assert txn_lines[0].startswith("txn_id\texecute_us")
        assert all(line.split("\t")[4] == "committed" for line in txn_lines[1:])

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text("[design]\nnode_count = 3\ntolerated_failures = 2\n")
        wl_file = tmp_path / "wl.ini"
        wl_file.write_text(WORKLOAD_INI)
        code = cli_main(
            ["run", "--config", str(cfg_file), "--workload", str(wl_file), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_subcommand(self, tmp_path):
        grid = {
            "config": {
                "concurrency_mode": "serial",
                "ledger_enabled": False,
                "index": "plain",
                "node_count": 1,
                "tolerated_failures": 0,
            },
            "workload": {"kind": "ycsb_update", "record_count": 50, "txn_count": 20, "seed": 4},
            "arrival": {"mode": "open_loop", "rate_tps": 2000},
            "axis": "workload.theta",
            "values": [0.0, 0.5, 1.0],
        }
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--grid", str(grid_file), "--out", str(out)]) == 0
        assert len(parse_csv(out.read_text())) == 3

    def test_forecast_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CONFIG_INI)
        assert cli_main(["forecast", "--config", str(cfg_file)]) == 0
        assert "tier 2" in capsys.readouterr().out
