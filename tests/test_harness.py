"""Experiment harness: runs, sweeps, CSV stability, forecast, CLI."""

import csv
import dataclasses
import enum
import hashlib
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsim.core import (
    ConcurrencyMode,
    DesignConfig,
    IndexKind,
    ReplicationModel,
    ShardingMode,
    TxnOutcome,
    config_from_text,
    config_to_dict,
)
from txsim.core.configio import ConfigError
from txsim.core.types import InvalidConfig
from txsim.harness import (
    CSV_COLUMNS,
    check_forecast_consistency,
    corner_configs,
    emit_csv,
    find_saturation_rate,
    forecast_band,
    parse_arrival,
    run_experiment,
    run_row,
    sweep,
    sweep_cells_from_grid,
    table2_cells,
)
from txsim.harness import experiment
from txsim.harness.cli import main as cli_main
from txsim.pipeline import Arrival
from txsim.sharding import ShardedRun
from txsim.simnet import FaultKind
from txsim.workload import SMALLBANK_PROCEDURES, WorkloadSpec, WorkloadKind, workload_from_text


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    # json.loads reads NaN, so a grid can hold it as well as the text form
    @pytest.mark.parametrize(
        "data",
        ["open_loop:nan", "open_loop:inf", json.loads('{"mode": "open_loop", "rate_tps": NaN}')],
    )
    def test_non_finite_rate_is_rejected(self, data):
        with pytest.raises(ValueError, match="open_loop rate must be a finite number"):
            parse_arrival(data)

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"mode": "closed_loop", "clients": 2.5}, "clients"),
            ({"mode": "closed_loop", "clients": True}, "clients"),
            ({"mode": "open_loop", "rate_tps": True}, "rate_tps"),
            ("closed_loop:2.5", "clients"),
        ],
    )
    def test_fractional_or_boolean_value_is_rejected(self, data, match):
        with pytest.raises(ConfigError, match=match):
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

    def test_cell_failure_becomes_stalled_row(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("the cell failed at run time")

        monkeypatch.setattr(experiment, "run_experiment", fail)
        results = sweep([(trivial_config(), small_spec(), Arrival.open_loop(100), 1)])
        assert len(results) == 1
        assert results[0][4].stalled

    def test_invalid_cell_stops_the_sweep_before_any_cell_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(experiment, "run_experiment", lambda *args, **kw: ran.append(args))
        bad_cfg = DesignConfig(node_count=3, tolerated_failures=2)
        cells = [(c, small_spec(), Arrival.open_loop(100), 1) for c in (trivial_config(), bad_cfg)]
        with pytest.raises(InvalidConfig, match=r"cell 1: N < 2f\+1"):
            sweep(cells)
        assert ran == []

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


# a strategy per field type; the WorkloadSpec fields it validates get their own
_BY_TYPE = {
    bool: st.booleans(),
    int: st.integers(0, 10**6),
    float: st.floats(0, 1e6, allow_nan=False),
}


def _fields_of(cls, **special):
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if f.name in special:
            out[f.name] = special[f.name]
        elif isinstance(kind, type) and issubclass(kind, enum.Enum):
            out[f.name] = st.sampled_from(kind)
        elif dataclasses.is_dataclass(kind):
            out[f.name] = st.builds(kind, **_fields_of(kind))
        else:
            out[f.name] = _BY_TYPE[kind]
    return out


_configs = st.builds(DesignConfig, **_fields_of(DesignConfig))
_specs = st.builds(
    WorkloadSpec,
    **_fields_of(
        WorkloadSpec,
        record_count=st.integers(2, 10**6),  # Smallbank needs two
        record_size_bytes=st.integers(1, 10**6),
        txn_count=st.integers(1, 10**6),
        ops_per_txn=st.integers(1, 10),
        read_fraction=st.floats(0, 1),
        smallbank_mix=st.lists(
            st.tuples(st.sampled_from(SMALLBANK_PROCEDURES), st.floats(0, 100)), max_size=3
        ).filter(lambda mix: not mix or sum(w for _, w in mix)).map(tuple),
    ),
)


def _text(value) -> str:
    """A field value as an INI file writes it."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(f"{name}:{weight!r}" for name, weight in value)
    return repr(value)


def _ini(section: str, obj) -> str:
    lines, nested = [f"[{section}]"], []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            nested.append(_ini(f.name, value))
        else:
            lines.append(f"{f.name} = {_text(value)}")
    return "\n".join(lines + nested) + "\n"


def _axes(prefix: str, obj, as_json: dict):
    """(axis, value, [INI form, JSON form]) for every leaf field of ``obj``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _axes(f"{prefix}{f.name}.", value, as_json[f.name])
        else:
            yield f"{prefix}{f.name}", value, [_text(value), as_json[f.name]]


class TestFieldSchemas:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cfg=_configs, spec=_specs)
    def test_every_field_round_trips_through_ini_json_and_a_grid_axis(self, cfg, spec):
        cfg_json = json.loads(json.dumps(config_to_dict(cfg)))
        spec_json = json.loads(json.dumps(config_to_dict(spec)))
        assert config_from_text(_ini("design", cfg)) == cfg
        assert config_from_text(json.dumps(cfg_json)) == cfg
        assert workload_from_text(_ini("workload", spec)) == spec
        assert workload_from_text(json.dumps(spec_json)) == spec
        axes = [*_axes("config.", cfg, cfg_json), *_axes("workload.", spec, spec_json)]
        for axis, value, forms in axes:
            scope, _, path = axis.partition(".")
            for written in forms:
                grid = {"axis": axis, "values": [written]}
                cell_cfg, cell_spec, _, _ = sweep_cells_from_grid(json.dumps(grid))[0]
                got = cell_cfg if scope == "config" else cell_spec
                for name in path.split("."):
                    got = getattr(got, name)
                assert got == value, (axis, written)

    @pytest.mark.parametrize(
        "axis, value, match",
        [
            ("config.index", "btree", "plain, mpt, mbt"),
            ("config.node_count", "five", "node_count"),
            ("config.cost_model.sig_verify", 1, "unknown CostModel field"),
            ("workload.theta", [0.5], "theta"),
            ("workload.theta", True, "theta"),
            ("workload.txn_count", True, "txn_count"),
            ("workload.smallbank_mix", [["balance", True]], "smallbank_mix"),
            ("config.cost_model.hash_time_per_byte", False, "hash_time_per_byte"),
            ("db.node_count", 3, "axis must start"),
        ],
    )
    def test_bad_axis_or_value_is_a_config_error(self, axis, value, match):
        with pytest.raises(ConfigError, match=match):
            sweep_cells_from_grid(json.dumps({"axis": axis, "values": [value]}))

    def test_unknown_grid_key_is_rejected(self):
        with pytest.raises(ConfigError, match="keys from"):
            sweep_cells_from_grid('{"cost_model": {}, "axis": "workload.theta", "values": [0]}')

    @pytest.mark.parametrize("seed", [1.7, True, "x"])
    def test_grid_seed_must_be_an_int(self, seed):
        grid = {"seed": seed, "axis": "workload.theta", "values": [0]}
        with pytest.raises(ConfigError, match="seed"):
            sweep_cells_from_grid(json.dumps(grid))


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
        parsed = read_csv(path)
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
        assert digest == "461dcd4199e08229f92a61aa287488596268d2457d29169ab511c9a2f15b2dab"


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
        assert all(r.outcome is not TxnOutcome.COMMITTED for r in pipeline.records.values())


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
        rows = read_csv(out)
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

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_run_with_a_non_finite_rate_exits_2(self, tmp_path, capsys, rate):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CONFIG_INI)
        wl_file = tmp_path / "wl.ini"
        wl_file.write_text(WORKLOAD_INI)
        out = tmp_path / "x.csv"
        code = cli_main(
            ["run", "--config", str(cfg_file), "--workload", str(wl_file), "--out", str(out),
             "--arrival", f"open_loop:{rate}"]
        )
        assert code == 2
        assert "error: open_loop rate" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_with_a_nan_grid_rate_exits_2(self, tmp_path, capsys):
        arrival = {"mode": "open_loop", "rate_tps": float("nan")}
        code, out = self.sweep(tmp_path, "workload.theta", [0.0, 0.5], arrival)
        assert code == 2
        assert "error: open_loop rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("clients", [2.5, True])
    def test_sweep_with_a_non_integer_client_count_exits_2(self, tmp_path, capsys, clients):
        arrival = {"mode": "closed_loop", "clients": clients}
        code, out = self.sweep(tmp_path, "workload.theta", [0.0], arrival)
        assert code == 2
        assert "error: clients" in capsys.readouterr().err
        assert not out.exists()

    def sweep(self, tmp_path, axis, values, arrival=None):
        """Exit status of ``txsim sweep`` over a 1-node serial grid, and its CSV path."""
        grid = {
            "config": {
                "concurrency_mode": "serial",
                "ledger_enabled": False,
                "index": "plain",
                "node_count": 1,
                "tolerated_failures": 0,
            },
            "workload": {"kind": "ycsb_update", "record_count": 50, "txn_count": 20, "seed": 4},
            "arrival": arrival or {"mode": "open_loop", "rate_tps": 2000},
            "axis": axis,
            "values": values,
        }
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out = tmp_path / "sweep.csv"
        return cli_main(["sweep", "--grid", str(grid_file), "--out", str(out)]), out

    def sweep_rows(self, tmp_path, axis, values):
        code, out = self.sweep(tmp_path, axis, values)
        assert code == 0
        return read_csv(out)

    def test_sweep_subcommand(self, tmp_path):
        assert len(self.sweep_rows(tmp_path, "workload.theta", [0.0, 0.5, 1.0])) == 3

    def test_sweep_over_index_builds_each_index(self, tmp_path):
        rows = self.sweep_rows(tmp_path, "config.index", ["plain", "mpt", "mbt"])
        assert [r["index"] for r in rows] == ["plain", "mpt", "mbt"]
        overhead = [float(r["index_overhead_per_record"]) for r in rows]
        assert overhead[0] == 0 and overhead[1] > 0 and overhead[2] > 0

    def test_sweep_reads_axis_values_as_a_file_writes_them(self, tmp_path):
        rows = self.sweep_rows(tmp_path, "workload.theta", ["0.5"])
        assert rows[0]["theta"] == "0.5"

    def test_sweep_over_non_finite_theta_exits_2(self, tmp_path, capsys):
        code, out = self.sweep(tmp_path, "workload.theta", ["nan", "inf"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_over_an_invalid_cell_exits_2(self, tmp_path, capsys):
        code, out = self.sweep(tmp_path, "config.cost_model.hash_time_per_byte", ["nan", "1.0"])
        assert code == 2
        assert "config error: cell 0: " in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_over_an_invalid_smallbank_mix_exits_2(self, tmp_path, capsys):
        mixes = ["amalgamate:nan", "nosuch:1", "balance:-1"]
        code, out = self.sweep(tmp_path, "workload.smallbank_mix", mixes)
        assert code == 2
        assert "error: smallbank_mix weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_workload_file_without_section_header_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CONFIG_INI)
        wl_file = tmp_path / "wl.ini"
        wl_file.write_text("kind = ycsb_update\ntxn_count = 30\n")
        code = cli_main(
            ["run", "--config", str(cfg_file), "--workload", str(wl_file), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_forecast_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(CONFIG_INI)
        assert cli_main(["forecast", "--config", str(cfg_file)]) == 0
        assert "tier 2" in capsys.readouterr().out
