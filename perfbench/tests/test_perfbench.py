"""Tests of the benchmark itself: smoke runs, seeded defects, span arithmetic."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.cells import WORKLOADS
from perfbench.checks import check_cell
from perfbench.hooks import Capture, Patches
from perfbench.tracing import Span, coverage, self_times
from txsim.authstore.ledger import LedgerStore
from txsim.harness import run_experiment
from txsim.pipeline.base import PipelineBase

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 30  # transactions per smoke cell


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def captured_cell(name: str, txn_count: int = TINY, seed: int = 3):
    """Run one cell with the capture hooks; returns (metrics, capture, spec)."""
    workload = WORKLOADS[name]
    spec = workload.spec_for(seed, txn_count)
    capture = Capture()
    with Patches() as patches:
        capture.install(patches)
        metrics = run_experiment(workload.cfg, spec, workload.arrival, seed=seed)
    return metrics, capture, spec


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_of_each_workload_passes_every_check(name):
    samples = run.measure(WORKLOADS[name], seed=5, sim_seed=5, seconds=0, trace=True,
                          txn_count=TINY, variants=1, min_cycles=1)
    assert [s.failures for s in samples] == [[], [], []]
    assert [s.traced for s in samples] == [False, False, True]
    metrics = run.summarize(samples)
    for metric, _, _ in run.END_TO_END + run.PER_LAYER:
        assert metrics[metric] == metrics[metric], metric  # present and not NaN
    assert metrics["cell_s"] > metrics["setup_s"] > 0
    assert metrics["simnet.steps"] == (
        metrics["simnet.delivered"] + metrics["simnet.dropped"] + metrics["simnet.requeues"]
    )
    assert metrics["pipeline.committed"] > 0


def test_tampered_ledger_block_is_caught():
    metrics, capture, spec = captured_cell("oe_raft_mpt")
    assert check_cell(metrics, capture, spec.txn_count) == []
    ledger: LedgerStore = capture.pipeline.peers[2].state.ledger
    assert len(ledger.blocks) >= 2
    ledger.blocks[0] = dataclasses.replace(ledger.blocks[0], proposer=ledger.blocks[0].proposer + 1)
    assert check_cell(metrics, capture, spec.txn_count) == [
        "ledger of replica 2 breaks at height 1"
    ]


def test_diverging_replica_is_caught(monkeypatch):
    drive = PipelineBase.drive

    def drive_then_corrupt_replica_3(self, *args, **kwargs):
        stalled = drive(self, *args, **kwargs)
        self.peers[3].state.apply_batch([(b"seeded-defect", b"x")])
        return stalled

    monkeypatch.setattr(PipelineBase, "drive", drive_then_corrupt_replica_3)
    workload = WORKLOADS["oe_raft_mpt"]
    sample = run.run_cell(workload, workload.spec_for(3, TINY), 3)
    assert len(sample.failures) == 2
    assert sample.failures[0].startswith("replicas disagree on state fingerprint")
    assert sample.failures[1].startswith("replicas disagree on index root")


def test_expected_layer_without_calls_fails_the_traced_cell():
    workload = dataclasses.replace(
        WORKLOADS["sharded_bft2pc"],
        expected=WORKLOADS["sharded_bft2pc"].expected | {"pipeline.oe"},
    )
    sample = run.run_cell(workload, workload.spec_for(3, TINY), 3, traced=True)
    assert sample.failures == ["trace: no calls recorded by pipeline.oe"]


def test_counters_that_drift_between_cells_fail():
    workload = WORKLOADS["sharded_bft2pc"]
    samples = [run.run_cell(workload, workload.spec_for(3, TINY), sim_seed) for sim_seed in (3, 3, 4)]
    run.mark_inexact(samples)
    assert samples[0].failures == samples[1].failures == []
    assert samples[2].failures and "virtual_digest" in samples[2].failures[0]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: EOV shared-log blocks can overtake each other in the "
    "network and peers validate them in arrival order, so replica states diverge",
)
def test_eov_shared_log_replicas_agree():
    workload = WORKLOADS["eov_skew_saturated"]
    sample = run.run_cell(workload, workload.spec_for(7, 400), 7)
    assert sample.failures == []


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 counts once
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: only 9..10 is covered
    ]
    assert self_times(spans) == [10 - 5 - 1, 3 - 1, 3, 1, 3]
    assert coverage(0.0, 5.0, [(1.0, 2.0), (1.5, 1.8), (4.0, 9.0)]) == 2.0
    assert coverage(0.0, 5.0, []) == 0.0


def test_benchmark_json_matches_the_reported_metrics():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oe_raft_mpt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
