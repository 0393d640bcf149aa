"""Golden digests for a small matrix of design cells.

Each cell runs ~200 transactions through ``run_experiment`` and pins:

- ``row``: SHA-256 of the cell's ``run_row`` CSV bytes followed by the state
  fingerprint (the observer replica's ``state_fingerprint`` on pipeline
  cells, every shard store on sharded cells);
- ``trace``: SHA-256 of the trace TSV written through ``trace_path``
  (pipeline cells only; sharded cells ignore ``trace_path``).

The matrix covers every concurrency mode, every index, both failure models,
every ordering approach and both 2PC coordinators.  A change that moves any
virtual-time output, event seq or delivery order changes a digest here, so a
host-time optimisation must leave them all as they are.
"""

import hashlib

import pytest

from txsim.core import ConcurrencyMode, DesignConfig, IndexKind
from txsim.core.encoding import Writer, digest
from txsim.core.types import FailureModel, ReplicationApproach, ReplicationModel, ShardingMode
from txsim.harness import emit_csv, run_experiment, run_row
from txsim.pipeline import Arrival
from txsim.pipeline.base import PipelineBase
from txsim.sharding import ShardedRun
from txsim.workload import WorkloadKind, WorkloadSpec

TXNS = 200
CFT5 = dict(failure_model=FailureModel.CFT, node_count=5, tolerated_failures=2)
BFT4 = dict(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=1)
STORAGE = dict(replication_model=ReplicationModel.STORAGE_BASED)
YCSB = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=200, record_size_bytes=100,
                    txn_count=TXNS, seed=3)
SKEWED = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=100, theta=0.6,
                      record_size_bytes=100, txn_count=TXNS, seed=5)
SMALLBANK = WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=200, txn_count=TXNS, seed=7)
TWO_OPS = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, ops_per_txn=2, record_count=200,
                       record_size_bytes=100, txn_count=TXNS, seed=11)

# name -> (config, workload, arrival, simulator seed)
CELLS = {
    "oe_raft_mpt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE, index=IndexKind.MPT, **CFT5),
        YCSB, Arrival.closed_loop(16), 1),
    "oe_pbft_mbt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE, index=IndexKind.MBT, **BFT4),
        YCSB, Arrival.closed_loop(16), 2),
    "oe_sharedlog_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
                     replication_approach=ReplicationApproach.SHARED_LOG, **CFT5),
        YCSB, Arrival.open_loop(1500), 3),
    "serial_raft_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.SERIAL, ledger_enabled=False, **CFT5),
        SMALLBANK, Arrival.closed_loop(8), 4),
    "eov_raft_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE, **CFT5),
        SKEWED, Arrival.open_loop(2500), 5),
    "eov_pbft_mpt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE, index=IndexKind.MPT,
                     **BFT4),
        SKEWED, Arrival.closed_loop(16), 6),
    "occ_pbft_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_OCC, ledger_enabled=False,
                     **STORAGE, **BFT4),
        SMALLBANK, Arrival.closed_loop(16), 7),
    "occ_raft_mbt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_OCC, index=IndexKind.MBT,
                     **STORAGE, **CFT5),
        SKEWED, Arrival.closed_loop(16), 8),
    "locking_pb_mpt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING, index=IndexKind.MPT,
                     replication_approach=ReplicationApproach.PRIMARY_BACKUP, **STORAGE, **CFT5),
        SKEWED, Arrival.closed_loop(16), 9),
    "sharded_trusted2pc": (
        DesignConfig(sharding_mode=ShardingMode.TRUSTED_2PC, node_count=12, tolerated_failures=1),
        TWO_OPS, Arrival.open_loop(2000), 10),
    "sharded_bft2pc": (
        DesignConfig(sharding_mode=ShardingMode.BFT_COORDINATED_2PC, node_count=12,
                     tolerated_failures=1),
        TWO_OPS, Arrival.open_loop(2000), 11),
}

GOLDEN = {
    "eov_pbft_mpt": {
        "row": "25ea368135de08c3b8343561f1217eb62c040baa6ca631a2d8d0cf513520f95c",
        "trace": "b39d67e063da708842f1f3ef0db8f3232c22397363f27b505766480b67c04428",
    },
    "eov_raft_plain": {
        "row": "be3039100f9a5bed90873dc951f6ac1783e0a48413ed51292b5370ea5a722466",
        "trace": "5564764ee39359be4c9dba891d8b390cdc588ddeb98b2167bd7a80fa719ed77a",
    },
    "locking_pb_mpt": {
        "row": "cf45537cc8d4e00fa9d376814d0482d5cd4df951417cb0f9a156e35d17346266",
        "trace": "96d821482651f6ca3a6e167e4198a6fd884385476a277bb1422bd1a70633a6ba",
    },
    "occ_pbft_plain": {
        "row": "5203aa6757ece06ad508a57abdea72da3e7dc0ef00222854e7d7d26614d4dd06",
        "trace": "e187f0d1f8b4b3f72d2552985fafb3d8f5fe7250ad323767254a1b4b6afb37ef",
    },
    "occ_raft_mbt": {
        "row": "3cc73b61c8ef5033080bd1eddf000e99747ea081171513eb5fab2f973d9cfabb",
        "trace": "0932976aa1c16df771679f1c7bb4c92173a546926c83df3300dfdc5e934dc696",
    },
    "oe_pbft_mbt": {
        "row": "d6bb754689f297ea34f3caa599d1a931de59da17be9f7e27326b56b271d639db",
        "trace": "45b5da82bbf0235dbeb33ed76e83c735ccd4caf49782bb7ec50a1b5daa8d4ba6",
    },
    "oe_raft_mpt": {
        "row": "addd885cbde0d3e63d07687bf81b53a8a3d6bbb7a5e5036f57ff46946f78ee86",
        "trace": "1c1a9659dc23250ae0b873d39e38a0bd36aae1fc3246a0b72412dbb5083ea35b",
    },
    "oe_sharedlog_plain": {
        "row": "f6484f6e18083fffea18cd21fb4a3bfba88e474e2e1c5f7f8bdcce2222a2730b",
        "trace": "fd43ab273df32c9203e76249e9042ace9e5848189c5acfad804c3f9a574209de",
    },
    "serial_raft_plain": {
        "row": "c76726d5a53220e00f91e9917891f6f6f0c175c88880117a39307109f2ec577c",
        "trace": "08974aba35ff66101fa178017acbdb18e8c0b6a71c89f1068abb54dcea9c8b50",
    },
    "sharded_bft2pc": {
        "row": "6b5068e235801a6796f09736ae0dee0b7ff6304c847d6ad19c90bbf0e0bcc807",
        "trace": None,
    },
    "sharded_trusted2pc": {
        "row": "6e89bac63e12d691f02fc3641cdc5e2d2f6c24bf81e13ddd9962bbb375201c8a",
        "trace": None,
    },
}


def _shard_fingerprint(runner) -> bytes:
    w = Writer()
    for shard in runner.shards:
        w.u32(shard.shard_id).u32(len(shard.store))
        for key in sorted(shard.store):
            w.bytes(key).bytes(shard.store[key])
    return digest(w.getvalue())


def cell_digests(name, tmp_path, monkeypatch):
    """Run one cell; returns {"row": hex, "trace": hex or None}."""
    cfg, spec, arrival, seed = CELLS[name]
    seen = {}

    def keep(attr, original):
        def hooked(owner, *args, **kwargs):
            seen[attr] = owner
            return original(owner, *args, **kwargs)

        return hooked

    monkeypatch.setattr(PipelineBase, "drive", keep("pipeline", PipelineBase.drive))
    monkeypatch.setattr(ShardedRun, "run", keep("runner", ShardedRun.run))
    sharded = cfg.sharding_mode is not ShardingMode.NONE
    trace_path = None if sharded else tmp_path / "trace.tsv"
    metrics = run_experiment(cfg, spec, arrival, seed=seed, trace_path=trace_path)
    if sharded:
        fingerprint = _shard_fingerprint(seen["runner"])
    else:
        pipeline = seen["pipeline"]
        fingerprint = pipeline.peers[pipeline.observer_id].state.kv.state_fingerprint()
    csv_path = tmp_path / "row.csv"
    emit_csv([run_row(cfg, spec, arrival, seed, metrics)], csv_path)
    return {
        "row": hashlib.sha256(csv_path.read_bytes() + fingerprint).hexdigest(),
        "trace": None if sharded else hashlib.sha256(trace_path.read_bytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_cell(name, tmp_path, monkeypatch):
    assert cell_digests(name, tmp_path, monkeypatch) == GOLDEN[name]
