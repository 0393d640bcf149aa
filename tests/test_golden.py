"""Golden digests for a small matrix of design cells.

Each cell runs ~200 transactions through ``run_experiment`` and pins:

- ``row``: SHA-256 of the cell's ``run_row`` CSV bytes followed by the state
  fingerprint (the observer replica's ``state_fingerprint`` on pipeline
  cells, every shard store on sharded cells);
- ``trace``: SHA-256 of the trace TSV written through ``trace_path``;
- ``untimed``: SHA-256 of the same trace without its timer firings (lines
  whose kind ends in ``timer`` or ``timeout``) and without its seq column.
  Cancelling a timer that would have fired unheeded removes its line and
  can shift later seqs, but must leave every other delivery as it was.

The matrix covers every concurrency mode, every index, both failure models,
every ordering approach, both 2PC coordinators and one sharded run with
reconfiguration pauses.  A change that moves any virtual-time output, event
seq or delivery order changes a digest here, so a host-time optimisation must
leave them all as they are.
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
    "eov_sharedlog_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE,
                     replication_approach=ReplicationApproach.SHARED_LOG, **CFT5),
        SKEWED, Arrival.closed_loop(8), 12),
    "occ_sharedlog_mbt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_OCC, index=IndexKind.MBT,
                     replication_approach=ReplicationApproach.SHARED_LOG, **STORAGE, **CFT5),
        SMALLBANK, Arrival.closed_loop(16), 13),
    "sharded_trusted2pc": (
        DesignConfig(sharding_mode=ShardingMode.TRUSTED_2PC, node_count=12, tolerated_failures=1),
        TWO_OPS, Arrival.open_loop(2000), 10),
    # every 30 ms the shards drain in-flight 2PC and pause; the row pins the interval
    "sharded_trusted2pc_reconfig": (
        DesignConfig(sharding_mode=ShardingMode.TRUSTED_2PC, node_count=12, tolerated_failures=1,
                     reconfiguration_interval=30_000),
        TWO_OPS, Arrival.open_loop(2000), 14),
    "sharded_bft2pc": (
        DesignConfig(sharding_mode=ShardingMode.BFT_COORDINATED_2PC, node_count=12,
                     tolerated_failures=1),
        TWO_OPS, Arrival.open_loop(2000), 11),
}

GOLDEN = {
    "eov_pbft_mpt": {
        "row": "25ea368135de08c3b8343561f1217eb62c040baa6ca631a2d8d0cf513520f95c",
        "trace": "e38eb8c932b953af74b149bf9644055805a528e6a66dc897799330f292e16fc8",
        "untimed": "2be45941c38125a9f2af79639bd850b20bc076c26af698110d21297a70a6eeb7",
    },
    "eov_raft_plain": {
        "row": "be3039100f9a5bed90873dc951f6ac1783e0a48413ed51292b5370ea5a722466",
        "trace": "80f05e00dd6223847bc0c65c0fe84899c08989daa8da62f5e2626f000205eb13",
        "untimed": "0b0cfb2ead8f3c27234f92dbcc511d03e1eeccab657f087b00d50ebae62c01f2",
    },
    "eov_sharedlog_plain": {
        "row": "5fe2a82c6d847e1826e67963e356bdb438d560a49e85be08b2d2bd56e6ef78cc",
        "trace": "6f6784ccb762e0347eea6e698a76e4e607539cce956dc01d9e921b2613bf289e",
        "untimed": "6be3e641b4c86a9a46e3e0806a53e15c35567f3519a9d6994dd15b5fef40a59c",
    },
    "locking_pb_mpt": {
        "row": "6bcdc7157da0a9d9047b4e9f98028c6db9b3291efb13933da686851f8fca11ba",
        "trace": "d72c77c3ecf313717196a037bafd2fc157656725118a11b5cf04af8d4ed18cf5",
        "untimed": "d9a1a47776b0042a72956dae671c7ab7574dd5bbe130ff81ee0ba8a5e4d6f336",
    },
    "occ_pbft_plain": {
        "row": "5203aa6757ece06ad508a57abdea72da3e7dc0ef00222854e7d7d26614d4dd06",
        "trace": "e187f0d1f8b4b3f72d2552985fafb3d8f5fe7250ad323767254a1b4b6afb37ef",
        "untimed": "58d3717b55c03a40e4a264b326c70c55604776ba9d2557bc59af66d027cceb0a",
    },
    "occ_sharedlog_mbt": {
        "row": "376101b7e2525c8334778900402990116e4a97c71ea773c17fdbe8de773eb973",
        "trace": "ecf57b50fee5fa2d3840c339e9f4df550c42061cb8844973a3ba34a951432375",
        "untimed": "3222f567fb8dc3a64f84b586dfcbb266a61ff5688e03e65ace45772800f05082",
    },
    "occ_raft_mbt": {
        "row": "3cc73b61c8ef5033080bd1eddf000e99747ea081171513eb5fab2f973d9cfabb",
        "trace": "9fb3fabe79507603b13e8586e47ecbcd860ba2d7db2f73fc5cc689d1d1a782df",
        "untimed": "defad0c02521ea5cf8fb87db8089e50a8f43aeeea64dd58a8573b0b319f5be88",
    },
    "oe_pbft_mbt": {
        "row": "d6bb754689f297ea34f3caa599d1a931de59da17be9f7e27326b56b271d639db",
        "trace": "45b5da82bbf0235dbeb33ed76e83c735ccd4caf49782bb7ec50a1b5daa8d4ba6",
        "untimed": "4978969e2f7c50ffd055aa4620ce374cf261de990e1e8947a63ae1d1d72b98fe",
    },
    "oe_raft_mpt": {
        "row": "addd885cbde0d3e63d07687bf81b53a8a3d6bbb7a5e5036f57ff46946f78ee86",
        "trace": "5a4b0e8ce620237d03664529f842d2ce2f34f9cf60df0f57901acafff004a18b",
        "untimed": "63c8b6f117fcbc54c21f88e44c93e09ddc28dd7154c3eab06d17ed8773677805",
    },
    "oe_sharedlog_plain": {
        "row": "f6484f6e18083fffea18cd21fb4a3bfba88e474e2e1c5f7f8bdcce2222a2730b",
        "trace": "fd43ab273df32c9203e76249e9042ace9e5848189c5acfad804c3f9a574209de",
        "untimed": "c8552a3df1aec481f791132c059e3d364cd58bb327e80f7fa2475ebf0e0a621c",
    },
    "serial_raft_plain": {
        "row": "c76726d5a53220e00f91e9917891f6f6f0c175c88880117a39307109f2ec577c",
        "trace": "b2c8539988f739f8af9c9fe078cdc98111ad4c787f3fe9a88af9415f0bfe47cf",
        "untimed": "77b55f4d597f7b8e9d0e113eee4fe9abfec23532f584df2bbb955d68221cc880",
    },
    "sharded_bft2pc": {
        "row": "9d7331e036c5e6916d1df05489e17eca2270d9e7382045d87336d6b14455c50d",
        "trace": "7bd74899376888ec5f37c8c982f4655aff4a625a63754b7416841a090a5752e3",
        "untimed": "f3e844462b8fc273b7b1fcbbbdb5fd98a7ae1884847f9bc0e1f459b7d7eadfa2",
    },
    "sharded_trusted2pc_reconfig": {
        "row": "9ada7604a7c627061ea7c32eeaa60a59cf79dd5320c51b6da834f8b556028d55",
        "trace": "71d57fd3a3b730f784d3c508a4ff97de39bb195e94a54541f8de5c40ff06ea50",
        "untimed": "287c9d2923b11ec477402ed56428512cd1dbf17bcff9bb71a8b2d3b9b1b7054f",
    },
    "sharded_trusted2pc": {
        "row": "6e89bac63e12d691f02fc3641cdc5e2d2f6c24bf81e13ddd9962bbb375201c8a",
        "trace": "da05dcc5696d0b5fd5445815f1b66156677be5d761841a3ffd29d44cc3cff865",
        "untimed": "95bb402558ae7a31151ec33a258195debef7ba86e01c4e43ad42636603ab3777",
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
    """Run one cell; returns {"row": hex, "trace": hex, "untimed": hex}."""
    cfg, spec, arrival, seed = CELLS[name]
    seen = {}

    def keep(attr, original):
        def hooked(owner, *args, **kwargs):
            seen[attr] = owner
            return original(owner, *args, **kwargs)

        return hooked

    monkeypatch.setattr(PipelineBase, "drive", keep("pipeline", PipelineBase.drive))
    monkeypatch.setattr(ShardedRun, "run", keep("runner", ShardedRun.run))
    trace_path = tmp_path / "trace.tsv"
    metrics = run_experiment(cfg, spec, arrival, seed=seed, trace_path=trace_path)
    if cfg.sharding_mode is not ShardingMode.NONE:
        fingerprint = _shard_fingerprint(seen["runner"])
    else:
        pipeline = seen["pipeline"]
        fingerprint = pipeline.peers[pipeline.observer_id].state.kv.state_fingerprint()
    csv_path = tmp_path / "row.csv"
    emit_csv([run_row(cfg, spec, arrival, seed, metrics)], csv_path)
    trace = trace_path.read_bytes()
    return {"row": hashlib.sha256(csv_path.read_bytes() + fingerprint).hexdigest(),
            "trace": hashlib.sha256(trace).hexdigest(),
            "untimed": hashlib.sha256(_untimed(trace)).hexdigest()}


def _untimed(trace: bytes) -> bytes:
    """The trace TSV without timer firings and without the seq column."""
    kept = []
    for line in trace.splitlines(keepends=True):
        t, _seq, rest = line.split(b"\t", 2)
        if not rest.rstrip().endswith((b"timer", b"timeout")):
            kept.append(t + b"\t" + rest)
    return b"".join(kept)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_cell(name, tmp_path, monkeypatch):
    assert cell_digests(name, tmp_path, monkeypatch) == GOLDEN[name]
