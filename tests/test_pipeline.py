"""Transaction lifecycles: trends, phase accounting, and correctness oracles."""

import dataclasses
import importlib

import pytest

from txsim.authstore import MerklePatriciaTrie
from txsim.core import (
    ConcurrencyMode,
    CostModel,
    DesignConfig,
    FailureModel,
    IndexKind,
    ReplicationApproach,
    ReplicationModel,
    TxnOutcome,
    validate_config,
)
from txsim.pipeline import (
    Arrival,
    latency_breakdown,
    drive_and_collect,
    occ_validate,
    run_pipeline,
)
from txsim.pipeline.eov import ExecuteOrderValidatePipeline
from txsim.pipeline.order_execute import OrderExecutePipeline
from txsim.pipeline.storage import StorageReplicatedPipeline
from txsim.simnet import FaultKind
from txsim.workload import WorkloadSpec, WorkloadKind, initial_state


def oe_config(**overrides):
    base = dict(
        concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
        ledger_enabled=True,
        index=IndexKind.PLAIN,
        node_count=5,
        tolerated_failures=2,
    )
    base.update(overrides)
    return DesignConfig(**base)


def eov_config(**overrides):
    base = dict(
        replication_approach=ReplicationApproach.SHARED_LOG,
        concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE,
        ledger_enabled=True,
        index=IndexKind.PLAIN,
        node_count=5,
        tolerated_failures=2,
    )
    base.update(overrides)
    return DesignConfig(**base)


def db_config(**overrides):
    base = dict(
        replication_model=ReplicationModel.STORAGE_BASED,
        concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
        ledger_enabled=False,
        index=IndexKind.PLAIN,
        node_count=5,
        tolerated_failures=2,
    )
    base.update(overrides)
    return DesignConfig(**base)


def update_spec(**overrides):
    base = dict(
        kind=WorkloadKind.YCSB_UPDATE,
        record_count=100,
        record_size_bytes=100,
        txn_count=400,
        seed=17,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestOrderExecute:
    def test_conflicting_stream_has_zero_aborts(self):
        res = run_pipeline(
            oe_config(), update_spec(theta=1.0), Arrival.open_loop(2000), seed=1
        )
        assert res.committed == 400
        assert res.abort_counts() == {}

    def test_every_txn_executed_exactly_twice(self):
        res = run_pipeline(oe_config(), update_spec(), Arrival.open_loop(2000), seed=1)
        assert {r.executions for r in res.records.values()} == {2}

    def test_skew_does_not_change_throughput(self):
        tputs = {}
        for theta in (0.0, 1.0):
            res = run_pipeline(
                oe_config(), update_spec(theta=theta), Arrival.open_loop(2000), seed=1
            )
            tputs[theta] = res.throughput_tps
        assert abs(tputs[1.0] - tputs[0.0]) / tputs[0.0] < 0.05

    def test_all_nodes_reach_identical_state_and_roots(self):
        res = run_pipeline(
            oe_config(index=IndexKind.MPT),
            update_spec(txn_count=150),
            Arrival.open_loop(2000),
            seed=2,
        )
        assert len(set(res.fingerprints)) == 1
        assert len(set(res.roots)) == 1

    def test_shared_log_ordering_variant(self):
        cfg = oe_config(replication_approach=ReplicationApproach.SHARED_LOG)
        res = run_pipeline(cfg, update_spec(txn_count=150), Arrival.open_loop(2000), seed=3)
        assert res.committed == 150
        assert len(set(res.fingerprints)) == 1

    def test_bft_variant_commits(self):
        cfg = oe_config(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=1)
        res = run_pipeline(cfg, update_spec(txn_count=150), Arrival.open_loop(2000), seed=4)
        assert res.committed == 150
        assert len(set(res.fingerprints)) == 1

    def test_deterministic_given_seed(self):
        def run():
            res = run_pipeline(oe_config(), update_spec(), Arrival.open_loop(2500), seed=5)
            return (
                sorted((tid, r.commit_time) for tid, r in res.records.items()),
                res.fingerprints,
                res.delivered_counts,
            )

        assert run() == run()

    def test_primary_backup_ordering_rejected(self):
        cfg = oe_config(replication_approach=ReplicationApproach.PRIMARY_BACKUP)
        with pytest.raises(ValueError, match="consensus or shared_log"):
            run_pipeline(cfg, update_spec(txn_count=10), Arrival.open_loop(500), seed=1)


class TestExecuteOrderValidate:
    def test_primary_backup_ordering_rejected(self):
        cfg = eov_config(replication_approach=ReplicationApproach.PRIMARY_BACKUP)
        assert any("consensus or shared_log" in v for v in validate_config(cfg))
        with pytest.raises(ValueError, match="consensus or shared_log"):
            run_pipeline(cfg, update_spec(txn_count=10), Arrival.open_loop(500), seed=1)

    def test_shared_log_block_deliveries_are_counted(self):
        res = run_pipeline(
            eov_config(), update_spec(txn_count=100), Arrival.open_loop(2000), seed=7
        )
        blocks = len(res.block_log)
        assert blocks > 0
        # one slog:deliver per block and peer, as for order-execute on the log
        assert res.consensus_messages() == blocks * 5

    def test_stale_read_aborts_rw(self):
        res = run_pipeline(
            eov_config(), update_spec(theta=1.0), Arrival.open_loop(2500), seed=6
        )
        assert res.abort_counts().get("aborted_rw", 0) > 0

    def test_divergent_endorsements_abort_inconsistent_read(self):
        res = run_pipeline(
            eov_config(), update_spec(theta=1.0, txn_count=800), Arrival.open_loop(2500), seed=6
        )
        assert res.abort_counts().get("aborted_inconsistent_read", 0) > 0

    def test_abort_rate_grows_with_skew(self):
        rates = []
        for theta in (0.0, 1.0):
            res = run_pipeline(
                eov_config(), update_spec(theta=theta, txn_count=600), Arrival.open_loop(2500), seed=7
            )
            rates.append(res.abort_rate)
        assert rates[1] > rates[0]

    def test_abort_rate_grows_with_ops_per_txn(self):
        rates = {}
        for ops in (1, 10):
            spec = update_spec(
                ops_per_txn=ops, constant_total_bytes=1000, txn_count=600
            )
            res = run_pipeline(eov_config(), spec, Arrival.open_loop(1200), seed=8)
            rates[ops] = res.abort_rate
        assert rates[10] > rates[1]

    def test_block_order_replay_oracle(self):
        res = run_pipeline(
            eov_config(), update_spec(theta=0.8, txn_count=500), Arrival.open_loop(2500), seed=9
        )
        spec = update_spec(theta=0.8, txn_count=500)
        versions = {key: 1 for key, _ in initial_state(spec)}
        values = {key: value for key, value in initial_state(spec)}
        for block in res.block_log:
            for txn_id, actual_outcome in block:
                record = res.records[txn_id]
                txn = record.txn
                if txn.app_abort:
                    expected = TxnOutcome.ABORTED_APPLICATION
                elif all(
                    versions.get(k, 0) == v for k, v in record.read_versions.items()
                ):
                    expected = TxnOutcome.COMMITTED
                else:
                    expected = TxnOutcome.ABORTED_RW
                assert expected == actual_outcome, f"txn {txn_id}"
                if expected is TxnOutcome.COMMITTED:
                    for key, value in txn.write_set:
                        versions[key] = versions.get(key, 0) + 1
                        values[key] = value
        final = res.final_state
        for key, version in versions.items():
            assert final[key] == (values[key], version)

    def test_signature_share_of_validation_matches_construction(self):
        # sig 200 vs apply 300 per txn: 40% of validation by construction;
        # a large key space keeps conflict aborts (sig-only work) out of it
        cm = CostModel(sig_verify_time=200, exec_time_per_op=300, hash_time_base=0, hash_time_per_byte=0.0)
        cfg = eov_config(ledger_enabled=False, cost_model=cm)
        res = run_pipeline(
            cfg, update_spec(record_count=10_000, txn_count=400), Arrival.open_loop(1500), seed=10
        )
        share = res.sig_time_total / res.validate_time_total
        assert abs(share - 0.4) < 0.02

    def test_validation_is_the_phase_that_grows_when_saturated(self):
        spec = update_spec(txn_count=500)
        slow = run_pipeline(eov_config(), spec, Arrival.open_loop(800), seed=11)
        fast = run_pipeline(eov_config(), spec, Arrival.open_loop(6000), seed=11)
        report = latency_breakdown(slow.phase_means(), fast.phase_means())
        assert report["bottleneck"] == "validate_commit"
        # unsaturated phases sit near their cost-model floors: one endorsement
        # round trip, one block interval, one validation pass
        unsat = slow.phase_means()
        assert unsat.execute < 3_000
        assert unsat.order < 7_000
        assert unsat.validate_commit < 3_000
        assert fast.phase_means().validate_commit > 5 * unsat.validate_commit

    def test_crashed_endorser_drops_transactions(self):
        cfg = eov_config()
        spec = update_spec(txn_count=120)
        from txsim.pipeline.eov import ExecuteOrderValidatePipeline

        pipeline = ExecuteOrderValidatePipeline(cfg, spec, Arrival.open_loop(2000), seed=12)
        pipeline.sim.inject_fault(3, FaultKind.CRASHED, at_time=10_000)
        stalled = pipeline.drive()
        dropped = len(pipeline.dropped)
        assert dropped > 0

    def test_consensus_ordering_variant(self):
        cfg = eov_config(replication_approach=ReplicationApproach.CONSENSUS)
        res = run_pipeline(cfg, update_spec(txn_count=200), Arrival.open_loop(2000), seed=13)
        assert res.committed > 150
        assert len(set(res.fingerprints)) == 1

    def test_k_of_n_endorsement_tolerates_a_crashed_peer(self):
        cfg = eov_config()
        spec = update_spec(txn_count=120)
        pipeline = ExecuteOrderValidatePipeline(
            cfg, spec, Arrival.open_loop(2000), seed=12, endorsement_k=4
        )
        pipeline.sim.inject_fault(3, FaultKind.CRASHED, at_time=10_000)
        res = drive_and_collect(pipeline)
        # with 4-of-5 endorsement the dead peer no longer drops everything
        assert res.committed > 80
        assert len(res.dropped) == 0


def occ_spec(**overrides):
    base = dict(
        kind=WorkloadKind.YCSB_UPDATE,
        record_count=100,
        record_size_bytes=100,
        txn_count=400,
        seed=21,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestStorageReplicated:
    def test_two_concurrent_writers_one_key_exactly_one_commits(self):
        spec = occ_spec(record_count=1, txn_count=2)
        res = run_pipeline(db_config(), spec, Arrival.closed_loop(2), seed=14)
        assert res.committed == 1
        assert res.abort_counts() == {"aborted_ww": 1}

    def test_disjoint_writers_overlap_and_commit(self):
        spec = occ_spec(record_count=2, txn_count=2, theta=0.0)
        res = run_pipeline(db_config(), spec, Arrival.closed_loop(2), seed=15)
        recs = list(res.records.values())
        if {r.outcome for r in recs} == {TxnOutcome.COMMITTED}:
            starts = [r.submit_time for r in recs]
            ends = [r.commit_time for r in recs]
            assert max(starts) < min(ends)  # execution windows overlapped

    def test_all_nodes_identical_after_occ_run(self):
        res = run_pipeline(db_config(), occ_spec(theta=0.8), Arrival.closed_loop(16), seed=16)
        assert len(set(res.fingerprints)) == 1

    def test_serial_mode_zero_conflict_aborts_any_theta(self):
        for theta in (0.0, 1.0):
            pipeline = StorageReplicatedPipeline(
                db_config(),
                occ_spec(theta=theta, txn_count=150),
                Arrival.closed_loop(8),
                seed=17,
                cc=ConcurrencyMode.SERIAL,
            )
            res = drive_and_collect(pipeline)
            assert res.committed == 150
            assert res.abort_counts() == {}

    def test_locking_queues_instead_of_aborting_uncontended(self):
        res = run_pipeline(
            db_config(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING),
            occ_spec(theta=0.0),
            Arrival.closed_loop(16),
            seed=18,
        )
        assert res.committed == 400
        assert res.abort_counts() == {}

    def test_locking_throughput_collapse_exceeds_abort_ratio(self):
        cfg = db_config(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING)
        results = {}
        for theta in (0.0, 1.0):
            results[theta] = drive_and_collect(
                StorageReplicatedPipeline(
                    cfg,
                    occ_spec(theta=theta, record_count=50, txn_count=500),
                    Arrival.closed_loop(24),
                    seed=19,
                    lock_timeout=12_000,
                )
            )
        drop = 1 - results[1.0].throughput_tps / results[0.0].throughput_tps
        abort_ratio = results[1.0].abort_rate
        assert results[1.0].abort_counts().get("aborted_blocked", 0) > 0
        assert drop > abort_ratio

    def test_primary_backup_backend(self):
        cfg = db_config(replication_approach=ReplicationApproach.PRIMARY_BACKUP)
        res = run_pipeline(cfg, occ_spec(txn_count=150), Arrival.closed_loop(8), seed=20)
        assert res.committed > 100
        assert len(set(res.fingerprints)) == 1

    @pytest.mark.parametrize("nodes, f", [(3, 1), (5, 2)])
    def test_primary_backup_counts_its_chain_messages(self, nodes, f):
        cfg = db_config(
            replication_approach=ReplicationApproach.PRIMARY_BACKUP,
            node_count=nodes,
            tolerated_failures=f,
        )
        res = run_pipeline(
            cfg, occ_spec(ops_per_txn=1, txn_count=100), Arrival.closed_loop(8), seed=20
        )
        assert res.committed > 0
        # N-1 forwards down the chain plus the tail's ack per single-write txn
        assert res.messages_per_commit == nodes

    def test_shared_log_backend(self):
        cfg = db_config(replication_approach=ReplicationApproach.SHARED_LOG)
        res = run_pipeline(cfg, occ_spec(txn_count=150), Arrival.closed_loop(8), seed=21)
        assert res.committed > 100
        assert len(set(res.fingerprints)) == 1

    def test_bft_backend(self):
        cfg = db_config(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=1)
        res = run_pipeline(cfg, occ_spec(txn_count=150), Arrival.closed_loop(8), seed=22)
        assert res.committed > 100
        assert len(set(res.fingerprints)) == 1


class TestOccValidate:
    class _Store:
        def __init__(self, versions):
            self._v = versions

        def version(self, key):
            return self._v.get(key, 0)

    def test_current_versions_commit(self):
        store = self._Store({b"a": 3, b"b": 7})
        out = occ_validate({b"a": 3, b"b": 7}, (), store)
        assert out is TxnOutcome.COMMITTED

    def test_one_stale_read_aborts_rw(self):
        store = self._Store({b"a": 4})
        assert occ_validate({b"a": 3}, (), store) is TxnOutcome.ABORTED_RW

    def test_write_write_conflict_via_intents(self):
        store = self._Store({b"a": 3})
        intents = {b"a": 4}
        out = occ_validate({b"a": 3}, (b"a",), store, intents)
        assert out is TxnOutcome.ABORTED_WW


def serializable_order_exists(committed, initial_versions, final_state) -> bool:
    """Brute-force oracle: some serial order reproduces reads and final state."""
    txns = [
        (r.txn.id, dict(r.read_versions), dict(r.txn.write_set)) for r in committed
    ]
    final_versions = {}
    versions = dict(initial_versions)
    dead = set()

    def dfs(placed, versions):
        if len(placed) == len(txns):
            for key, (value, version) in final_state.items():
                if versions.get(key, 0) != version:
                    return False
            return True
        key = frozenset(placed)
        if key in dead:
            return False
        for i, (tid, reads, writes) in enumerate(txns):
            if i in placed:
                continue
            if all(versions.get(k, 0) == v for k, v in reads.items()):
                for k in writes:
                    versions[k] = versions.get(k, 0) + 1
                if dfs(placed | {i}, versions):
                    return True
                for k in writes:
                    versions[k] -= 1
        dead.add(key)
        return False

    return dfs(frozenset(), versions)


class TestOccSerializability:
    def test_committed_schedules_are_serializable(self):
        for seed in range(40):
            spec = occ_spec(
                record_count=4, ops_per_txn=2, txn_count=8, theta=0.0, seed=seed
            )
            res = run_pipeline(db_config(), spec, Arrival.closed_loop(8), seed=seed)
            committed = [
                r for r in res.records.values() if r.outcome is TxnOutcome.COMMITTED
            ]
            initial = {key: 1 for key, _ in initial_state(spec)}
            assert serializable_order_exists(committed, initial, res.final_state), seed


class TestNoLeaderRetry:
    @pytest.mark.parametrize(
        "pipeline_cls, cfg",
        [
            (OrderExecutePipeline, oe_config()),
            (ExecuteOrderValidatePipeline, eov_config(replication_approach=ReplicationApproach.CONSENSUS)),
            (StorageReplicatedPipeline, db_config()),
        ],
    )
    def test_requests_wait_for_an_elected_leader(self, pipeline_cls, cfg):
        pipeline = pipeline_cls(cfg, update_spec(txn_count=60), Arrival.open_loop(2000), seed=3)
        # the bootstrapped Raft leader steps down; the rest elect a new one
        pipeline.peers[0].ordering.role = "follower"
        assert pipeline.leader() is None
        assert not pipeline.drive()
        assert pipeline.sim.delivered_counts["cl:retry"] > 0
        assert pipeline.leader() not in (None, pipeline.peers[0])
        assert pipeline.committed_count() > 0
        assert len({p.state.kv.state_fingerprint() for p in pipeline.peers}) == 1


def _owned_containers(state):
    """Every mutable container a replica's store holds."""
    index = state.index
    if index is None:
        held = []
    elif isinstance(index, MerklePatriciaTrie):
        held = [index._nodes]
    else:
        held = [index.buckets, index.levels, *index.buckets, *index.levels]
    return [state, state.kv, state.kv._data, state.meter, state.ledger, index, *held]


class TestReplicaSharedWork:
    @pytest.mark.parametrize(
        "pipeline_cls, cfg, codec",
        [
            (OrderExecutePipeline, oe_config(index=IndexKind.MPT), "order_execute:decode_block"),
            (ExecuteOrderValidatePipeline, eov_config(), "eov:decode_entries"),
            (StorageReplicatedPipeline, db_config(index=IndexKind.MBT), "storage:decode_op"),
        ],
    )
    def test_replicas_own_their_state_and_payloads_decode_once(
        self, pipeline_cls, cfg, codec, monkeypatch
    ):
        module_name, _, name = codec.partition(":")
        module = importlib.import_module(f"txsim.pipeline.{module_name}")
        decode, calls = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda payload: calls.append(payload) or decode(payload))

        pipeline = pipeline_cls(cfg, update_spec(txn_count=120), Arrival.open_loop(2000), seed=6)
        held = [
            {id(c) for c in _owned_containers(p.state) if c is not None} for p in pipeline.peers
        ]
        for i, ids in enumerate(held):
            for other in held[i + 1 :]:
                assert not ids & other
        assert {p.state.meter.snapshot() for p in pipeline.peers} == {(0, 0)}

        assert not pipeline.drive()
        assert pipeline._decoded == {}
        assert len(calls) == len(set(calls)) > 0  # one decode per distinct payload
        assert len({p.state.kv.state_fingerprint() for p in pipeline.peers}) == 1

        ledgers = [p.state.ledger for p in pipeline.peers]
        if cfg.ledger_enabled:
            assert len(calls) == len(ledgers[0].blocks)
            tampered = ledgers[1]
            tampered.blocks[1] = dataclasses.replace(tampered.blocks[1], proposer=7)
            broken = [ledger.verify_chain() for ledger in ledgers]
            # block 1's digest no longer matches what block 2 extends
            assert broken == [None, 2, None, None, None]


class TestRunPipelineDispatch:
    def test_serial_config_uses_order_execute(self):
        cfg = oe_config(concurrency_mode=ConcurrencyMode.SERIAL)
        res = run_pipeline(cfg, update_spec(txn_count=100), Arrival.open_loop(2000), seed=23)
        assert res.committed == 100
        assert {r.executions for r in res.records.values()} == {2}

    def test_invalid_config_raises(self):
        cfg = db_config(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE)
        with pytest.raises(ValueError, match="pipeline/model mismatch"):
            run_pipeline(cfg, update_spec(txn_count=10), Arrival.open_loop(100), seed=1)

    def test_smallbank_app_aborts_are_distinct(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.SMALLBANK, record_count=10, theta=1.0, txn_count=300, seed=24
        )
        res = run_pipeline(oe_config(), spec, Arrival.open_loop(2000), seed=24)
        counts = res.abort_counts()
        assert counts.get("aborted_application", 0) > 0
        assert res.committed + counts["aborted_application"] == 300
