"""Transaction lifecycles: trends, phase accounting, and correctness oracles."""

import dataclasses
import gc
import importlib
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from cluster_utils import observer_kv, run_flat
from mpt_reference import assert_stored_round_trip, reachable_digests, reachable_nodes
from txsim import simnet
from txsim.authstore import MerklePatriciaTrie, StateStore
from txsim.core import (
    Block,
    ConcurrencyMode,
    CostModel,
    DesignConfig,
    FailureModel,
    IndexKind,
    ReplicationApproach,
    ReplicationModel,
    ShardingMode,
    Transaction,
    TxnOutcome,
    validate_config,
)
from txsim.core import encoding
from txsim.harness import emit_csv, find_saturation_rate, run_experiment, run_row
from txsim.harness.metrics import metrics_from_run
from txsim.pipeline import (
    Arrival,
    drive_and_collect,
    occ_validate,
    run_pipeline,
    txn_report,
)
from txsim.consensus import ProtocolHost
from txsim.pipeline.base import _PRELOADED, BlockFormer, PipelineBase
from txsim.pipeline.eov import ExecuteOrderValidatePipeline
from txsim.consensus.pbft import PbftComponent
from txsim.pipeline.order_execute import OeWorker, OrderExecutePipeline
from txsim.pipeline.storage import StorageReplicatedPipeline
from txsim.simnet import FaultKind, Simulator
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


def count_executions(monkeypatch) -> Counter:
    """Transaction id -> ``exec_cost`` calls, one per execution on any replica."""
    calls, cost = Counter(), PipelineBase.exec_cost

    def spy(self, txn):
        calls[txn.id] += 1
        return cost(self, txn)

    monkeypatch.setattr(PipelineBase, "exec_cost", spy)
    return calls


class TestOrderExecute:
    def test_conflicting_stream_has_zero_aborts(self):
        res = run_pipeline(
            oe_config(), update_spec(theta=1.0), Arrival.open_loop(2000), seed=1
        )
        assert res.committed == 400
        assert res.abort_counts() == {}

    def test_every_txn_pre_executed_once_and_applied_on_every_replica(self, monkeypatch):
        calls = count_executions(monkeypatch)
        res = run_pipeline(oe_config(), update_spec(), Arrival.open_loop(2000), seed=1)
        assert calls.keys() == res.records.keys()
        assert set(calls.values()) == {1 + 5}

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

    def test_replicas_agree_on_the_ledger_built_from_ordered_bytes(self):
        pipeline = OrderExecutePipeline(
            oe_config(), update_spec(txn_count=150), Arrival.open_loop(2000), seed=8
        )
        assert not pipeline.drive()
        ledgers = [p.state.ledger for p in pipeline.peers]
        assert len(ledgers[0]) > 1
        assert len({ledger.tip_digest for ledger in ledgers}) == 1
        assert ledgers[0].tip_digest == encoding.digest(encoding.encode_block(ledgers[0].blocks[-1]))
        assert [ledger.verify_chain() for ledger in ledgers] == [None] * len(ledgers)

    def test_mpt_preload_stores_only_reachable_nodes(self):
        # the records of the oe_raft_mpt benchmark cell: 1000 keys, 1000-byte values
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, txn_count=100, seed=7)
        cfg = oe_config(index=IndexKind.MPT)
        pipeline = OrderExecutePipeline(cfg, spec, Arrival.closed_loop(16), seed=7)
        for peer in pipeline.peers:
            trie = peer.state.index
            # inserting the records one by one created 4000 nodes
            assert len(reachable_nodes(trie)) == len(reachable_digests(trie)) == 1273
        # the replicas share one node graph until they write
        assert len({id(peer.state.index._root) for peer in pipeline.peers}) == 1
        assert not pipeline.drive()
        assert len({peer.state.index_root() for peer in pipeline.peers}) == 1

    def test_replicas_hold_the_generated_transactions_and_values(self):
        pipeline = OrderExecutePipeline(
            oe_config(index=IndexKind.MPT), update_spec(txn_count=150), Arrival.open_loop(2000),
            seed=9,
        )
        assert not pipeline.drive()
        records = pipeline.records
        ledgers = [peer.state.ledger for peer in pipeline.peers]
        assert len(ledgers[0]) > 1
        last = {}  # key -> the value object its last committed write carried
        for ledger in ledgers:
            assert [len(block.txn_list) for block in ledger.blocks] == [
                len(block.txn_list) for block in ledgers[0].blocks
            ]
            for h, block in enumerate(ledger.blocks):
                for i, txn in enumerate(block.txn_list):
                    assert txn is records[txn.id].txn
                    assert txn is ledgers[0].blocks[h].txn_list[i]
                    if not txn.app_abort:
                        last.update(txn.write_set)
        assert last
        for peer in pipeline.peers:
            for key, value in last.items():
                assert peer.state.kv.get(key)[0] is value
                assert peer.state.index.get(key) is value

    def test_a_decoded_transaction_unlike_its_record_is_kept(self):
        pipeline = OrderExecutePipeline(
            oe_config(), update_spec(txn_count=10), Arrival.open_loop(2000), seed=9
        )
        same, other = pipeline.txns[0], pipeline.txns[1]
        (key, value), *rest = other.write_set
        altered = dataclasses.replace(other, write_set=((key, value + b"!"), *rest))
        payload = encoding.encode_block(Block(0, bytes(32), (same, altered)))
        block = pipeline.block_of(payload)
        assert block == encoding.decode_block(payload)
        assert block.txn_list[0] is same
        assert block.txn_list[1] == altered and block.txn_list[1] != other

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
        res, pipeline = run_flat(
            eov_config(), update_spec(txn_count=100), Arrival.open_loop(2000), seed=7
        )
        blocks = len(pipeline.peers[pipeline.observer_id].state.ledger.blocks)
        assert blocks > 0
        # one slog:deliver per block and peer, as for order-execute on the log
        assert res.consensus_messages() == blocks * 5

    def test_stale_read_aborts_rw(self):
        res = run_pipeline(
            eov_config(), update_spec(theta=1.0), Arrival.open_loop(2500), seed=6
        )
        assert res.abort_counts().get("aborted_rw", 0) > 0

    def test_divergent_endorsements_abort_inconsistent_read(self):
        res, pipeline = run_flat(
            eov_config(), update_spec(theta=1.0, txn_count=800), Arrival.open_loop(2500), seed=6
        )
        assert res.abort_counts().get("aborted_inconsistent_read", 0) > 0
        # ordered and inconsistent-read endorsements both leave the table
        assert pipeline._endorsing == {}

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
        spec = update_spec(theta=0.8, txn_count=500)
        res, pipeline = run_flat(eov_config(), spec, Arrival.open_loop(2500), seed=9)
        versions = {key: 1 for key, _ in initial_state(spec)}
        values = {key: value for key, value in initial_state(spec)}
        # the observer's ledger holds its blocks in the order it validated them
        for block in pipeline.peers[pipeline.observer_id].state.ledger.blocks:
            for txn in block.txn_list:
                record = res.records[txn.id]
                if txn.app_abort:
                    expected = TxnOutcome.ABORTED_APPLICATION
                elif all(
                    versions.get(k, 0) == v for k, v in record.read_versions.items()
                ):
                    expected = TxnOutcome.COMMITTED
                else:
                    expected = TxnOutcome.ABORTED_RW
                assert expected == record.outcome, f"txn {txn.id}"
                if expected is TxnOutcome.COMMITTED:
                    for key, value in txn.write_set:
                        versions[key] = versions.get(key, 0) + 1
                        values[key] = value
        final = observer_kv(pipeline)
        for key, version in versions.items():
            assert final[key] == (values[key], version)

    def test_signature_check_adds_its_cost_to_every_latency(self):
        # fixed network latency and one client: every transaction runs alone,
        # so its latency is a known answer and validation charges each
        # committed transaction one signature check on the observer
        def latencies(sig_verify_time):
            cm = CostModel(net_latency_min=500, net_latency_mean=500, sig_verify_time=sig_verify_time)
            cfg = eov_config(ledger_enabled=False, cost_model=cm)
            spec = update_spec(record_count=1_000, txn_count=20)
            res = run_pipeline(cfg, spec, Arrival.closed_loop(1), seed=3)
            assert res.committed == 20
            return {i: r.latency for i, r in res.records.items()}

        free = latencies(0)
        assert set(free.values()) == {7_540}
        assert latencies(200) == {i: lat + 200 for i, lat in free.items()}

    def test_validation_is_the_phase_that_grows_when_saturated(self):
        spec = update_spec(txn_count=500)
        slow = run_pipeline(eov_config(), spec, Arrival.open_loop(800), seed=11)
        fast = run_pipeline(eov_config(), spec, Arrival.open_loop(6000), seed=11)
        unsat, sat = slow.phase_means(), fast.phase_means()
        growth = {
            phase: getattr(sat, phase) - getattr(unsat, phase)
            for phase in ("execute", "order", "validate_commit")
        }
        assert max(growth, key=growth.get) == "validate_commit"
        # unsaturated phases sit near their cost-model floors: one endorsement
        # round trip, one block interval, one validation pass
        assert unsat.execute < 3_000
        assert unsat.order < 7_000
        assert unsat.validate_commit < 3_000
        assert sat.validate_commit > 5 * unsat.validate_commit

    def test_crashed_endorser_drops_transactions(self):
        cfg = eov_config()
        spec = update_spec(txn_count=120)
        from txsim.pipeline.eov import ExecuteOrderValidatePipeline

        pipeline = ExecuteOrderValidatePipeline(cfg, spec, Arrival.open_loop(2000), seed=12)
        pipeline.sim.inject_fault(3, FaultKind.CRASHED, at_time=10_000)
        res = drive_and_collect(pipeline)
        assert res.dropped > 0
        # a drop is its record's outcome, and every report reads it from there
        dropped = {i for i, r in res.records.items() if r.outcome is TxnOutcome.DROPPED}
        assert len(dropped) == res.dropped == metrics_from_run(res).dropped
        # a timeout is delivered only for the transactions it drops; the rest are cancelled
        assert pipeline.sim.delivered_counts["cl:endorse_timeout"] == res.dropped
        assert pipeline._endorsing == {}  # a drop leaves the endorsement table too
        rows = [line.split("\t") for line in txn_report(res).splitlines()[1:]]
        assert {int(row[0]) for row in rows if row[4:] == ["dropped", "endorsement_timeout"]} == dropped

    def test_consensus_ordering_variant(self):
        cfg = eov_config(replication_approach=ReplicationApproach.CONSENSUS)
        res = run_pipeline(cfg, update_spec(txn_count=200), Arrival.open_loop(2000), seed=13)
        assert res.committed > 150
        assert len(set(res.fingerprints)) == 1

    @staticmethod
    def _count_block_encodes(monkeypatch):
        encode, calls = encoding.encode_block, []
        for module in list(sys.modules.values()):
            if module.__name__.startswith("txsim") and vars(module).get("encode_block") is encode:
                monkeypatch.setattr(module, "encode_block", lambda b: calls.append(b) or encode(b))
        return calls

    def _saturated_raft_pipeline(self):
        cfg = eov_config(replication_approach=ReplicationApproach.CONSENSUS)
        spec = update_spec(theta=0.6, txn_count=300)
        return ExecuteOrderValidatePipeline(cfg, spec, Arrival.open_loop(2500), seed=7)

    def test_each_block_is_encoded_once_for_all_peers(self, monkeypatch):
        calls = self._count_block_encodes(monkeypatch)
        pipeline = self._saturated_raft_pipeline()
        assert not pipeline.drive()
        ledgers = [peer.state.ledger for peer in pipeline.peers]
        blocks = len(ledgers[0])
        assert blocks > 5 and all(len(ledger) == blocks for ledger in ledgers)
        assert len(calls) == blocks and pipeline._decoded == {}
        assert len({ledger.tip_digest for ledger in ledgers}) == 1

    def test_replica_with_a_diverging_tip_encodes_its_own_blocks(self, monkeypatch):
        calls = self._count_block_encodes(monkeypatch)
        pipeline = self._saturated_raft_pipeline()
        odd = pipeline.peers[3].state.ledger
        odd.append(Block(height=0, parent_digest=odd.tip_digest, txn_list=(), proposer=9))
        assert not pipeline.drive()
        ledgers = [peer.state.ledger for peer in pipeline.peers]
        blocks = len(ledgers[0])
        assert len(odd) == blocks + 1 and len(calls) >= 2 * blocks
        assert all(ledger.verify_chain() is None for ledger in ledgers)
        assert len({ledger.tip_digest for ledger in ledgers}) == 2


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

    def test_locking_queues_instead_of_aborting_uncontended(self):
        res = run_pipeline(
            db_config(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING),
            occ_spec(theta=0.0),
            Arrival.closed_loop(16),
            seed=18,
        )
        assert res.committed == 400
        assert res.abort_counts() == {}

    def test_locking_commits_a_keyless_transaction_at_once(self):
        pipeline = StorageReplicatedPipeline(
            db_config(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING),
            occ_spec(txn_count=1),
            Arrival.closed_loop(1),
            seed=18,
        )
        record = next(iter(pipeline.records.values()))
        record.txn = Transaction(id=record.txn.id)
        res = drive_and_collect(pipeline)
        assert res.committed == 1
        assert record.latency < pipeline.lock_timeout

    def test_locking_holds_no_latch_after_the_run(self):
        # a DbLock that the network delivers after its transaction's DbCancel
        # used to be granted to the aborted transaction, and never released
        cfg = db_config(
            concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING,
            replication_approach=ReplicationApproach.PRIMARY_BACKUP,
        )
        spec = WorkloadSpec(
            kind=WorkloadKind.SMALLBANK, record_count=20, theta=0.9, txn_count=400, seed=1
        )
        pipeline = StorageReplicatedPipeline(cfg, spec, Arrival.closed_loop(16), seed=1)
        res = drive_and_collect(pipeline)
        assert not res.stalled and res.pending == 0
        assert res.abort_counts()["aborted_blocked"] > 0  # latches did time out
        blocked = {i for i, r in res.records.items() if r.outcome is TxnOutcome.ABORTED_BLOCKED}
        for peer in pipeline.peers:
            assert (peer.lock_holder, peer.held, peer.lock_queue) == ({}, {}, {})
            # only a lock-timeout abort can still have a DbLock on the way
            assert peer.cancelled <= blocked

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

    def test_each_delivery_computes_its_kind_once(self, monkeypatch):
        kind_of, calls = simnet.payload_kind, []
        # count calls through every txsim module that holds the function
        for module in list(sys.modules.values()):
            if module.__name__.startswith("txsim") and vars(module).get("payload_kind") is kind_of:
                monkeypatch.setattr(module, "payload_kind", lambda p: calls.append(p) or kind_of(p))
        cfg = db_config(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=1)
        res = run_pipeline(cfg, occ_spec(txn_count=60), Arrival.closed_loop(8), seed=22)
        # the simulator's kind reaches the host's dispatch; nothing computes it again
        assert len(calls) == sum(res.delivered_counts.values()) > 0


class TestOccValidate:
    class _Store:
        def __init__(self, versions):
            self._v = versions

        def version(self, key):
            return self._v.get(key, 0)

    def test_current_versions_commit(self):
        store = self._Store({b"a": 3, b"b": 7})
        out = occ_validate({b"a": 3, b"b": 7}, (), store, {})
        assert out is TxnOutcome.COMMITTED

    def test_one_stale_read_aborts_rw(self):
        store = self._Store({b"a": 4})
        assert occ_validate({b"a": 3}, (), store, {}) is TxnOutcome.ABORTED_RW

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
            res, pipeline = run_flat(db_config(), spec, Arrival.closed_loop(8), seed=seed)
            committed = [
                r for r in res.records.values() if r.outcome is TxnOutcome.COMMITTED
            ]
            initial = {key: 1 for key, _ in initial_state(spec)}
            assert serializable_order_exists(committed, initial, observer_kv(pipeline)), seed


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
        assert any(r.outcome is TxnOutcome.COMMITTED for r in pipeline.records.values())
        assert len({p.state.kv.state_fingerprint() for p in pipeline.peers}) == 1


    @pytest.mark.parametrize(
        "mode", [ConcurrencyMode.CONCURRENT_OCC, ConcurrencyMode.CONCURRENT_LOCKING]
    )
    def test_a_leader_that_steps_down_while_writes_replicate_settles_them(self, mode):
        pipeline = StorageReplicatedPipeline(
            db_config(concurrency_mode=mode), update_spec(txn_count=40, ops_per_txn=3),
            Arrival.closed_loop(1), seed=3,
        )
        serving = pipeline.peers[0]
        while not serving.pending_writes:
            pipeline.sim.step()
        # the bootstrapped Raft leader steps down; its proposed writes commit
        # under the next leader, and only it counts them
        serving.ordering.role = "follower"
        replicating = list(serving.pending_writes)
        assert not pipeline.drive()
        assert pipeline.leader() not in (None, serving)
        assert all(pipeline.records[t].outcome is TxnOutcome.COMMITTED for t in replicating)
        assert all(not p.pending_writes for p in pipeline.peers)
        assert len({p.state.kv.state_fingerprint() for p in pipeline.peers}) == 1


class TestBlockFormer:
    @staticmethod
    def _former(limit):
        sim = Simulator(lambda: 0)
        host = sim.add_node(ProtocolHost("former"))
        host.pipeline = SimpleNamespace(cm=CostModel(block_size_limit=limit))
        closed = []
        former = BlockFormer(host, "blk:timer", closed.append)
        host.register("blk", lambda timer: former.flush())
        return sim, former, closed

    def test_a_block_closed_by_size_leaves_no_block_timer(self):
        sim, former, closed = self._former(limit=2)
        for request in "abcd":
            former.add(request)
        sim.run()
        assert closed == [["a", "b"], ["c", "d"]]
        assert "blk:timer" not in sim.delivered_counts and sim.pending() == 0

    def test_a_partial_block_closes_when_its_timer_fires(self):
        sim, former, closed = self._former(limit=3)
        for request in "abcd":
            former.add(request)
        sim.run()
        assert closed == [["a", "b", "c"], ["d"]]
        assert sim.delivered_counts["blk:timer"] == 1
        assert sim.now == CostModel().block_timeout


def _owned_containers(state):
    """Every mutable container a replica's store holds; an MPT holds none."""
    index = state.index
    if index is None or isinstance(index, MerklePatriciaTrie):
        held = []
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
    def test_serial_config_uses_order_execute(self, monkeypatch):
        calls = count_executions(monkeypatch)
        cfg = oe_config(concurrency_mode=ConcurrencyMode.SERIAL)
        res = run_pipeline(cfg, update_spec(txn_count=100), Arrival.open_loop(2000), seed=23)
        assert res.committed == 100
        # one pre-execution on the proposer, one execution per replica
        assert calls.keys() == res.records.keys()
        assert set(calls.values()) == {1 + 5}

    SHARDED = DesignConfig(
        sharding_mode=ShardingMode.TRUSTED_2PC, node_count=6, tolerated_failures=1
    )

    def test_sharded_config_is_refused(self):
        with pytest.raises(ValueError, match="run_experiment"):
            run_pipeline(self.SHARDED, WorkloadSpec(txn_count=50), Arrival.open_loop(1000), seed=1)

    def test_saturation_search_refuses_sharded_config(self):
        with pytest.raises(ValueError, match="run_experiment"):
            find_saturation_rate(self.SHARDED, WorkloadSpec(txn_count=50), seed=1)

    def test_run_experiment_runs_the_refused_sharded_config(self):
        # the entry point the refusal names runs the cell on both shards
        m = run_experiment(self.SHARDED, WorkloadSpec(txn_count=50), Arrival.open_loop(1000), seed=1)
        assert m.shard_count == 2
        assert (m.submitted, m.committed, m.pending) == (50, 50, 0)

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


class TestBoundedReplicaState:
    """Replica state follows the working set, not the run length."""

    def test_pbft_frees_every_executed_seq(self, monkeypatch):
        # the occ_pbft_smallbank benchmark cell; every write is one PBFT seq
        cfg = db_config(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=1)
        clients = 16
        handle, peak = PbftComponent.handle, 0

        def watched(comp, msg):
            nonlocal peak
            out = handle(comp, msg)
            assert min(comp.slots, default=comp.exec_cursor + 1) > comp.exec_cursor
            peak = max(peak, len(comp.slots))
            return out

        monkeypatch.setattr(PbftComponent, "handle", watched)
        for txn_count in (400, 4000):
            peak = 0
            spec = WorkloadSpec(kind=WorkloadKind.SMALLBANK, txn_count=txn_count, seed=7)
            pipeline = StorageReplicatedPipeline(cfg, spec, Arrival.closed_loop(clients), seed=7)
            assert not pipeline.drive()
            comps = [peer.ordering for peer in pipeline.peers]
            assert all(c.exec_cursor > txn_count for c in comps)
            for c in comps:
                # everything ordered was executed, and nothing of it is left
                assert (c.slots, c.proposed_requests) == ({}, set())
                assert len(c.committed) == c.exec_cursor  # the decided log stays
            # live seqs are the writes in flight, at most one transaction per
            # client, so the peak is the same bound at either length
            window = clients * max(len(t.write_set) for t in pipeline.txns)
            assert 0 < peak <= window < txn_count

    def test_mpt_store_holds_only_reachable_nodes_after_every_block(self, monkeypatch):
        # the oe_raft_mpt benchmark cell: 1000 keys, 1000-byte values, ten times as long
        apply_block, sizes = OeWorker.apply_block, []

        def checked(worker, *args):
            apply_block(worker, *args)
            nodes = reachable_nodes(worker.state.index)
            sizes.append((len(nodes), len({node.digest for node in nodes})))

        monkeypatch.setattr(OeWorker, "apply_block", checked)
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, txn_count=4000, seed=7)
        pipeline = OrderExecutePipeline(
            oe_config(index=IndexKind.MPT), spec, Arrival.closed_loop(16), seed=7
        )
        assert not pipeline.drive()
        assert len(sizes) >= 5 * 4000 // 16  # every replica applied every block
        # the key set is fixed, so the trie's shape and node count are too
        assert set(sizes) == {(1273, 1273)}
        for node in reachable_nodes(pipeline.peers[0].state.index):
            assert_stored_round_trip(node)

    def test_oe_mpt_cell_traced_peak_stays_bounded(self):
        """The traced peak of a 200-txn cell of the ``oe_raft_mpt`` benchmark
        config stays under 1,000,000 B.

        Measured on CPython 3.11.7: 843,021 B, the same under
        ``PYTHONHASHSEED`` 0, 1, 7 and random.  Before the replicas shared the
        generated transactions, the pristine KV and bytes nibble paths, the
        same cell read 1,276,551 B.
        """
        cfg = DesignConfig(
            concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
            replication_approach=ReplicationApproach.CONSENSUS,
            failure_model=FailureModel.CFT,
            node_count=5,
            tolerated_failures=2,
            index=IndexKind.MPT,
            ledger_enabled=True,
        )
        spec = WorkloadSpec(
            kind=WorkloadKind.YCSB_UPDATE, record_size_bytes=1000, theta=0.0, txn_count=200,
            seed=3,
        )
        arrival = Arrival.closed_loop(16)
        run_experiment(cfg, spec, arrival, seed=3)  # builds and caches the pristine store
        gc.collect()
        tracemalloc.start()
        try:
            metrics = run_experiment(cfg, spec, arrival, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.committed == 200
        assert peak < 1_000_000


_MPT_CELL = oe_config(index=IndexKind.MPT)
_PLAIN_CELL = eov_config(replication_approach=ReplicationApproach.CONSENSUS)


def _run_cell(cfg, spec, seed, tmp_path, monkeypatch):
    """One cell through ``run_experiment``: its outputs and the pipeline that ran it."""
    seen = []
    drive = PipelineBase.drive
    monkeypatch.setattr(PipelineBase, "drive", lambda p, *a: seen.append(p) or drive(p, *a))
    arrival = Arrival.closed_loop(16)
    trace_path, csv_path = tmp_path / "trace.tsv", tmp_path / "row.csv"
    metrics = run_experiment(cfg, spec, arrival, seed=seed, trace_path=trace_path)
    emit_csv([run_row(cfg, spec, arrival, seed, metrics)], csv_path)
    (pipeline,) = seen
    states = [peer.state for peer in pipeline.peers]
    outputs = (
        csv_path.read_bytes(),
        trace_path.read_bytes(),
        [s.kv.state_fingerprint() for s in states],
        [s.index_root() if s.index is not None else None for s in states],
    )
    return outputs, pipeline


class TestPreloadOncePerProcess:
    """Cells fork their replicas from one pristine store; no output depends on earlier cells."""

    def test_outputs_do_not_depend_on_earlier_cells(self, tmp_path, monkeypatch):
        mpt_a = update_spec(txn_count=150, seed=3)
        mpt_b = update_spec(txn_count=150, seed=4)
        cells = [(_MPT_CELL, mpt_a, 1), (_MPT_CELL, mpt_b, 2), (_PLAIN_CELL, mpt_a, 3),
                 (_MPT_CELL, mpt_b, 2)]
        fresh = []
        for cfg, spec, seed in cells:
            _PRELOADED.clear()
            fresh.append(_run_cell(cfg, spec, seed, tmp_path, monkeypatch)[0])

        _PRELOADED.clear()
        pristine = []
        for (cfg, spec, seed), alone in zip(cells, fresh):
            outputs, pipeline = _run_cell(cfg, spec, seed, tmp_path, monkeypatch)
            assert outputs == alone
            (store,) = _PRELOADED.values()
            assert all(peer.state is not store for peer in pipeline.peers)
            pristine.append(store)
        # the second cell reused the first one's build; the others rebuilt
        assert pristine[1] is pristine[0]
        assert len({id(store) for store in pristine}) == 3

    def test_pristine_store_is_untouched_and_holds_no_memo(self, tmp_path, monkeypatch):
        spec = update_spec(txn_count=150)
        _PRELOADED.clear()
        _, pipeline = _run_cell(_MPT_CELL, spec, 5, tmp_path, monkeypatch)
        (store,) = _PRELOADED.values()
        loaded = StateStore(index=IndexKind.MPT, ledger_enabled=True)
        loaded.load(initial_state(spec))
        trie, fresh = store.index, loaded.index
        assert store.kv.state_fingerprint() == loaded.kv.state_fingerprint()
        assert trie.root == fresh.root
        assert reachable_digests(trie) == reachable_digests(fresh)
        assert len(store.ledger) == 0 and store.meter.snapshot() == (0, 0)

        kept = {id(c) for c in _owned_containers(store)}
        for peer in pipeline.peers:
            assert not kept & {id(c) for c in _owned_containers(peer.state)}

        assert trie.memo is None
        memo = pipeline.peers[0].state.index.memo
        assert memo.sharers == len(pipeline.peers)
        assert all(peer.state.index.memo is memo for peer in pipeline.peers)
        assert memo.entries == {}
