"""Consensus protocols: quorum arithmetic, Raft-style CFT, PBFT-style BFT,
shared log, and primary-backup."""

import pytest

from cluster_utils import (
    PbftHarness,
    RaftHarness,
    assert_agreement,
    committed_digests,
    messages_per_commit,
)
from txsim.core import (
    ConcurrencyMode,
    CostModel,
    DesignConfig,
    FailureModel,
    ReplicationApproach,
    ReplicationModel,
    seeded_rng,
)
from txsim.consensus import (
    ProtocolHost,
    QuorumError,
    quorum_size,
)
from txsim.consensus.pbft import Request
from txsim.consensus.raft import RaftComponent, RaftTiming
from txsim.consensus.sharedlog import (
    LogAppend,
    LogDeliver,
    SharedLogService,
)
from txsim.pipeline import Arrival, drive_and_collect
from txsim.pipeline.storage import StorageReplicatedPipeline
from txsim.simnet import FaultKind, Node, Simulator
from txsim.workload import WorkloadKind, WorkloadSpec


class TestQuorumArithmetic:
    def test_examples(self):
        assert quorum_size(5, FailureModel.CFT) == 3
        assert quorum_size(4, FailureModel.BFT) == 3
        assert quorum_size(1, FailureModel.CFT) == 1

    def test_bft_rejects_sizes_not_3f_plus_1(self):
        for n in (2, 3, 5, 6, 8, 9):
            with pytest.raises(QuorumError):
                quorum_size(n, FailureModel.BFT)

    def test_cft_majority_for_all_n_up_to_31(self):
        for n in range(1, 32):
            q = quorum_size(n, FailureModel.CFT)
            assert q == n // 2 + 1
            # any two quorums overlap in at least one node
            assert 2 * q - n >= 1

    def test_bft_intersection_for_all_valid_n_up_to_31(self):
        for f in range(0, 11):
            n = 3 * f + 1
            if n > 31:
                break
            q = quorum_size(n, FailureModel.BFT)
            assert q == 2 * f + 1
            # any two quorums overlap in at least f+1 nodes, so at least
            # one non-faulty node is in both
            assert 2 * q - n >= f + 1


class TestRaft:
    def test_three_nodes_commit_without_faults(self):
        h = RaftHarness(3, seed=101)
        leftover = h.drive([b"alpha", b"beta"], duration=300_000)
        assert leftover == []
        for i in range(3):
            payloads = [p for _, p in h.commits[i]]
            assert payloads == [b"alpha", b"beta"]
        assert_agreement([c.replica_state() for c in h.comps.values()])

    def test_leader_crash_preserves_committed_prefix(self):
        h = RaftHarness(5, seed=102)
        h.drive([b"e1", b"e2"], duration=300_000)
        leader = h.healthy_leader()
        assert leader is not None
        old_leader_id = leader.node_id
        committed_before = committed_digests(leader.replica_state())
        h.sim.inject_fault(old_leader_id, FaultKind.CRASHED)
        h.drive([b"e3"], duration=400_000)
        new_leader = h.healthy_leader()
        assert new_leader is not None and new_leader.node_id != old_leader_id
        after = committed_digests(new_leader.replica_state())
        assert after[: len(committed_before)] == committed_before
        survivors = [
            c.replica_state() for i, c in h.comps.items() if i != old_leader_id
        ]
        assert_agreement(survivors)
        assert any(p == b"e3" for _, p in h.commits[new_leader.node_id])

    def test_three_of_five_crashed_no_commit(self):
        h = RaftHarness(5, seed=103)
        for i in (0, 1, 2):
            h.sim.inject_fault(i, FaultKind.CRASHED, at_time=0)
        h.drive([b"never"], duration=400_000)
        assert all(h.commits[i] == [] for i in range(5))

    def test_no_faults_term_settles(self):
        h = RaftHarness(3, seed=104)
        h.drive([b"x"], duration=200_000)
        term = h.healthy_leader().term
        h.drive([], duration=300_000)
        assert h.healthy_leader().term == term

    def test_commit_stalls_during_election_then_resumes(self):
        h = RaftHarness(5, seed=105)
        h.drive([b"p0"], duration=200_000)
        leader = h.healthy_leader()
        crash_at = h.sim.now
        h.sim.inject_fault(leader.node_id, FaultKind.CRASHED)
        follower = next(i for i in range(5) if i != leader.node_id)
        before = len(h.commits[follower])

        # feed the next entry and watch for the first post-crash commit
        pending = [b"p1"]
        first_commit_time = None
        t = h.sim.now
        while t < crash_at + 400_000 and first_commit_time is None:
            t += 5_000
            h.sim.run(until=t)
            new_leader = h.healthy_leader()
            if new_leader is not None and pending and new_leader.propose(pending[0]):
                pending.pop(0)
            if len(h.commits[follower]) > before:
                first_commit_time = h.sim.now
        assert first_commit_time is not None
        # the observed pause spans at least one election timeout
        assert first_commit_time - crash_at >= h.comps[follower].timing.election_min
        assert h.healthy_leader().term > leader.term

    def test_bootstrapped_cluster_delivers_no_election_timer(self):
        # heartbeats cancel every follower's election timer before it fires
        cm = CostModel()
        timing = RaftTiming.from_mean_latency(cm.net_latency_mean)
        sim = Simulator(latency=cm.latency_drawer(seeded_rng(106, "net")))
        comps = []
        for i in range(5):
            comp = RaftComponent(list(range(5)), timing, seeded_rng(106, f"timeout-{i}"))
            comp.attach(sim.add_node(ProtocolHost(i)))
            comp.start_bootstrapped(0)
            comps.append(comp)
        for k in range(12):
            assert comps[0].propose(b"e%d" % k)
            sim.run(until=sim.now + timing.election_max)
        assert sim.delivered_counts["raft:hb_timer"] > 0
        assert "raft:timer" not in sim.delivered_counts
        assert all(c.term == 1 and c.commit_index == 12 for c in comps)

    def test_followers_healed_from_a_crash_elect_a_leader(self):
        # their election timers came up while they were crashed and were dropped
        h = RaftHarness(3, seed=101)
        h.sim.run(until=50_000)
        leader = h.healthy_leader()
        followers = [i for i in h.comps if i != leader.node_id]
        for i in followers:
            h.sim.inject_fault(i, FaultKind.CRASHED)
        h.sim.run(until=h.sim.now + 100_000)
        for i in followers:
            h.sim.heal(i)
        h.sim.inject_fault(leader.node_id, FaultKind.CRASHED)
        h.sim.run(until=h.sim.now + 1_000_000)
        new_leader = h.healthy_leader()
        assert new_leader is not None and new_leader.node_id in followers
        assert new_leader.term > leader.term

    def test_a_healed_leader_restarts_as_a_follower_with_no_heartbeat_left(self):
        h = RaftHarness(3, seed=107, trace=True)
        h.sim.run(until=50_000)
        leader = h.healthy_leader()
        interval = leader.timing.heartbeat_interval
        h.sim.run(until=leader._heartbeat.fire_time)  # a tick fires and the next is armed
        h.sim.inject_fault(leader.node_id, FaultKind.CRASHED)
        h.sim.heal(leader.node_id, at_time=h.sim.now + 100)  # before the next tick comes up
        h.sim.run(until=h.sim.now + 100)
        assert leader.role == "follower"
        healed_at = h.sim.now
        h.sim.run(until=healed_at + interval)
        ticks = [
            line for line in h.sim.dump_trace().splitlines()
            if line.endswith("\traft:hb_timer") and line.split("\t")[3] == str(leader.node_id)
            and int(line.split("\t")[0]) >= healed_at
        ]
        assert ticks == []
        assert h.drive([b"after"], duration=400_000) == []
        assert_agreement([c.replica_state() for c in h.comps.values()])

    def test_deterministic_given_seed(self):
        def run(seed):
            h = RaftHarness(5, seed=seed, trace=True)
            h.drive([f"p{i}".encode() for i in range(5)], duration=400_000)
            return [h.commits[i] for i in range(5)], h.sim.dump_trace()

        commits_a, trace_a = run(42)
        commits_b, trace_b = run(42)
        assert commits_a == commits_b and trace_a == trace_b
        # different seeds agree on the log but take different paths: the
        # latency draws move the delivery times
        commits_c, trace_c = run(43)
        assert commits_c == commits_a and trace_c != trace_a

    def test_randomized_crash_schedules_never_diverge(self):
        for seed in range(30):
            h = RaftHarness(5, seed=200 + seed)
            rng = seeded_rng(200 + seed, "crashes")
            for victim in rng.sample(range(5), rng.randint(0, 2)):
                h.sim.inject_fault(victim, FaultKind.CRASHED, at_time=rng.randint(0, 150_000))
            h.drive([f"p{i}".encode() for i in range(4)], duration=350_000)
            healthy = [
                c.replica_state()
                for i, c in h.comps.items()
                if h.sim.fault_of(i) is FaultKind.HEALTHY
            ]
            assert_agreement(healthy)


class _TimerHost:
    """Hosts one component without a simulator; keeps the delay of every timer."""

    node_id = 0

    def __init__(self):
        self.delays = []
        self.components = []

    def register(self, prefix, handler):
        pass

    def set_timer(self, delay, payload):
        self.delays.append(delay)
        return len(self.delays)

    def cancel_timer(self, timer):
        pass


class TestRandomDraws:
    """Raft draws its election timeouts exactly as ``Random.randint`` would."""

    BOUNDS = [(0, 0), (7, 7), (0, 1), (5_000, 10_000), (10, 17), (1, 2**40)]

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_raft_election_timeouts_match_randint(self, lo, hi):
        timing = RaftTiming(election_min=lo, election_max=hi, heartbeat_interval=1)
        for seed in range(5):
            host = _TimerHost()
            comp = RaftComponent([0, 1, 2], timing, seeded_rng(seed, "timeout-0")).attach(host)
            for _ in range(50):
                comp._reset_election_timer()
            twin = seeded_rng(seed, "timeout-0")
            assert host.delays == [twin.randint(lo, hi) for _ in range(50)]


class TestPbft:
    def test_four_nodes_commit(self):
        h = PbftHarness(4, seed=301)
        h.drive([b"a", b"b"], duration=200_000)
        for i in range(4):
            assert [p for _, p in h.commits[i]] == [b"a", b"b"]
        assert_agreement([c.replica_state() for c in h.comps.values()])

    def test_silent_backup_quorum_of_three_commits(self):
        h = PbftHarness(4, seed=302)
        h.sim.inject_fault(2, FaultKind.BYZANTINE_SILENT, at_time=0)
        h.drive([b"a"], duration=200_000)
        committed = [i for i in (0, 1, 3) if h.commits[i]]
        assert len(committed) >= 3
        assert_agreement([h.comps[i].replica_state() for i in (0, 1, 3)])

    def test_silent_primary_triggers_view_change(self):
        h = PbftHarness(4, seed=303)
        h.sim.inject_fault(0, FaultKind.BYZANTINE_SILENT, at_time=0)  # primary of view 0
        h.drive([b"a"], duration=400_000)
        live = [i for i in (1, 2, 3)]
        assert any(h.commits[i] for i in live)
        assert_agreement([h.comps[i].replica_state() for i in live])
        assert all(h.comps[i].view > 0 for i in live if h.commits[i])

    def test_equivocating_primary_never_diverges(self):
        for seed in range(20):
            h = PbftHarness(4, seed=400 + seed, equivocator=0)
            h.sim.inject_fault(0, FaultKind.BYZANTINE_EQUIVOCATE, at_time=0)
            h.drive([b"a", b"b", b"c"], duration=300_000)
            assert_agreement([h.comps[i].replica_state() for i in (1, 2, 3)])

    def test_unexecuted_work_matches_a_full_scan_through_a_view_change(self):
        h = PbftHarness(4, seed=304)
        payloads = [b"a", b"b", b"c", b"d"]
        for k, payload in enumerate(payloads):
            # backups first hear of b"b" through the primary's pre-prepare
            for i in (0,) if payload == b"b" else h.comps:
                h.sim.schedule(i, Request(payload), delay=3_000 * k, src="client")
        h.sim.inject_fault(0, FaultKind.CRASHED, at_time=4_000)  # primary of view 0
        steps = accepted_only = 0
        while h.sim.step() is not None and steps < 100_000:
            steps += 1
            for c in h.comps.values():
                above = any(s > c.exec_cursor and slot.view >= 0 for s, slot in c.slots.items())
                assert c._unexecuted_work() == (bool(c.pending) or above), (steps, c.node_id)
                accepted_only += above and not c.pending
        live = (1, 2, 3)
        assert accepted_only > 0  # the accepted-seq half of the test was exercised
        assert all(h.comps[i].view > 0 for i in live)
        assert all([p for _, p in h.commits[i]] == payloads for i in live)
        assert not any(h.comps[i]._unexecuted_work() for i in live)
        assert_agreement([h.comps[i].replica_state() for i in live])

    def test_one_digest_at_two_live_seqs_is_delivered_once(self):
        # the view-1 primary re-proposes x at seq 1 from its certificate and
        # again at seq 2 from its pending requests
        h = PbftHarness(4, seed=300)
        for i in h.comps:
            h.sim.schedule(i, Request(b"x"), delay=0, src="client")
        h.sim.inject_fault(0, FaultKind.CRASHED, at_time=740)
        steps = doubled = 0
        while h.sim.step() is not None and steps < 100_000:
            steps += 1
            for c in h.comps.values():
                taken = [slot.digest for slot in c.slots.values() if slot.view >= 0]
                doubled += len(taken) != len(set(taken))
        assert doubled > 0  # one digest sat at two live seqs
        for i in (1, 2, 3):
            c = h.comps[i]
            assert c.exec_cursor == 2
            assert h.commits[i] == [(1, b"x")]
            assert c.slots == {}

    def test_healthy_cluster_delivers_no_progress_timer(self):
        # every progress timer is cancelled when the window restarts or the work runs out
        h = PbftHarness(4, seed=305)
        assert h.comps[1].timing is not None
        h.drive([b"p%d" % i for i in range(10)], duration=200_000)
        assert all(len(h.commits[i]) == 10 for i in range(4))
        assert h.sim.delivered_counts.get("pbft:timer", 0) == 0
        assert all(c.view == 0 and c._timer is None for c in h.comps.values())

    def test_backups_healed_from_a_crash_time_out_a_crashed_primary(self):
        # their progress timers came up while they were crashed and were dropped
        h = PbftHarness(4, seed=101)
        h.drive([b"a"], duration=50_000)
        h.submit(b"b")
        h.sim.run(until=h.sim.now + 1)
        for i in (1, 2):
            h.sim.inject_fault(i, FaultKind.CRASHED)
        h.sim.run(until=h.sim.now + 100_000)
        for i in (1, 2):
            h.sim.heal(i)
        h.sim.inject_fault(0, FaultKind.CRASHED)  # primary of view 0
        h.submit(b"c")
        h.sim.run(until=h.sim.now + 1_000_000)
        live = (1, 2, 3)
        assert all([p for _, p in h.commits[i]] == [b"a", b"b", b"c"] for i in live)
        assert_agreement([h.comps[i].replica_state() for i in live])

    def test_deterministic_given_seed(self):
        def run(seed):
            h = PbftHarness(4, seed=seed)
            h.drive([b"a", b"b", b"c"], duration=250_000)
            return [h.commits[i] for i in range(4)]

        assert run(7) == run(7)


class _Counter(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    def on_message(self, msg):
        self.seen.append((self.now, msg))
        return 0


class TestSharedLog:
    def _make(self, consumers=2, seed=9, append_cost=0):
        cm = CostModel()
        sim = Simulator(latency=cm.latency_drawer(seeded_rng(seed, "net")), trace=True)
        log = sim.add_node(
            SharedLogService(delivery_delay=cm.net_latency_mean, append_cost=append_cost)
        )
        client = sim.add_node(_Counter("client"))
        subs = [sim.add_node(_Counter(f"c{i}")) for i in range(consumers)]
        for sub in subs:
            log.subscribe(sub.node_id)
        return sim, log, client, subs

    def test_appends_get_dense_sequence_numbers(self):
        sim, log, client, subs = self._make()
        sim.schedule("shared_log", LogAppend(b"x"), delay=0, src="client")
        sim.schedule("shared_log", LogAppend(b"y"), delay=1, src="client")
        sim.run()
        for sub in subs:
            delivered = sorted((m.seq, m.entry) for _, m in sub.seen if isinstance(m, LogDeliver))
            assert delivered == [(1, b"x"), (2, b"y")]
        # appends are not acknowledged: the producer hears nothing back
        assert client.seen == []

    def test_consumers_see_identical_order(self):
        sim, log, client, subs = self._make(consumers=3)
        for i in range(10):
            sim.schedule("shared_log", LogAppend(f"e{i}".encode()), delay=i * 7, src="client")
        sim.run()
        orders = [
            [(m.seq, m.entry) for _, m in sub.seen if isinstance(m, LogDeliver)]
            for sub in subs
        ]
        assert all(sorted(o) == sorted(orders[0]) and len(o) == 10 for o in orders)
        # per-seq entry identical across consumers
        assert len({tuple(sorted(o)) for o in orders}) == 1

    def test_append_throughput_flat_as_consumers_grow(self):
        spans = {}
        for consumers in (3, 9, 19):
            sim, log, client, subs = self._make(consumers=consumers, append_cost=30)
            for i in range(100):
                sim.schedule("shared_log", LogAppend(b"e"), delay=i * 50, src="client")
            sim.run()
            assert log.appended == 100
            # producer-side span: when the last append was sequenced
            spans[consumers] = max(
                t for (t, _, _, dst, kind) in sim.trace
                if dst == "shared_log" and kind == "slog:append"
            )
        assert len(set(spans.values())) == 1


def _storage_run(n, approach, txns=1, crashed=None):
    """Single-write OCC transactions, one at a time, replicated by ``approach``.

    ``crashed`` names a peer that is down from the start.  Returns the
    pipeline, its result and the key each transaction writes.
    """
    cfg = DesignConfig(
        replication_model=ReplicationModel.STORAGE_BASED,
        concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
        replication_approach=approach,
        ledger_enabled=False,
        node_count=n,
        tolerated_failures=(n - 1) // 2,
    )
    spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=50, record_size_bytes=100,
                        txn_count=txns, seed=5)
    pipeline = StorageReplicatedPipeline(cfg, spec, Arrival.closed_loop(1), seed=5)
    if crashed is not None:
        pipeline.sim.inject_fault(crashed, FaultKind.CRASHED, at_time=0)
    keys = [txn.write_set[0][0] for txn in pipeline.txns]
    return pipeline, drive_and_collect(pipeline), keys


class TestPrimaryBackup:
    """The storage pipeline's chain: peer 0 is the head, peer N-1 the tail."""

    def _versions(self, pipeline, key):
        return [p.state.version(key) for p in pipeline.peers]

    def test_chain_of_three_forwards_twice_then_acks(self):
        pipeline, res, (key,) = _storage_run(3, ReplicationApproach.PRIMARY_BACKUP)
        assert res.committed == 1
        assert self._versions(pipeline, key) == [2, 2, 2]  # preloaded at 1, written once
        # replica-to-replica hops only: N-1 = 2, then the tail's ack
        assert res.delivered_counts["pb:op"] == 2
        assert res.delivered_counts["pb:ack"] == 1

    def test_primary_crashed_no_acks_ever(self):
        pipeline, res, (key,) = _storage_run(3, ReplicationApproach.PRIMARY_BACKUP, crashed=0)
        assert res.committed == 0 and res.pending == 1
        assert self._versions(pipeline, key) == [1, 1, 1]
        assert "pb:op" not in res.delivered_counts and "pb:ack" not in res.delivered_counts

    def test_mid_chain_crash_leaves_op_unacknowledged(self):
        pipeline, res, (key,) = _storage_run(4, ReplicationApproach.PRIMARY_BACKUP, crashed=2)
        assert res.committed == 0 and res.pending == 1
        # upstream of the crash applied the write; downstream never saw it
        assert self._versions(pipeline, key) == [2, 2, 1, 1]
        assert "pb:ack" not in res.delivered_counts


class TestMessageComplexity:
    # growth from 5 to 10 nodes is criterion 3 (test_acceptance.py)
    def test_single_node_degenerate_case(self):
        h = RaftHarness(1, seed=79)
        h.drive([b"only"], duration=100_000)
        assert h.commits[0] and messages_per_commit(h.sim, "raft", 1) == 0.0

    def test_chain_is_cheaper_than_consensus_per_op(self):
        # chain replication: N-1 hops per op plus the tail's ack; consensus:
        # at least 2(N-1) for replication plus commit notification
        n = 5
        _, chain, _ = _storage_run(n, ReplicationApproach.PRIMARY_BACKUP, txns=10)
        _, raft, _ = _storage_run(n, ReplicationApproach.CONSENSUS, txns=10)
        assert chain.committed == raft.committed == 10
        assert chain.delivered_counts["pb:op"] / chain.committed == n - 1
        assert chain.messages_per_commit == n
        assert raft.messages_per_commit >= 2 * (n - 1)
