"""Sharding: partitioning, cross-shard atomicity, blocking, reconfiguration."""

from cluster_utils import sharded_run
from txsim.core import DesignConfig, seeded_rng
from txsim.core.types import ShardingMode
from txsim.harness import run_experiment
from txsim.pipeline import Arrival
from txsim.sharding import (
    ShardMap,
    ShardScheme,
    ShardedRun,
    TpcDecision,
)
from txsim.simnet import FaultKind
from txsim.workload import WorkloadSpec, WorkloadKind
from txsim.workload.ycsb import ycsb_key


def spec_2keys(txn_count=400, record_count=400, theta=0.0, seed=3, ops=2):
    return WorkloadSpec(
        kind=WorkloadKind.YCSB_UPDATE,
        record_count=record_count,
        record_size_bytes=100,
        ops_per_txn=ops,
        theta=theta,
        txn_count=txn_count,
        seed=seed,
    )


class TestShardAssignment:
    def test_single_shard_always_zero(self):
        m = ShardMap(1)
        assert all(m.assign(ycsb_key(i)) == 0 for i in range(100))

    def test_hash_assignment_is_stable(self):
        m = ShardMap(4)
        key = ycsb_key(123)
        assert len({m.assign(key) for _ in range(50)}) == 1

    def test_hash_balances_within_two_points(self):
        m = ShardMap(4)
        rng = seeded_rng(1, "balance")
        counts = [0, 0, 0, 0]
        n = 100_000
        for _ in range(n):
            counts[m.assign(rng.getrandbits(128).to_bytes(16, "big"))] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    def test_range_scheme_is_total_and_contiguous(self):
        m = ShardMap(4, ShardScheme.RANGE)
        seen = [m.assign(bytes([b, 0])) for b in range(256)]
        assert set(seen) == {0, 1, 2, 3}
        # non-decreasing over the ordered key space means contiguous intervals
        assert seen == sorted(seen)

    def test_reconfigure_bumps_epoch_and_permutes_seating(self):
        m = ShardMap(8)
        m2 = m.reconfigure(seeded_rng(5, "r"))
        assert m2.epoch == 1
        assert sorted(m2.seating) == sorted(m.seating)
        assert m2.assign(ycsb_key(7)) == m.assign(ycsb_key(7))  # key map stable


class TestTwoPhaseCommit:
    def test_unanimous_yes_commits_atomically(self):
        run = sharded_run(spec_2keys(txn_count=300), shards=4, seed=31)
        res = run.run()
        assert res.committed > 250
        commits = [r for r in res.tpc_records.values() if r.decision is TpcDecision.COMMIT]
        assert commits and all(all(r.votes.values()) for r in commits)
        assert res.atomicity_violations() == []

    def test_conflicting_prepares_vote_no_and_abort_everywhere(self):
        run = sharded_run(spec_2keys(txn_count=500, record_count=30, theta=1.0), shards=4, seed=32)
        res = run.run()
        aborts = [r for r in res.tpc_records.values() if r.decision is TpcDecision.ABORT]
        assert aborts, "hot keys must produce at least one No vote"
        for r in aborts:
            assert not all(r.votes.values())
        assert res.atomicity_violations() == []

    def test_trusted_coordinator_crash_blocks(self):
        run = sharded_run(spec_2keys(txn_count=120), shards=4, seed=33)
        run.sim.inject_fault("coord", FaultKind.CRASHED, at_time=20_000)
        res = run.run()
        assert res.blocked_count >= 1
        blocked = [r for r in res.tpc_records.values() if r.decision is TpcDecision.BLOCKED]
        assert all(r.stuck for r in blocked)  # the stuck shard set is reported
        assert res.atomicity_violations() == []

    def test_same_crash_schedule_bft_coordinator_completes(self):
        run = sharded_run(spec_2keys(txn_count=120), shards=4, bft=True, seed=33)
        run.sim.inject_fault(("coord", 0), FaultKind.CRASHED, at_time=20_000)
        res = run.run()
        assert res.blocked_count == 0
        # every cross-shard record reaches a decision despite the crash
        assert all(r.decision is not None for r in res.tpc_records.values())
        assert res.committed >= 100
        assert res.atomicity_violations() == []

    def test_bft_coordinator_survives_f_crashes_over_100_schedules(self):
        for seed in range(100):
            rng = seeded_rng(seed, "sched")
            run = sharded_run(
                spec_2keys(txn_count=40, seed=seed), shards=4, bft=True, seed=50 + seed
            )
            run.sim.inject_fault(
                ("coord", rng.randrange(4)),
                FaultKind.CRASHED,
                at_time=rng.randrange(5_000, 40_000),
            )
            res = run.run()
            assert res.blocked_count == 0, seed
            assert res.atomicity_violations() == [], seed

    def test_bft_coordination_costs_more_messages(self):
        trusted = sharded_run(spec_2keys(txn_count=300), shards=4, seed=34).run()
        bft = sharded_run(spec_2keys(txn_count=300), shards=4, bft=True, seed=34).run()
        assert bft.messages_per_commit > trusted.messages_per_commit

    def test_bft_messages_total_excludes_timer_firings(self, monkeypatch):
        runs = []
        original = ShardedRun.run

        def keep(runner, *args, **kwargs):
            runs.append(runner)
            # a crashed coordinator primary makes the progress timers fire
            runner.sim.inject_fault(("coord", 0), FaultKind.CRASHED, at_time=20_000)
            return original(runner, *args, **kwargs)

        monkeypatch.setattr(ShardedRun, "run", keep)
        cfg = DesignConfig(sharding_mode=ShardingMode.BFT_COORDINATED_2PC, node_count=12,
                           tolerated_failures=1)
        metrics = run_experiment(cfg, spec_2keys(txn_count=200, seed=11),
                                 Arrival.open_loop(2000), seed=11)
        counts = runs[0].sim.delivered_counts
        assert counts.get("pbft:timer", 0) > 0
        assert metrics.messages_total == sum(
            n for kind, n in counts.items()
            if kind.split(":", 1)[0] in ("2pc", "pbft") and kind != "pbft:timer"
        )


class TestCrossShardRatio:
    def test_single_shard_ratio_is_zero(self):
        res = sharded_run(spec_2keys(txn_count=200), shards=1, seed=35).run()
        assert res.cross_shard_ratio == 0.0

    def test_two_uniform_keys_four_shards_ratio_three_quarters(self):
        res = sharded_run(spec_2keys(txn_count=8_000, record_count=8_000), shards=4, seed=36).run()
        assert abs(res.cross_shard_ratio - 0.75) < 0.02

    def test_ratio_grows_with_ops_per_txn(self):
        ratios = {}
        for ops in (1, 4, 10):
            res = sharded_run(
                spec_2keys(txn_count=600, record_count=2_000, ops=ops),
                shards=4,
                seed=37,
            ).run()
            ratios[ops] = res.cross_shard_ratio
        assert ratios[1] < ratios[4] < ratios[10]


class TestReconfiguration:
    def test_disabled_means_epoch_constant_and_no_pauses(self):
        run = sharded_run(spec_2keys(txn_count=300), shards=4, seed=38)
        res = run.run()
        assert res.shard_map.epoch == 0 and res.pauses == 0

    def test_periodic_reconfiguration_strictly_reduces_throughput(self):
        base = sharded_run(spec_2keys(txn_count=600), shards=4, seed=39).run()
        paused = sharded_run(
            spec_2keys(txn_count=600),
            shards=4,
            reconfiguration_interval=60_000,
            seed=39,
        ).run()
        assert paused.pauses >= 1
        assert paused.throughput_tps < base.throughput_tps

    def test_shorter_interval_lower_throughput(self):
        tputs = []
        for interval in (120_000, 60_000, 30_000):
            res = sharded_run(
                spec_2keys(txn_count=600),
                shards=4,
                reconfiguration_interval=interval,
                seed=40,
            ).run()
            tputs.append(res.throughput_tps)
        assert tputs[0] > tputs[1] > tputs[2]

    def test_drained_submission_latency_counts_from_first_arrival(self, monkeypatch):
        submits = []
        submit = ShardedRun.submit
        monkeypatch.setattr(
            ShardedRun, "submit", lambda runner, txn_id: submits.append(txn_id) or submit(runner, txn_id)
        )
        run = sharded_run(
            spec_2keys(txn_count=300), shards=4, reconfiguration_interval=30_000, seed=41
        )
        res = run.run()
        assert res.pauses >= 1
        assert len(submits) > len(run.txns)  # some submissions were drained and resubmitted
        # open loop at 2000 tps: the i-th transaction arrives at i * 500 us, and
        # its latency counts from there even when it waited out a pause
        for i, txn in enumerate(run.txns):
            assert res.records[txn.id].submit_time == i * 500

    def test_inflight_records_drain_before_pause(self):
        run = sharded_run(
            spec_2keys(txn_count=400),
            shards=4,
            reconfiguration_interval=50_000,
            seed=41,
        )
        res = run.run()
        # nothing may be stuck holding locks across a pause
        assert res.blocked_count == 0
        assert res.atomicity_violations() == []
