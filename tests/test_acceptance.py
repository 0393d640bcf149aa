"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to see
them stream); a failure raises with the measured numbers.  Absolute
throughput values are never asserted, only properties and orderings.
"""

import dataclasses
import random
import statistics
import time

from cluster_utils import (
    PbftHarness,
    RaftHarness,
    assert_agreement,
    messages_per_commit,
    observer_kv,
    run_flat,
    sharded_run,
)
from txsim.authstore import MerkleBucketTree, MerklePatriciaTrie
from txsim.authstore import mbt as mbt_mod
from txsim.authstore import mpt as mpt_mod
from txsim.authstore.ledger import GENESIS_PARENT, LedgerStore
from txsim.core import (
    Block,
    ConcurrencyMode,
    FailureModel,
    IndexKind,
    Transaction,
    TxnOutcome,
    seeded_rng,
)
from txsim.consensus import quorum_size
from txsim.harness import (
    check_forecast_consistency,
    corner_configs,
    emit_csv,
    run_experiment,
    run_row,
)
from txsim.pipeline import Arrival, drive_and_collect, run_pipeline
from txsim.pipeline.storage import StorageReplicatedPipeline
from txsim.simnet import FaultKind
from txsim.workload import WorkloadSpec, WorkloadKind, initial_state

from test_pipeline import (
    db_config,
    eov_config,
    oe_config,
    serializable_order_exists,
    update_spec,
)


def report(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: PASS - {summary}", flush=True)


class TestCriterion1ConsensusSafety:
    def test_thousand_seeded_schedules_no_divergence(self):
        t0 = time.time()
        payloads = [b"entry-0", b"entry-1", b"entry-2"]

        for seed in range(500):  # CFT: N=5, up to 2 crashes
            h = RaftHarness(5, seed=10_000 + seed)
            rng = seeded_rng(seed, "cft-schedule")
            for victim in rng.sample(range(5), rng.randint(0, 2)):
                h.sim.inject_fault(victim, FaultKind.CRASHED, at_time=rng.randint(0, 150_000))
            h.drive(payloads, duration=300_000)
            healthy = [
                c.replica_state()
                for i, c in h.comps.items()
                if h.sim.fault_of(i) is FaultKind.HEALTHY
            ]
            assert_agreement(healthy)

        for seed in range(500):  # BFT: N=4, one equivocator or one silent node
            rng = seeded_rng(seed, "bft-schedule")
            if rng.random() < 0.5:
                h = PbftHarness(4, seed=20_000 + seed, equivocator=0)
                h.sim.inject_fault(0, FaultKind.BYZANTINE_EQUIVOCATE, at_time=0)
                byz = 0
            else:
                byz = rng.randrange(4)
                h = PbftHarness(4, seed=20_000 + seed)
                h.sim.inject_fault(byz, FaultKind.BYZANTINE_SILENT, at_time=rng.randint(0, 30_000))
            h.drive(payloads, duration=300_000)
            assert_agreement(
                [h.comps[i].replica_state() for i in range(4) if i != byz]
            )

        elapsed = time.time() - t0
        assert elapsed < 120, f"schedule sweep took {elapsed:.0f}s, budget is 2 min"
        report(1, f"1000 seeded schedules, zero divergent commits ({elapsed:.0f}s)")


class TestCriterion2QuorumArithmetic:
    def test_quorum_sizes_and_intersection(self):
        for n in range(1, 32):
            q = quorum_size(n, FailureModel.CFT)
            assert q == n // 2 + 1
            assert 2 * q - n >= 1  # any two quorums intersect
        for f in range(0, 11):
            n = 3 * f + 1
            if n > 31:
                break
            q = quorum_size(n, FailureModel.BFT)
            assert q == 2 * f + 1
            assert 2 * q - n >= f + 1  # ... in at least one correct replica
        report(2, "2f+1 / 3f+1 quorums and intersections hold for all N <= 31")


class TestCriterion3MessageScaling:
    def _raft(self, n):
        h = RaftHarness(n, seed=77)
        h.drive([f"p{i}".encode() for i in range(20)], duration=600_000)
        committed = max(len(h.commits[i]) for i in range(n))
        assert committed >= 15
        return messages_per_commit(h.sim, "raft", committed)

    def _pbft(self, n):
        h = PbftHarness(n, seed=78)
        h.drive([f"p{i}".encode() for i in range(20)], duration=600_000, gap=6_000)
        committed = max(len(h.commits[i]) for i in range(n))
        assert committed >= 15
        return messages_per_commit(h.sim, "pbft", committed)

    def test_linear_vs_quadratic_growth(self):
        cft_ratio = self._raft(10) / self._raft(5)
        bft_ratio = self._pbft(10) / self._pbft(5)
        assert cft_ratio <= 2.5, f"CFT grew {cft_ratio:.2f}x"
        assert bft_ratio >= 3.0, f"BFT grew only {bft_ratio:.2f}x"
        report(3, f"5->10 nodes: CFT messages x{cft_ratio:.2f} (<=2.5), BFT x{bft_ratio:.2f} (>=3)")


class TestCriterion4AuthenticatedStorage:
    def test_root_determinism_proofs_depth_and_overhead(self):
        rng = random.Random(404)
        # 10^4 insertion-order permutations across both structures
        for _ in range(2500):
            n = rng.randint(1, 10)
            items = {
                rng.getrandbits(64).to_bytes(8, "big"): rng.getrandbits(32).to_bytes(4, "big")
                for _ in range(n)
            }
            mpt_roots, mbt_roots = set(), set()
            for _ in range(2):
                order = list(items.items())
                rng.shuffle(order)
                trie = MerklePatriciaTrie()
                trie.put_batch(order)
                mpt_roots.add(trie.root)
                tree = MerkleBucketTree()
                tree.put_batch(order)
                mbt_roots.add(tree.root)
            assert len(mpt_roots) == 1 and len(mbt_roots) == 1

        # proof soundness: honest accepts, 10^4 single mutations all rejected
        trie = MerklePatriciaTrie()
        tree = MerkleBucketTree()
        items = {}
        for i in range(200):
            key = rng.getrandbits(64).to_bytes(8, "big")
            value = rng.getrandbits(64).to_bytes(8, "big")
            trie.put(key, value)
            tree.put(key, value)
            items[key] = value
        keys = list(items)
        false_accepts = 0
        for trial in range(10_000):
            key = keys[rng.randrange(len(keys))]
            value = items[key]
            use_mpt = trial % 2 == 0
            if use_mpt:
                proof, root, verify = trie.prove(key), trie.root, mpt_mod.verify
            else:
                proof, root, verify = tree.prove(key), tree.root, mbt_mod.verify
            assert verify(root, key, value, proof)
            target = rng.randrange(3)
            if target == 0:  # flip a value byte
                i = rng.randrange(len(value))
                bad = value[:i] + bytes([value[i] ^ (1 << rng.randrange(8))]) + value[i + 1 :]
                ok = verify(root, key, bad, proof)
            elif target == 1:  # flip a root byte
                i = rng.randrange(32)
                bad_root = root[:i] + bytes([root[i] ^ (1 << rng.randrange(8))]) + root[i + 1 :]
                ok = verify(bad_root, key, value, proof)
            else:  # flip a byte inside the proof
                if use_mpt:
                    j = rng.randrange(len(proof.nodes))
                    node = bytearray(proof.nodes[j])
                    node[rng.randrange(len(node))] ^= 1 << rng.randrange(8)
                    bad_proof = mpt_mod.MptProof(
                        proof.nodes[:j] + (bytes(node),) + proof.nodes[j + 1 :]
                    )
                else:
                    level = rng.randrange(len(proof.path))
                    pos, sibs = proof.path[level]
                    if not sibs:
                        continue
                    k = rng.randrange(len(sibs))
                    sib = bytearray(sibs[k])
                    sib[rng.randrange(32)] ^= 1 << rng.randrange(8)
                    new_sibs = sibs[:k] + (bytes(sib),) + sibs[k + 1 :]
                    bad_proof = dataclasses.replace(
                        proof, path=proof.path[:level] + ((pos, new_sibs),) + proof.path[level + 1 :]
                    )
                ok = verify(root, key, value, bad_proof)
            if ok:
                false_accepts += 1
        assert false_accepts == 0

        # MBT depth at defaults and overhead ordering at 10K records
        assert MerkleBucketTree().depth == 5
        big_rng = random.Random(405)
        writes = [
            (big_rng.getrandbits(128).to_bytes(16, "big"), big_rng.getrandbits(64).to_bytes(8, "big"))
            for _ in range(10_000)
        ]
        big_trie = MerklePatriciaTrie()
        big_tree = MerkleBucketTree()
        big_trie.put_batch(writes)
        big_tree.put_batch(writes)
        raw = sum(len(k) + len(v) for k, v in writes)
        mpt_overhead = (big_trie.reachable_bytes() - raw) / len(writes)
        mbt_overhead = big_tree.index_bytes() / len(writes)
        assert mbt_overhead < mpt_overhead
        report(
            4,
            "10^4 permutation roots stable, 0/10^4 tamper accepts, MBT depth 5, "
            f"MBT {mbt_overhead:.1f} B/rec < MPT {mpt_overhead:.1f} B/rec at 10K records",
        )


class TestCriterion5LedgerTamperEvidence:
    def test_single_byte_mutations_located_and_storage_above_state_only(self):
        rng = random.Random(55)
        ledger = LedgerStore()
        parent = GENESIS_PARENT
        originals = []
        for h in range(100):
            txns = tuple(
                Transaction(
                    id=h * 10 + i,
                    write_set=((b"k%03d" % i, rng.getrandbits(64).to_bytes(8, "big")),),
                )
                for i in range(3)
            )
            block = Block(height=h, parent_digest=parent, txn_list=txns, proposer=h % 5)
            parent, _ = ledger.append(block)
            originals.append(block)
        assert ledger.verify_chain() is None
        for h in range(100):
            block = originals[h]
            txn = block.txn_list[1]
            key, value = txn.write_set[0]
            i = rng.randrange(len(value))
            bad_value = value[:i] + bytes([value[i] ^ (1 << rng.randrange(8))]) + value[i + 1 :]
            bad_txn = dataclasses.replace(txn, write_set=((key, bad_value),))
            ledger.blocks[h] = dataclasses.replace(
                block, txn_list=(block.txn_list[0], bad_txn, block.txn_list[2])
            )
            located = ledger.verify_chain()
            assert located is not None and located in (h, h + 1), f"height {h}"
            ledger.blocks[h] = block
        assert ledger.verify_chain() is None

        spec = update_spec(txn_count=200)
        with_ledger = run_pipeline(oe_config(), spec, Arrival.open_loop(2000), seed=5)
        without = run_pipeline(db_config(), spec, Arrival.closed_loop(16), seed=5)
        assert with_ledger.storage["block_bytes"] > 0
        total_with = with_ledger.storage["state_bytes"] + with_ledger.storage["block_bytes"]
        assert total_with > without.storage["state_bytes"] + without.storage["block_bytes"]
        report(5, "100x1 byte mutations located; ledger storage strictly above state-only")


class TestCriterion6OccSerializability:
    def test_five_hundred_randomized_instances(self):
        checked = 0
        for seed in range(500):
            rng = seeded_rng(seed, "occ-instance")
            spec = WorkloadSpec(
                kind=WorkloadKind.YCSB_UPDATE,
                record_count=rng.randint(2, 6),
                record_size_bytes=50,
                ops_per_txn=rng.randint(1, 3),
                theta=rng.choice([0.0, 0.5, 1.0]),
                txn_count=rng.randint(2, 8),
                seed=seed,
            )
            res, pipeline = run_flat(
                db_config(), spec, Arrival.closed_loop(spec.txn_count), seed=seed
            )
            committed = [
                r for r in res.records.values() if r.outcome is TxnOutcome.COMMITTED
            ]
            initial = {key: 1 for key, _ in initial_state(spec)}
            assert serializable_order_exists(committed, initial, observer_kv(pipeline)), seed
            checked += len(committed)
        report(6, f"500 randomized OCC instances serializable ({checked} committed txns checked)")


class TestCriterion7ConcurrencyTrends:
    def test_eov_theta_monotonicity_and_positivity(self):
        # each grid point aggregates 30 seeded runs, mirroring how the
        # underlying measurements average repeated executions; the skew signal
        # at the flat low end is otherwise inside single-run noise
        rates = []
        for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            aborted = settled = 0
            for wseed in range(30):
                res = run_pipeline(
                    eov_config(),
                    update_spec(
                        theta=theta,
                        record_count=100,
                        ops_per_txn=4,
                        txn_count=1000,
                        seed=700 + wseed,
                    ),
                    Arrival.closed_loop(8),
                    seed=42,
                )
                aborted += res.aborted
                settled += res.aborted + res.committed
            rates.append(aborted / settled)
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:])), rates
        assert rates[-1] > 0
        report(7, f"EOV abort rate monotone over theta: {['%.3f' % r for r in rates]}")

    def test_serial_pipelines_have_zero_conflict_aborts(self):
        for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            spec = update_spec(theta=theta, txn_count=200, seed=8)
            oe = run_pipeline(oe_config(), spec, Arrival.open_loop(2500), seed=42)
            assert oe.abort_counts() == {}, f"order-execute aborted at theta={theta}"

    def test_eov_ops_sweep_and_locking_collapse(self):
        ops_rates = {}
        for ops in (1, 10):
            spec = update_spec(
                ops_per_txn=ops, constant_total_bytes=1000, txn_count=600, seed=9
            )
            res = run_pipeline(eov_config(), spec, Arrival.open_loop(1200), seed=42)
            ops_rates[ops] = res.abort_rate
        assert ops_rates[10] > ops_rates[1]

        cfg = db_config(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING)
        lock_res = {}
        for theta in (0.0, 1.0):
            lock_res[theta] = drive_and_collect(
                StorageReplicatedPipeline(
                    cfg,
                    update_spec(theta=theta, record_count=50, txn_count=500, seed=10),
                    Arrival.closed_loop(24),
                    seed=42,
                    lock_timeout=12_000,
                )
            )
        drop = 1 - lock_res[1.0].throughput_tps / lock_res[0.0].throughput_tps
        abort_ratio = lock_res[1.0].abort_rate
        assert lock_res[1.0].abort_counts().get("aborted_blocked", 0) > 0
        assert drop > abort_ratio
        report(
            7,
            f"EOV aborts {ops_rates[1]:.2f}->{ops_rates[10]:.2f} over ops 1->10; "
            f"locking drop {drop:.0%} > abort ratio {abort_ratio:.0%}",
        )


class TestCriterion8RecordSizeSensitivity:
    def test_blockchain_degrades_database_does_not(self):
        oe_commit = {}
        db_lat = {}
        for size in (10, 5000):
            spec = update_spec(record_count=64, record_size_bytes=size, txn_count=200, seed=9)
            oe = run_pipeline(
                oe_config(index=IndexKind.MPT), spec, Arrival.closed_loop(40), seed=42
            )
            assert oe.committed == 200
            oe_commit[size] = oe.phase_means().validate_commit
            db = run_pipeline(db_config(), spec, Arrival.closed_loop(40), seed=42)
            db_lat[size] = statistics.mean(db.latencies())
        oe_ratio = oe_commit[5000] / oe_commit[10]
        db_ratio = db_lat[5000] / db_lat[10]
        assert oe_ratio >= 10, f"order-execute commit grew only {oe_ratio:.1f}x"
        assert db_ratio < 3, f"database degraded {db_ratio:.1f}x"
        report(8, f"10B->5000B records: order-execute+MPT commit x{oe_ratio:.1f} (>=10), database x{db_ratio:.2f} (<3)")


class TestCriterion9Sharding:
    def _spec(self, txn_count=400, seed=3):
        return WorkloadSpec(
            kind=WorkloadKind.YCSB_UPDATE,
            record_count=400,
            record_size_bytes=100,
            ops_per_txn=2,
            txn_count=txn_count,
            seed=seed,
        )

    def test_atomicity_blocking_and_reconfiguration(self):
        # atomicity in completed runs
        for bft in (False, True):
            res = sharded_run(self._spec(), shards=4, bft=bft, seed=31).run()
            assert res.atomicity_violations() == []
            assert res.blocked_count == 0

        # the crafted crash schedule blocks under a trusted coordinator
        run = sharded_run(self._spec(txn_count=120), shards=4, seed=33)
        run.sim.inject_fault("coord", FaultKind.CRASHED, at_time=20_000)
        trusted = run.run()
        assert trusted.blocked_count >= 1
        assert trusted.atomicity_violations() == []

        # the identical schedule under a BFT coordinator completes
        run = sharded_run(self._spec(txn_count=120), shards=4, bft=True, seed=33)
        run.sim.inject_fault(("coord", 0), FaultKind.CRASHED, at_time=20_000)
        bft = run.run()
        assert bft.blocked_count == 0
        assert all(r.decision is not None for r in bft.tpc_records.values())
        assert bft.atomicity_violations() == []

        # reconfiguration strictly reduces throughput, monotonically in frequency
        tputs = []
        for interval in (0, 120_000, 60_000, 30_000):
            res = sharded_run(
                self._spec(txn_count=600),
                shards=4,
                reconfiguration_interval=interval,
                seed=39,
            ).run()
            tputs.append(res.throughput_tps)
        assert tputs[0] > tputs[1] > tputs[2] > tputs[3], tputs
        report(
            9,
            f"atomicity clean; trusted crash blocked {trusted.blocked_count}, BFT 0; "
            f"reconfig tput {[int(t) for t in tputs]} strictly decreasing",
        )


class TestCriterion10ForecastConsistency:
    def test_four_corner_ordering(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.YCSB_UPDATE,
            record_count=1000,
            record_size_bytes=1000,
            theta=0.0,
            ops_per_txn=1,
            txn_count=400,
            seed=5,
        )
        results = []
        for cfg in corner_configs():
            metrics = run_experiment(cfg, spec, Arrival.closed_loop(32), seed=42)
            results.append((cfg, metrics))
        report_out = check_forecast_consistency(results, theta=0.0)
        assert report_out.ok, report_out.violations
        peaks = [m.throughput_tps for _, m in results]
        report(
            10,
            "four-corner peaks strictly ordered: "
            + " < ".join(f"{p:.0f}" for p in peaks)
            + " tps",
        )


class TestCriterion11Determinism:
    def test_byte_identical_csv_and_suite_budget(self, tmp_path):
        cfg = eov_config()
        spec = update_spec(theta=0.6, txn_count=300, seed=11)
        arrival = Arrival.open_loop(2500)
        contents = []
        for name in ("first.csv", "second.csv"):
            from txsim.harness.metrics import metrics_from_run

            res = run_pipeline(cfg, spec, arrival, seed=42)
            metrics = metrics_from_run(res)
            path = tmp_path / name
            emit_csv([run_row(cfg, spec, arrival, 42, metrics)], path)
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]
        report(11, "repeated run produced byte-identical CSV output")
