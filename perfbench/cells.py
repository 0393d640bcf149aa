"""The benchmark's workloads: fixed design-point cells.

Each workload is one cell of the design space, run through the public
``txsim.harness.run_experiment``.  They are chosen so that host time lands
in different layers; no single cell shows all of them (see README.md):

* ``oe_raft_mpt``: MPT node encoding, block encoding and Raft timers; the
  event loop never re-queues, so a re-queue fix must not move it.
* ``eov_skew_saturated``: the saturated EOV cell on the shared log.  Its
  replicas diverge (blocks overtake each other on the way to the peers), so
  it fails its self-check and is not in BENCHMARK.json.
* ``eov_raft_skew_saturated``: the same workload and saturated regime with
  blocks ordered by Raft; most event-loop pops re-queue an event behind a
  busy worker; no MPT.
* ``occ_pbft_smallbank``: storage-based OCC whose every write goes through
  O(N^2) PBFT messages; no authenticated index and no ledger.
* ``sharded_bft2pc``: the only cell on the sharded runner (its own drive
  loop and store) with BFT-coordinated 2PC.

``expected`` names the traced span groups (see ``tracing.TARGETS``) that must
record calls on the workload; a group with zero calls fails the traced cell,
so a mis-patched layer cannot read as free.  ``shape`` holds the event-count
relations measured when the workloads were chosen; they are printed, not
enforced, because a behaviour fix (for example cancelling stale timers) may
legitimately change them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple

from txsim.core.types import (
    ConcurrencyMode,
    DesignConfig,
    FailureModel,
    IndexKind,
    ReplicationApproach,
    ReplicationModel,
    ShardingMode,
)
from txsim.pipeline import Arrival
from txsim.workload import WorkloadKind, WorkloadSpec

# transactions per cell: long enough for the saturated cells to reach their
# steady backlog, short enough for many repeats inside one run
TXN_COUNT = 400


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: DesignConfig
    spec: WorkloadSpec
    arrival: Arrival
    expected: FrozenSet[str]
    shape: Tuple[Tuple[str, Callable[[dict], bool]], ...] = ()

    def spec_for(self, seed: int, txn_count: int = TXN_COUNT) -> WorkloadSpec:
        return dataclasses.replace(self.spec, seed=seed, txn_count=txn_count)


_FLAT = frozenset({"simnet.run", "pipeline.clients", "workload.generate"})

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="oe_raft_mpt",
            cfg=DesignConfig(
                concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
                replication_approach=ReplicationApproach.CONSENSUS,
                failure_model=FailureModel.CFT,
                node_count=5,
                tolerated_failures=2,
                index=IndexKind.MPT,
                ledger_enabled=True,
            ),
            spec=WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_size_bytes=1000, theta=0.0),
            arrival=Arrival.closed_loop(16),
            expected=_FLAT
            | {
                "consensus.raft",
                "pipeline.oe",
                "authstore.apply_batch",
                "authstore.mpt",
                "authstore.ledger.append",
                "encoding.block",
                "encoding.txn",
            },
            shape=(
                ("requeues <= 1% of delivered",
                 lambda m: m["simnet.requeues"] <= 0.01 * m["simnet.delivered"]),
                ("timer_events > 20% of delivered",
                 lambda m: m["simnet.timer_events"] > 0.2 * m["simnet.delivered"]),
            ),
        ),
        Workload(
            name="eov_skew_saturated",
            cfg=DesignConfig(
                concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE,
                replication_approach=ReplicationApproach.SHARED_LOG,
                failure_model=FailureModel.CFT,
                node_count=5,
                tolerated_failures=2,
                index=IndexKind.PLAIN,
                ledger_enabled=True,
            ),
            spec=WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=100, theta=0.6),
            arrival=Arrival.open_loop(2500),
            expected=_FLAT
            | {
                "consensus.sharedlog",
                "pipeline.eov",
                "authstore.apply_batch",
                "authstore.ledger.append",
                "encoding.block",
                "encoding.txn",
                "encoding.payload",
            },
            shape=(
                ("requeues > delivered", lambda m: m["simnet.requeues"] > m["simnet.delivered"]),
                ("endorsement drops > 0", lambda m: m["pipeline.dropped"] > 0),
            ),
        ),
        Workload(
            name="eov_raft_skew_saturated",
            cfg=DesignConfig(
                concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE,
                replication_approach=ReplicationApproach.CONSENSUS,
                failure_model=FailureModel.CFT,
                node_count=5,
                tolerated_failures=2,
                index=IndexKind.PLAIN,
                ledger_enabled=True,
            ),
            spec=WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=100, theta=0.6),
            arrival=Arrival.open_loop(2500),
            expected=_FLAT
            | {
                "consensus.raft",
                "pipeline.eov",
                "authstore.apply_batch",
                "authstore.ledger.append",
                "encoding.block",
                "encoding.txn",
                "encoding.payload",
            },
            shape=(
                ("requeues > delivered", lambda m: m["simnet.requeues"] > m["simnet.delivered"]),
                ("endorsement drops > 0", lambda m: m["pipeline.dropped"] > 0),
            ),
        ),
        Workload(
            name="occ_pbft_smallbank",
            cfg=DesignConfig(
                replication_model=ReplicationModel.STORAGE_BASED,
                concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
                replication_approach=ReplicationApproach.CONSENSUS,
                failure_model=FailureModel.BFT,
                node_count=4,
                tolerated_failures=1,
                index=IndexKind.PLAIN,
                ledger_enabled=False,
            ),
            spec=WorkloadSpec(kind=WorkloadKind.SMALLBANK),
            arrival=Arrival.closed_loop(16),
            expected=_FLAT
            | {"consensus.pbft", "pipeline.storage", "authstore.apply_batch", "encoding.payload"},
            shape=(
                ("requeues > delivered", lambda m: m["simnet.requeues"] > m["simnet.delivered"]),
                ("aborts > 0", lambda m: m["pipeline.aborted"] > 0),
            ),
        ),
        Workload(
            name="sharded_bft2pc",
            cfg=DesignConfig(
                sharding_mode=ShardingMode.BFT_COORDINATED_2PC,
                node_count=12,
                tolerated_failures=1,
            ),
            spec=WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, ops_per_txn=2),
            arrival=Arrival.open_loop(2000),
            expected=frozenset({"simnet.run", "sharding", "consensus.pbft", "workload.generate"}),
            shape=(
                ("requeues > delivered", lambda m: m["simnet.requeues"] > m["simnet.delivered"]),
                ("2PC messages > 0", lambda m: m["sharding.tpc_msgs"] > 0),
            ),
        ),
    )
}
