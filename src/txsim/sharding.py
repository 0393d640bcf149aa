"""Sharding: key partitioning, cross-shard 2PC, periodic reconfiguration.

Each shard is modeled as one serving node whose internal replication shows up
as a fixed vote-durability delay (a shard persists its vote through its own
consensus round before answering).  Cross-shard transactions run two-phase
commit under one of two coordinators:

* trusted: a single coordinator node; if it crashes between collecting votes
  and broadcasting the decision, participants hold their locks forever and
  the record ends Blocked;
* BFT-coordinated: the coordinator is a replicated state machine in a
  dedicated four-replica BFT shard; the decision commits through consensus,
  so it survives up to f coordinator-replica crashes at the price of the
  extra protocol traffic.

Reconfiguration drains in-flight 2PC, then pauses every shard together for
the configured time; submissions that arrive meanwhile wait and are
submitted when the pause ends.  The key-to-shard map does not change, so the
pause is the whole cost of a reconfiguration.

``ShardedRun`` is a pipeline (``PipelineBase``), built from the
``DesignConfig`` as the flat ones are.  It shares their simulator, records,
client node, open- or closed-loop arrivals and settle count, and its ``run``
runs the one drive loop (``PipelineBase.drive``).  It returns a
``ShardedResult``, which is a ``RunResult`` carrying the trace when one is
recorded, so ``harness.metrics_from_run`` measures it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .consensus import PbftComponent, PbftTiming, ProtocolHost, bft_f_for
from .consensus.pbft import Request
from .core.encoding import digest
from .core.types import ShardingMode, TxnOutcome
from .pipeline.base import Arrival, PipelineBase
from .pipeline.run import RunResult, run_span
from .simnet import FaultKind

NODES_PER_SHARD = 3  # a sharded cell seats node_count // 3 shards


@dataclass(frozen=True)
class ShardMap:
    """Hash partitioning of the key space over ``shard_count`` shards."""

    shard_count: int

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")

    def assign(self, key: bytes) -> int:
        return int.from_bytes(digest(key), "big") % self.shard_count


class TpcDecision(enum.Enum):
    COMMIT = "commit"
    ABORT = "abort"
    BLOCKED = "blocked"


@dataclass
class TwoPcRecord:
    txn_id: int
    participants: Tuple[int, ...]
    decision: Optional[TpcDecision] = None
    stuck: Tuple[int, ...] = ()  # shards still holding prepared locks at run end


# -- messages ---------------------------------------------------------------------


@dataclass
class ShardExec:
    txn_id: int
    writes: tuple
    kind: str = field(default="sh:exec", init=False)


@dataclass
class ShardExecDone:
    txn_id: int
    kind: str = field(default="cl:shard_done", init=False)


@dataclass
class TpcPrepare:
    txn_id: int
    writes: tuple
    kind: str = field(default="2pc:prepare", init=False)


@dataclass
class TpcVote:
    txn_id: int
    shard: int
    yes: bool
    kind: str = field(default="2pc:vote", init=False)


@dataclass
class TpcDecide:
    txn_id: int
    commit: bool
    kind: str = field(default="2pc:decide", init=False)


@dataclass
class VoteReady:
    txn_id: int
    yes: bool
    kind: str = field(default="sh:vote_ready", init=False)


@dataclass
class PauseOver:
    kind: str = field(default="cl:pause_over", init=False)


@dataclass
class ReconfigTimer:
    kind: str = field(default="cl:reconfig", init=False)


class ShardNode(ProtocolHost):
    """One shard's serving face: serial execution, prepare locks, durable votes."""

    def __init__(self, shard_id: int, runner):
        super().__init__(("shard", shard_id))
        self.shard_id = shard_id
        self.runner = runner
        self.store: Dict[bytes, bytes] = {}
        self.locks: Dict[bytes, int] = {}
        self.prepared: Dict[int, tuple] = {}  # txn_id -> writes awaiting decision
        self.applied_txns: set = set()  # cross-shard txns committed here
        self.register("sh", self.handle_shard)
        self.register("2pc", self.handle_tpc)

    def exec_cost(self, writes) -> int:
        return self.runner.cm.exec_time_per_op * max(1, len(writes))

    def handle_shard(self, msg) -> int:
        if isinstance(msg, ShardExec):
            cost = self.exec_cost(msg.writes)
            self.runner.records[msg.txn_id].executed_time = self.now + cost
            for key, value in msg.writes:
                self.store[key] = value
            self.send(self.runner.clients.node_id, ShardExecDone(msg.txn_id))
            return cost
        if isinstance(msg, VoteReady):
            # the last participant's durable vote stamps the transaction executed
            self.runner.records[msg.txn_id].executed_time = self.now
            for dst in self.runner.coordinator_ids:
                self.send(dst, TpcVote(msg.txn_id, self.shard_id, msg.yes))
            return 0
        raise ValueError(f"shard cannot handle {msg!r}")

    def handle_tpc(self, msg) -> int:
        if isinstance(msg, TpcPrepare):
            conflict = any(self.locks.get(k) not in (None, msg.txn_id) for k, _ in msg.writes)
            yes = not conflict
            if yes:
                for key, _ in msg.writes:
                    self.locks[key] = msg.txn_id
                self.prepared[msg.txn_id] = msg.writes
            # the vote becomes durable through this shard's own consensus
            # round before it is sent
            self.set_timer(self.runner.vote_durability_delay, VoteReady(msg.txn_id, yes))
            return self.exec_cost(msg.writes)
        if isinstance(msg, TpcDecide):
            writes = self.prepared.pop(msg.txn_id, None)
            if writes is None:
                return 0  # duplicate decision (BFT coordinators all broadcast)
            if msg.commit:
                self.applied_txns.add(msg.txn_id)
                for key, value in writes:
                    self.store[key] = value
            for key, _ in writes:
                if self.locks.get(key) == msg.txn_id:
                    del self.locks[key]
            return self.exec_cost(writes) if msg.commit else 0
        raise ValueError(f"shard cannot handle {msg!r}")


class Coordinator(ProtocolHost):
    """A 2PC coordinator: tallies the shards' votes and announces the decision.

    Every shard votes once per prepare, to every coordinator node, so a
    node's tally of a transaction completes exactly once, and its vote table
    goes then.
    """

    def __init__(self, node_id, runner):
        super().__init__(node_id)
        self.runner = runner
        self.votes: Dict[int, Dict[int, bool]] = {}  # txn_id -> shard -> yes
        self.register("2pc", self.handle)

    def tally(self, msg: TpcVote, record: TwoPcRecord) -> Optional[bool]:
        """Count one vote; the decision (commit or not) once every participant has voted."""
        table = self.votes.setdefault(msg.txn_id, {})
        table[msg.shard] = msg.yes
        if len(table) < len(record.participants):
            return None
        del self.votes[msg.txn_id]
        return all(table.values())

    def announce(self, record: TwoPcRecord, commit: bool) -> None:
        """Record the decision and its order time, if no replica has yet, and send it on."""
        if record.decision is None:
            record.decision = TpcDecision.COMMIT if commit else TpcDecision.ABORT
            self.runner.records[record.txn_id].order_time = self.now
        for shard in record.participants:
            self.send(self.runner.shard_node_id(shard), TpcDecide(record.txn_id, commit))
        self.send(self.runner.clients.node_id, ShardExecDone(record.txn_id))


class TrustedCoordinator(Coordinator):
    def __init__(self, runner):
        super().__init__("coord", runner)

    def handle(self, msg: TpcVote) -> int:
        record = self.runner.tpc_records[msg.txn_id]
        commit = self.tally(msg, record)
        if commit is not None:
            self.announce(record, commit)
        return 0


class BftCoordinatorReplica(Coordinator):
    """2PC coordinator as a replicated state machine in a BFT shard."""

    def __init__(self, index: int, runner):
        super().__init__(("coord", index), runner)
        self.pbft: Optional[PbftComponent] = None

    def handle(self, msg: TpcVote) -> int:
        commit = self.tally(msg, self.runner.tpc_records[msg.txn_id])
        if commit is not None:
            payload = b"decide:%d:%d" % (msg.txn_id, 1 if commit else 0)
            # the request path arms progress timers, so a crashed primary
            # is replaced by view change and the decision still commits
            self.pbft.handle(Request(payload))
        return 0

    def on_decided(self, seq: int, payload: bytes) -> None:
        _, txn_s, commit_s = payload.split(b":")
        self.announce(self.runner.tpc_records[int(txn_s)], bool(int(commit_s)))


class ShardedRun(PipelineBase):
    """Drives one workload stream through a sharded deployment.

    Built from the ``DesignConfig`` as every pipeline is: ``node_count //
    NODES_PER_SHARD`` shards, the coordinator that ``sharding_mode`` names,
    and the config's reconfiguration interval and cost model.
    """

    COORD_REPLICAS = 4

    def __init__(self, cfg, spec, arrival: Arrival, seed: int, trace: bool = False):
        super().__init__(cfg, spec, arrival, seed, trace)
        bft = cfg.sharding_mode is ShardingMode.BFT_COORDINATED_2PC
        # Byzantine faults are in scope for the BFT coordinator shard only
        self.sim.allow_byzantine = bft
        self.shard_map = ShardMap(max(1, cfg.node_count // NODES_PER_SHARD))
        self.vote_durability_delay = 2 * self.cm.net_latency_mean
        self.tpc_records: Dict[int, TwoPcRecord] = {}
        self.draining = False
        self.paused_until = 0  # every shard pauses together
        self.drained_submissions: List[int] = []
        self.pauses = 0

        self.shards = [
            self.sim.add_node(ShardNode(s, self)) for s in range(self.shard_map.shard_count)
        ]
        if bft:
            coordinators = [
                self.sim.add_node(BftCoordinatorReplica(i, self))
                for i in range(self.COORD_REPLICAS)
            ]
            self.coordinator_ids = [c.node_id for c in coordinators]
            timing = PbftTiming.from_mean_latency(self.cm.net_latency_mean)
            for coord in coordinators:
                coord.pbft = PbftComponent(
                    self.coordinator_ids,
                    timing,
                    on_commit=coord.on_decided,
                    msg_cost=self.cm.sig_verify_time,
                ).attach(coord)
        else:
            self.coordinator_ids = [self.sim.add_node(TrustedCoordinator(self)).node_id]
        self.sim.add_node(self.clients)
        self.schedule_arrivals()
        if cfg.reconfiguration_interval > 0:
            self.sim.schedule(self.clients.node_id, ReconfigTimer(), cfg.reconfiguration_interval)

    # -- topology ------------------------------------------------------------

    def shard_node_id(self, shard: int):
        return ("shard", shard)

    def shards_of(self, txn) -> Dict[int, tuple]:
        groups: Dict[int, list] = {}
        for key, value in txn.write_set:
            groups.setdefault(self.shard_map.assign(key), []).append((key, value))
        return {s: tuple(w) for s, w in groups.items()}

    # -- client behavior -----------------------------------------------------------

    def begin_txn(self, txn_id: int) -> None:
        self.submit(txn_id)

    def submit(self, txn_id: int) -> None:
        if self.draining or self.paused_until > self.sim.now:
            self.drained_submissions.append(txn_id)
            return
        record = self.records[txn_id]
        txn = record.txn
        if txn.app_abort or not txn.write_set:
            self.settle(
                record, TxnOutcome.ABORTED_APPLICATION if txn.app_abort else TxnOutcome.COMMITTED
            )
            return
        groups = self.shards_of(txn)
        if len(groups) == 1:
            shard, writes = next(iter(groups.items()))
            self.clients.send(self.shard_node_id(shard), ShardExec(txn_id, writes))
            return
        self.tpc_records[txn_id] = TwoPcRecord(txn_id, participants=tuple(sorted(groups)))
        for shard, writes in groups.items():
            self.clients.send(self.shard_node_id(shard), TpcPrepare(txn_id, writes))

    def client_message(self, msg) -> None:
        if isinstance(msg, ShardExecDone):
            self.finish(msg.txn_id)
        elif isinstance(msg, ReconfigTimer):
            self.draining = True
            self._try_pause()
        elif isinstance(msg, PauseOver):
            self.resume_drained()

    def finish(self, txn_id: int) -> None:
        tpc = self.tpc_records.get(txn_id)
        aborted = tpc is not None and tpc.decision is TpcDecision.ABORT
        outcome = TxnOutcome.ABORTED_WW if aborted else TxnOutcome.COMMITTED
        self.settle(self.records[txn_id], outcome)

    # -- reconfiguration ----------------------------------------------------------

    def _coordinators_can_decide(self) -> bool:
        """Whether the coordinators can still decide a record.

        The trusted coordinator cannot once it has crashed, and the BFT
        coordinator shard cannot once more than f of its replicas have.
        """
        crashed = sum(1 for c in self.coordinator_ids if self.sim.fault_of(c) is FaultKind.CRASHED)
        return crashed <= bft_f_for(len(self.coordinator_ids))

    def _try_pause(self) -> None:
        """Pause every shard, once no decidable record is in flight."""
        if self._coordinators_can_decide() and any(
            r.decision is None for r in self.tpc_records.values()
        ):
            # in-flight cross-shard records drain before the pause; records
            # no live coordinator can decide would hold it off for good
            self.sim.schedule(self.clients.node_id, ReconfigTimer(), 5_000)
            return
        pause = self.cm.reconfig_pause
        self.paused_until = self.sim.now + pause
        for shard in self.shards:
            shard.busy_until = max(shard.busy_until, self.paused_until)
        self.pauses += 1
        self.draining = False
        self.sim.schedule(self.clients.node_id, PauseOver(), pause)
        if self._can_progress():
            self.sim.schedule(
                self.clients.node_id, ReconfigTimer(), pause + self.cfg.reconfiguration_interval
            )

    def _can_progress(self) -> bool:
        """Whether some pending transaction can still settle.

        While the coordinators can decide, every pending one can.  Once they
        cannot, one with a 2PC record does not count: an undecided record
        stays undecided, and a decided one's ``ShardExecDone`` may have died
        with its coordinator.  One without a record counts once submitted or,
        in an open loop, while still to arrive; a closed-loop one not yet
        submitted waits for a client that a blocked transaction may hold for
        good.
        """
        if self._coordinators_can_decide():
            return not self.all_done()
        open_loop = self.arrival.mode == "open_loop"
        return any(
            record.outcome is TxnOutcome.PENDING
            and txn_id not in self.tpc_records
            and (open_loop or record.submit_time is not None)
            for txn_id, record in self.records.items()
        )

    def resume_drained(self) -> None:
        pending, self.drained_submissions = self.drained_submissions, []
        for txn_id in pending:
            self.submit(txn_id)

    # -- run and report -------------------------------------------------------------

    def all_settled(self) -> bool:
        return self.all_done()

    def run(self) -> "ShardedResult":
        """Drive to completion or stall and gather the result."""
        stalled = self.drive(stall_window=5_000_000)
        for txn_id, record in self.tpc_records.items():
            stuck = tuple(
                s for s in record.participants if txn_id in self.shards[s].prepared
            )
            if stuck:
                # participants hold prepared locks no decision will release;
                # whatever the dead coordinator decided internally, the
                # observable outcome is a blocked record
                record.stuck = stuck
                record.decision = TpcDecision.BLOCKED
        return ShardedResult(self, stalled)


class ShardedResult(RunResult):
    """A sharded run on the ``RunResult`` surface, with its 2PC records.

    Shard stores hold plain values, so block bytes and index overhead are 0.
    ``messages_per_commit`` counts per cross-shard commit: single-shard
    transactions send no protocol messages.
    """

    def __init__(self, runner: ShardedRun, stalled: bool):
        records = runner.records
        started = sum(1 for r in records.values() if r.submit_time is not None)
        tpc = dict(runner.tpc_records)
        super().__init__(
            records=records,
            stalled=stalled,
            span=run_span(records.values(), runner.sim.now),
            delivered_counts=dict(runner.sim.delivered_counts),
            fingerprints=[],
            roots=None,
            storage={
                "state_bytes": sum(
                    len(k) + len(v) for s in runner.shards for k, v in s.store.items()
                ),
                "block_bytes": 0,
                "index_overhead_per_record": 0.0,
            },
            shard_count=runner.shard_map.shard_count,
            cross_shard_ratio=len(tpc) / started if started else 0.0,
            blocked_count=sum(1 for r in tpc.values() if r.decision is TpcDecision.BLOCKED),
            reconfig_interval=runner.cfg.reconfiguration_interval,
            trace=runner.sim.dump_trace() if runner.sim.trace is not None else None,
        )
        self.runner = runner
        self.tpc_records = tpc
        self.pauses = runner.pauses

    @property
    def messages_per_commit(self) -> float:
        commits = sum(1 for r in self.tpc_records.values() if r.decision is TpcDecision.COMMIT)
        return self.consensus_messages() / commits if commits else 0.0

    def atomicity_violations(self) -> list:
        """Commit must land in every participant shard, abort in none.

        Values embed the writing transaction's id, so a stray write from an
        aborted transaction is identifiable even after later overwrites.
        """
        out = []
        for txn_id, record in self.tpc_records.items():
            if record.decision is TpcDecision.COMMIT:
                missing = [
                    s
                    for s in record.participants
                    if txn_id not in self.runner.shards[s].applied_txns
                ]
                if missing:
                    out.append((txn_id, tuple(missing), "commit missing"))
            elif record.decision is TpcDecision.ABORT:
                leaked = [
                    s
                    for s in record.participants
                    if txn_id in self.runner.shards[s].applied_txns
                ]
                if leaked:
                    out.append((txn_id, tuple(leaked), "abort applied"))
        # no value in any store may come from an aborted cross-shard writer
        aborted_ids = {
            tid for tid, r in self.tpc_records.items() if r.decision is TpcDecision.ABORT
        }
        for shard in self.runner.shards:
            for key, value in shard.store.items():
                owner = int.from_bytes(value[:8], "big") if len(value) >= 8 else 0
                if owner in aborted_ids:
                    out.append((owner, shard.shard_id, "aborted value visible"))
        return out
