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

Reconfiguration drains in-flight 2PC, pauses every shard for the configured
time, then reshuffles the node-to-shard seating under a seeded permutation;
the key-to-shard map itself is stable (the measured cost is the pause).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .consensus import PbftComponent, PbftTiming, ProtocolHost
from .consensus.pbft import Request
from .core.encoding import digest
from .core.rng import seeded_rng
from .core.types import CostModel, TxnOutcome
from .simnet import Simulator
from .workload import WorkloadSpec, generate


class ShardScheme(enum.Enum):
    HASH = "hash"
    RANGE = "range"


@dataclass
class ShardMap:
    shard_count: int
    scheme: ShardScheme = ShardScheme.HASH
    epoch: int = 0
    # which simulated machine hosts each shard; reshuffled by reconfiguration
    seating: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not self.seating:
            self.seating = tuple(range(self.shard_count))

    def assign(self, key: bytes) -> int:
        if self.scheme is ShardScheme.HASH:
            return int.from_bytes(digest(key), "big") % self.shard_count
        # range partitioning: contiguous intervals over the 2-byte key prefix
        prefix = int.from_bytes((key + b"\x00\x00")[:2], "big")
        return min(self.shard_count - 1, prefix * self.shard_count // 65536)

    def reconfigure(self, rng) -> "ShardMap":
        seating = list(self.seating)
        rng.shuffle(seating)
        return ShardMap(
            shard_count=self.shard_count,
            scheme=self.scheme,
            epoch=self.epoch + 1,
            seating=tuple(seating),
        )


class TpcDecision(enum.Enum):
    COMMIT = "commit"
    ABORT = "abort"
    BLOCKED = "blocked"


@dataclass
class TwoPcRecord:
    txn_id: int
    coordinator: object
    participants: Tuple[int, ...]
    votes: Dict[int, Optional[bool]] = field(default_factory=dict)
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
class TpcBegin:
    txn_id: int
    kind: str = field(default="2pc:begin", init=False)


@dataclass
class TpcPrepare:
    txn_id: int
    writes: tuple
    reply_to: tuple  # coordinator node ids expecting the vote
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
    kind: str = field(default="sh:pause_over", init=False)


@dataclass
class ReconfigTimer:
    kind: str = field(default="cl:reconfig", init=False)


@dataclass
class SubmitNext:
    index: int
    kind: str = field(default="cl:submit", init=False)


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
        self.paused_until = 0
        self.register("sh", self.handle_shard)
        self.register("2pc", self.handle_tpc)

    def exec_cost(self, writes) -> int:
        return self.runner.cm.exec_time_per_op * max(1, len(writes))

    def handle_shard(self, msg) -> int:
        if isinstance(msg, ShardExec):
            for key, value in msg.writes:
                self.store[key] = value
            self.send(self.runner.clients_id, ShardExecDone(msg.txn_id))
            return self.exec_cost(msg.writes)
        if isinstance(msg, VoteReady):
            self.runner.tpc_records[msg.txn_id].votes[self.shard_id] = msg.yes
            for dst in self.runner.coordinator_ids:
                self.send(dst, TpcVote(msg.txn_id, self.shard_id, msg.yes))
            return 0
        if isinstance(msg, PauseOver):
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


class TrustedCoordinator(ProtocolHost):
    def __init__(self, runner):
        super().__init__("coord")
        self.runner = runner
        self.votes: Dict[int, Dict[int, bool]] = {}
        self.register("2pc", self.handle)

    def handle(self, msg) -> int:
        if isinstance(msg, TpcVote):
            record = self.runner.tpc_records[msg.txn_id]
            if record.decision is not None:
                return 0
            table = self.votes.setdefault(msg.txn_id, {})
            table[msg.shard] = msg.yes
            if len(table) == len(record.participants):
                commit = all(table.values())
                record.decision = TpcDecision.COMMIT if commit else TpcDecision.ABORT
                for shard in record.participants:
                    self.send(self.runner.shard_node_id(shard), TpcDecide(msg.txn_id, commit))
                self.send(self.runner.clients_id, ShardExecDone(msg.txn_id))
        return 0


class BftCoordinatorReplica(ProtocolHost):
    """2PC coordinator as a replicated state machine in a BFT shard."""

    def __init__(self, index: int, runner):
        super().__init__(("coord", index))
        self.index = index
        self.runner = runner
        self.votes: Dict[int, Dict[int, bool]] = {}
        self.proposed: set = set()
        self.register("2pc", self.handle)
        self.pbft: Optional[PbftComponent] = None

    def handle(self, msg) -> int:
        if isinstance(msg, TpcVote):
            record = self.runner.tpc_records[msg.txn_id]
            table = self.votes.setdefault(msg.txn_id, {})
            table[msg.shard] = msg.yes
            if len(table) == len(record.participants) and msg.txn_id not in self.proposed:
                self.proposed.add(msg.txn_id)
                commit = all(table.values())
                payload = b"decide:%d:%d" % (msg.txn_id, 1 if commit else 0)
                # the request path arms progress timers, so a crashed primary
                # is replaced by view change and the decision still commits
                self.pbft.handle(Request(payload))
        return 0

    def on_decided(self, seq: int, payload: bytes) -> None:
        _, txn_s, commit_s = payload.split(b":")
        txn_id, commit = int(txn_s), bool(int(commit_s))
        record = self.runner.tpc_records[txn_id]
        if record.decision is None:
            record.decision = TpcDecision.COMMIT if commit else TpcDecision.ABORT
        for shard in record.participants:
            self.send(self.runner.shard_node_id(shard), TpcDecide(txn_id, commit))
        self.send(self.runner.clients_id, ShardExecDone(txn_id))


class ShardedRun:
    """Drives one workload stream through a sharded deployment."""

    COORD_REPLICAS = 4

    def __init__(
        self,
        spec: WorkloadSpec,
        shard_count: int,
        cost_model: Optional[CostModel] = None,
        bft_coordinator: bool = False,
        reconfiguration_interval: int = 0,
        scheme: ShardScheme = ShardScheme.HASH,
        seed: int = 0,
        arrival_rate_tps: float = 2_000.0,
    ):
        self.cm = cost_model or CostModel()
        self.spec = spec
        self.bft_coordinator = bft_coordinator
        self.reconfiguration_interval = reconfiguration_interval
        self.shard_map = ShardMap(shard_count, scheme)
        self.sim = Simulator(
            rng=seeded_rng(seed, "net"),
            latency_fn=self.cm.net_delay,
            allow_byzantine=bft_coordinator,
        )
        self.vote_durability_delay = 2 * self.cm.net_latency_mean
        self.txns = generate(spec)
        self.records = {t.id: t for t in self.txns}
        self.outcomes: Dict[int, TxnOutcome] = {}
        self.tpc_records: Dict[int, TwoPcRecord] = {}
        self.commit_times: Dict[int, int] = {}
        self.submit_times: Dict[int, int] = {}
        self.clients_id = "clients"
        self.reconfig_rng = seeded_rng(seed, "reconfig")
        self.draining = False
        self.drained_submissions: List[int] = []
        self.pauses = 0

        self.shards = [self.sim.add_node(ShardNode(s, self)) for s in range(shard_count)]
        if bft_coordinator:
            self.coordinators = [
                self.sim.add_node(BftCoordinatorReplica(i, self))
                for i in range(self.COORD_REPLICAS)
            ]
            replica_ids = [c.node_id for c in self.coordinators]
            timing = PbftTiming.from_mean_latency(self.cm.net_latency_mean)
            for coord in self.coordinators:
                comp = PbftComponent(
                    replica_ids,
                    timing,
                    on_commit=coord.on_decided,
                    msg_cost=self.cm.sig_verify_time,
                )
                comp.attach(coord)
                coord.pbft = comp
            self.coordinator_ids = replica_ids
        else:
            self.coordinator = self.sim.add_node(TrustedCoordinator(self))
            self.coordinator_ids = ["coord"]
        self.clients = self.sim.add_node(_ShardClients(self))

        interval = max(1, int(1_000_000 / arrival_rate_tps))
        for i in range(len(self.txns)):
            self.sim.schedule(self.clients_id, SubmitNext(i), delay=i * interval)
        if reconfiguration_interval > 0:
            self.sim.schedule(self.clients_id, ReconfigTimer(), delay=reconfiguration_interval)

    # -- topology ------------------------------------------------------------

    def shard_node_id(self, shard: int):
        return ("shard", shard)

    def shards_of(self, txn) -> Dict[int, tuple]:
        groups: Dict[int, list] = {}
        for key, value in txn.write_set:
            groups.setdefault(self.shard_map.assign(key), []).append((key, value))
        if not groups:
            for key, _ in txn.read_set:
                groups.setdefault(self.shard_map.assign(key), [])
        return {s: tuple(w) for s, w in groups.items()}

    # -- client behavior -----------------------------------------------------------

    def submit(self, index: int) -> None:
        txn = self.txns[index]
        if self.draining or self._paused():
            self.drained_submissions.append(index)
            return
        self.submit_times[txn.id] = self.sim.now
        groups = self.shards_of(txn)
        if txn.app_abort or not txn.write_set:
            self.outcomes[txn.id] = (
                TxnOutcome.ABORTED_APPLICATION if txn.app_abort else TxnOutcome.COMMITTED
            )
            self.commit_times[txn.id] = self.sim.now
            return
        if len(groups) == 1:
            shard, writes = next(iter(groups.items()))
            self.clients.send(self.shard_node_id(shard), ShardExec(txn.id, writes))
            return
        record = TwoPcRecord(
            txn_id=txn.id,
            coordinator="coord-shard" if self.bft_coordinator else "coord",
            participants=tuple(sorted(groups)),
        )
        self.tpc_records[txn.id] = record
        for shard, writes in groups.items():
            self.clients.send(
                self.shard_node_id(shard),
                TpcPrepare(txn.id, writes, tuple(self.coordinator_ids)),
            )

    def _paused(self) -> bool:
        return any(s.paused_until > self.sim.now for s in self.shards)

    def finish(self, txn_id: int) -> None:
        if txn_id in self.outcomes:
            return
        record = self.tpc_records.get(txn_id)
        if record is not None and record.decision is TpcDecision.ABORT:
            self.outcomes[txn_id] = TxnOutcome.ABORTED_WW
        else:
            self.outcomes[txn_id] = TxnOutcome.COMMITTED
            self.commit_times[txn_id] = self.sim.now

    # -- reconfiguration ----------------------------------------------------------

    def start_reconfiguration(self) -> None:
        self.draining = True
        self._try_pause()

    def _try_pause(self) -> None:
        inflight = [r for r in self.tpc_records.values() if r.decision is None]
        if inflight:
            # in-flight cross-shard records drain before the pause
            self.sim.schedule(self.clients_id, ReconfigTimer(), delay=5_000)
            return
        until = self.sim.now + self.cm.reconfig_pause
        for shard in self.shards:
            shard.paused_until = until
            shard.busy_until = max(shard.busy_until, until)
        self.shard_map = self.shard_map.reconfigure(self.reconfig_rng)
        self.pauses += 1
        self.draining = False
        self.sim.schedule(self.clients_id, PauseOver(), delay=self.cm.reconfig_pause)
        if self.reconfiguration_interval > 0:
            self.sim.schedule(
                self.clients_id,
                ReconfigTimer(),
                delay=self.cm.reconfig_pause + self.reconfiguration_interval,
            )

    def resume_drained(self) -> None:
        pending, self.drained_submissions = self.drained_submissions, []
        for index in pending:
            self.submit(index)

    # -- run and report -------------------------------------------------------------

    def all_settled(self) -> bool:
        return len(self.outcomes) >= len(self.txns)

    def run(self, max_virtual: int = 600_000_000, stall_window: int = 5_000_000) -> "ShardedResult":
        last_progress = 0
        settled = 0
        while self.sim.pending() and not self.all_settled():
            self.sim.run(until=self.sim.now + 100_000)
            if len(self.outcomes) > settled:
                settled = len(self.outcomes)
                last_progress = self.sim.now
            if self.sim.now - last_progress >= stall_window or self.sim.now >= max_virtual:
                break
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
        return ShardedResult(self)


class _ShardClients(ProtocolHost):
    def __init__(self, runner: ShardedRun):
        super().__init__(runner.clients_id)
        self.runner = runner
        self.register("cl", self.handle)
        self.register("sh", self.handle)

    def handle(self, msg) -> int:
        if isinstance(msg, SubmitNext):
            self.runner.submit(msg.index)
        elif isinstance(msg, ShardExecDone):
            self.runner.finish(msg.txn_id)
        elif isinstance(msg, ReconfigTimer):
            if self.runner.draining:
                self.runner._try_pause()
            else:
                self.runner.start_reconfiguration()
        elif isinstance(msg, PauseOver):
            self.runner.resume_drained()
        return 0


class ShardedResult:
    def __init__(self, runner: ShardedRun):
        self.runner = runner
        self.outcomes = dict(runner.outcomes)
        self.tpc_records = dict(runner.tpc_records)
        self.shard_map = runner.shard_map
        self.pauses = runner.pauses
        # the run stopped (stall window or time cap) with transactions unsettled
        self.stalled = not runner.all_settled()

    @property
    def committed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o is TxnOutcome.COMMITTED)

    @property
    def blocked_count(self) -> int:
        return sum(
            1 for r in self.tpc_records.values() if r.decision is TpcDecision.BLOCKED
        )

    @property
    def cross_shard_ratio(self) -> float:
        total = len(self.runner.submit_times)
        return len(self.tpc_records) / total if total else 0.0

    @property
    def span(self) -> int:
        times = list(self.runner.commit_times.values())
        subs = list(self.runner.submit_times.values())
        if not times or not subs:
            return self.runner.sim.now
        return max(times) - min(subs)

    @property
    def throughput_tps(self) -> float:
        return self.committed * 1_000_000 / self.span if self.span > 0 else 0.0

    def protocol_messages(self) -> int:
        """Delivered 2PC and PBFT messages; timer firings are not messages."""
        return sum(
            n
            for kind, n in self.runner.sim.delivered_counts.items()
            if (kind.startswith("2pc:") or kind.startswith("pbft:")) and not kind.endswith("timer")
        )

    def messages_per_cross_shard_commit(self) -> float:
        commits = sum(
            1 for r in self.tpc_records.values() if r.decision is TpcDecision.COMMIT
        )
        if not commits:
            return 0.0
        return self.protocol_messages() / commits

    def atomicity_violations(self) -> list:
        """Commit must land in every participant shard, abort in none.

        Values embed the writing transaction's id, so a stray write from an
        aborted transaction is identifiable even after later overwrites.
        """
        out = []
        committed_ids = {
            tid for tid, r in self.tpc_records.items() if r.decision is TpcDecision.COMMIT
        }
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
