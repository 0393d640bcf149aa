"""Shared pipeline plumbing: peers, the ordering layer, clients, driving a run.

A pipeline wires N peer nodes (each with its own StateStore) plus a client
manager over one simulator.  Whole blocks (transaction-based lifecycles) or
individual write operations (storage-based) flow through one ordering
interface, whatever the replication approach.  ``attach_ordering`` gives
every peer a handle, ``peer.ordering``, with two calls:

* ``propose(payload)`` submits a payload for ordering;
* ``is_leader()`` says whether this peer is the one proposals go through.

Each ordered payload reaches the pipeline's one commit callback at every peer.
Behind the handle is one of three backends: a Raft or PBFT component across
the peers; a subscription to an external trusted shared log, whose peer 0
leads; or the head of a primary-backup chain, which applies a proposal at
once and whose replicas forward it down the chain.  ``leader()`` finds the
peer that proposes, serves reads and holds latches, and ``BlockFormer`` is the
one batch-or-timeout block former.

Replicas are deterministic, so host work they would repeat on immutable data
is done once.  ``preload`` builds the initial state once and forks it to the
other replicas, and ``decoded`` decodes each ordered payload once for all
peers.  Every replica still owns its mutable state, so replica agreement
still compares independent stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..authstore import StateStore
from ..consensus import PbftComponent, ProtocolHost, RaftComponent, RaftTiming
from ..consensus.primarybackup import ChainHandle
from ..consensus.sharedlog import LogHandle
from ..core.rng import seeded_rng
from ..core.types import (
    CostModel,
    DesignConfig,
    FailureModel,
    ReplicationApproach,
    Transaction,
    TxnOutcome,
)
from ..simnet import Simulator, run_until_settled
from ..workload import WorkloadSpec, generate, initial_state
from .records import TxnRecord


@dataclass(frozen=True)
class Arrival:
    mode: str  # "open_loop" | "closed_loop"
    rate_tps: float = 0.0  # open loop: mean submissions per virtual second
    clients: int = 1  # closed loop: concurrent clients

    @classmethod
    def open_loop(cls, rate_tps: float) -> "Arrival":
        if rate_tps <= 0:
            raise ValueError("open_loop rate must be positive")
        return cls("open_loop", rate_tps=rate_tps)

    @classmethod
    def closed_loop(cls, clients: int) -> "Arrival":
        if clients < 1:
            raise ValueError("closed_loop needs at least one client")
        return cls("closed_loop", clients=clients)


@dataclass
class SubmitTimer:
    txn_id: int
    kind: str = field(default="cl:submit", init=False)


@dataclass
class Retry:
    """Try a transaction's next step again; no leader was elected yet."""

    txn_id: int
    kind: str = field(default="cl:retry", init=False)


@dataclass
class BlockTimer:
    token: int
    kind: str  # each block former keeps its owner's message kind


class BlockFormer:
    """Batch-or-timeout block formation.

    Requests queue until ``take`` hands out a block of at most
    ``block_size_limit`` of them: once the block is full, or when forced (its
    timeout fired, or the owner flushes).  The first request queued arms the
    block timeout, a ``BlockTimer`` of kind ``timer_kind``.
    """

    def __init__(self, host, timer_kind: str):
        self.host = host
        self.cm = host.pipeline.cm
        self.timer_kind = timer_kind
        self.pending: list = []
        self.token = 0

    def add(self, request) -> None:
        self.pending.append(request)
        if len(self.pending) == 1:
            self.token += 1
            self.host.set_timer(self.cm.block_timeout, BlockTimer(self.token, self.timer_kind))

    def timed_out(self, timer: BlockTimer) -> bool:
        """False for a stale timer, armed for a block that has closed."""
        return timer.token == self.token

    def take(self, force: bool = False) -> list:
        """The next block; empty while it is neither full nor forced."""
        limit = self.cm.block_size_limit
        if len(self.pending) < limit and not force:
            return []
        block, self.pending = self.pending[:limit], self.pending[limit:]
        return block


class CostMixin:
    def charge(self, cost: int) -> None:
        self._pending_cost += cost

    def on_message(self, msg) -> int:
        cost = super().on_message(msg)
        extra, self._pending_cost = self._pending_cost, 0
        return cost + extra


class PeerNode(CostMixin, ProtocolHost):
    """A replica's protocol lane: consensus and request handling.

    Execution work (block application, validation) runs on the peer's worker
    twin so that heavy applies never freeze heartbeats or protocol timers,
    the way a separate execution thread behaves on a real node.  The state
    store lives here; the worker is its single writer.
    """

    def __init__(self, node_id, pipeline):
        super().__init__(node_id)
        self.pipeline = pipeline
        self.state = None  # set by preload
        self.worker = None  # twin execution node, set by build_peers
        self.ordering = None  # propose/is_leader handle, set by attach_ordering
        self._pending_cost = 0

    def to_worker(self, payload) -> None:
        self.local(self.worker.node_id, payload)


class WorkerNode(CostMixin, ProtocolHost):
    """A replica's execution lane; shares the peer's state store."""

    def __init__(self, peer: PeerNode):
        super().__init__(("exec", peer.node_id))
        self.peer = peer
        self.pipeline = peer.pipeline
        self._pending_cost = 0

    @property
    def state(self):
        return self.peer.state


class ClientManager(ProtocolHost):
    """Runs every logical client as event-driven state; zero processing cost."""

    def __init__(self, pipeline):
        super().__init__("clients")
        self.pipeline = pipeline
        self.register("cl", self.handle_client)

    def handle_client(self, msg) -> int:
        if isinstance(msg, SubmitTimer):
            self.pipeline.begin_txn(msg.txn_id)
        else:
            self.pipeline.client_message(msg)
        return 0


class PipelineBase:
    observer_id = 0  # latencies and replay oracles are measured at this peer

    def __init__(
        self,
        cfg: DesignConfig,
        spec: WorkloadSpec,
        arrival: Arrival,
        seed: int,
        trace: bool = False,
    ):
        self.cfg = cfg
        self.cm: CostModel = cfg.cost_model
        self.spec = spec
        self.arrival = arrival
        self.seed = seed
        self.sim = Simulator(
            rng=seeded_rng(seed, "net"),
            latency_fn=self.cm.net_delay,
            allow_byzantine=cfg.failure_model is FailureModel.BFT,
            trace=trace,
        )
        self.txns: List[Transaction] = generate(spec)
        self.records: Dict[int, TxnRecord] = {
            txn.id: TxnRecord(txn=txn) for txn in self.txns
        }
        self.dropped: set = set()
        self._terminal = 0
        self.peers: List[PeerNode] = []
        self.clients = ClientManager(self)
        self._decoded: Dict[bytes, list] = {}  # payload -> [decoded, peers yet to take it]
        self._client_cursor = 0  # next stream index for closed-loop clients

    # -- construction helpers ------------------------------------------------

    def build_peers(self, peer_cls, worker_cls=None) -> None:
        for i in range(self.cfg.node_count):
            peer = peer_cls(i, self)
            self.sim.add_node(peer)
            if worker_cls is not None:
                peer.worker = worker_cls(peer)
                self.sim.add_node(peer.worker)
            self.peers.append(peer)
        self.sim.add_node(self.clients)

    def attach_ordering(self, on_commit_factory, log=None) -> None:
        """Give every peer its ordering handle, ``peer.ordering``.

        ``on_commit_factory(peer)`` returns the callback ``(index, payload)``
        that each ordered payload reaches at ``peer``.  ``log`` is the
        shared-log node the pipeline orders through under the shared-log
        approach; it is ignored otherwise.
        """
        approach = self.cfg.replication_approach
        replicas = [p.node_id for p in self.peers]
        if approach is ReplicationApproach.SHARED_LOG:
            self.sim.add_node(log)
            for peer in self.peers:
                log.subscribe(peer.node_id)
                handle = LogHandle(log.node_id, replicas[0], on_commit_factory(peer))
                peer.ordering = handle.attach(peer)
        elif approach is ReplicationApproach.PRIMARY_BACKUP:
            for peer in self.peers:
                peer.ordering = ChainHandle(peer.node_id, replicas[0], on_commit_factory(peer))
        elif self.cfg.failure_model is FailureModel.CFT:
            timing = RaftTiming.from_mean_latency(self.cm.net_latency_mean)
            for peer in self.peers:
                peer.ordering = RaftComponent(
                    replicas,
                    timing,
                    seeded_rng(self.seed, f"timeout-{peer.node_id}"),
                    on_commit=on_commit_factory(peer),
                )
                peer.ordering.attach(peer)
                # benchmark clusters run with leadership already settled
                peer.ordering.start_bootstrapped(replicas[0])
        else:
            # pipeline runs never crash replicas, so the progress timer (and
            # with it view changes) stays off; the proposer is stable
            for peer in self.peers:
                peer.ordering = PbftComponent(
                    replicas,
                    timing=None,
                    on_commit=on_commit_factory(peer),
                    msg_cost=self.cm.sig_verify_time,
                )
                peer.ordering.attach(peer)

    def leader(self) -> Optional[PeerNode]:
        """The peer that proposes, serves reads and holds latches; None while none is elected."""
        for peer in self.peers:
            if peer.ordering.is_leader():
                return peer
        return None

    def leader_or_retry(self, txn_id: int) -> Optional[PeerNode]:
        """``leader()``; with none elected, ``txn_id`` gets a ``Retry`` shortly."""
        leader = self.leader()
        if leader is None:
            self.clients.set_timer(2_000, Retry(txn_id))
        return leader

    def exec_cost(self, txn) -> int:
        return self.cm.exec_time_per_op * max(1, txn.op_count)

    def preload(self) -> None:
        """Give every peer its state store, holding the workload's initial records.

        Replicas start from one shared build: the records are applied to one
        store, and every other peer gets a ``fork`` of it, which owns its
        mutable containers and shares only immutable nodes and values.
        """
        built = StateStore(index=self.cfg.index, ledger_enabled=self.cfg.ledger_enabled)
        built.apply_batch(initial_state(self.spec))
        # pre-population is setup, not measured work; forks start with a zeroed meter
        built.meter.ops = built.meter.bytes = 0
        for i, peer in enumerate(self.peers):
            peer.state = built.fork() if i else built

    def decoded(self, payload: bytes, decode):
        """``decode(payload)``, computed once for all the peers that take it.

        Decoding is a pure function of the bytes, so the peers share the
        decoded immutable objects.  Every peer takes each ordered payload
        once; the entry is dropped when the last one has, so only payloads
        in flight are held.
        """
        entry = self._decoded.get(payload)
        if entry is None:
            entry = self._decoded[payload] = [decode(payload), len(self.peers)]
        entry[1] -= 1
        if not entry[1]:
            del self._decoded[payload]
        return entry[0]

    # -- arrivals ----------------------------------------------------------------

    def schedule_arrivals(self) -> None:
        if self.arrival.mode == "open_loop":
            interval = max(1, int(1_000_000 / self.arrival.rate_tps))
            for i, txn in enumerate(self.txns):
                self.sim.schedule(self.clients.node_id, SubmitTimer(txn.id), delay=i * interval)
        else:
            for _ in range(min(self.arrival.clients, len(self.txns))):
                self._submit_next()

    def _submit_next(self) -> None:
        if self._client_cursor >= len(self.txns):
            return
        txn = self.txns[self._client_cursor]
        self._client_cursor += 1
        self.sim.schedule(self.clients.node_id, SubmitTimer(txn.id), delay=0)

    def txn_finished(self, record: TxnRecord) -> None:
        """Bookkeeping common to every terminal outcome."""
        self._terminal += 1
        if self.arrival.mode == "closed_loop":
            self._submit_next()

    def mark_dropped(self, record: TxnRecord) -> None:
        if record.txn.id not in self.dropped:
            self.dropped.add(record.txn.id)
            self.txn_finished(record)

    # -- hooks the concrete pipelines implement -----------------------------------

    def begin_txn(self, txn_id: int) -> None:
        raise NotImplementedError

    def client_message(self, msg) -> None:
        raise NotImplementedError

    # -- the drive loop ----------------------------------------------------------

    def committed_count(self) -> int:
        return sum(1 for r in self.records.values() if r.outcome is TxnOutcome.COMMITTED)

    def all_done(self) -> bool:
        return self._terminal >= len(self.txns)

    def drive(self, stall_window: int = 3_000_000) -> bool:
        """Run to completion or stall (``run_until_settled``); True when the run stalled."""
        return run_until_settled(self.sim, self.all_done, lambda: self._terminal, stall_window)
