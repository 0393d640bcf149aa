"""Shared pipeline plumbing: peers, the ordering layer, clients, driving a run.

A pipeline wires N peer nodes (each with its own StateStore) plus a client
manager over one simulator.  Whole blocks (transaction-based lifecycles) or
individual write operations (storage-based) flow through one ordering
interface, whatever the replication approach.  ``attach_ordering`` gives
every peer a handle, ``peer.ordering``, with two calls:

* ``propose(payload)`` submits a payload for ordering;
* ``is_leader()`` says whether this peer is the one proposals go through.

Each ordered payload reaches every peer's worker lane as one worker task.
Behind the handle is one of three backends: a Raft or PBFT component across
the peers; a subscription to an external trusted shared log, whose peer 0
leads; or the head of a primary-backup chain, which applies a proposal at
once and whose replicas forward it down the chain.  ``leader()`` finds the
peer that proposes, serves reads and holds latches, and ``BlockFormer`` is the
one batch-or-timeout block former.

Replicas are deterministic, so host work they would repeat on immutable data
is done once.  ``preload`` builds the initial state once per process, for as
long as cells preload the same records, and forks it to every replica of
every cell; ``decoded`` decodes each ordered payload once for all peers.
Every replica still owns its mutable state, so replica agreement still
compares independent stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..authstore import StateStore, TransitionMemo
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
from ..workload import WorkloadSpec, generate, initial_state, initial_state_key
from .records import TxnRecord


# (index, ledger enabled, initial_state_key) -> the pristine store that
# ``PipelineBase.preload`` forks every replica from; at most one entry
_PRELOADED: Dict[tuple, StateStore] = {}


@dataclass(frozen=True)
class Arrival:
    mode: str  # "open_loop" | "closed_loop"
    rate_tps: float = 0.0  # open loop: mean submissions per virtual second
    clients: int = 1  # closed loop: concurrent clients

    @classmethod
    def open_loop(cls, rate_tps: float) -> "Arrival":
        if not (math.isfinite(rate_tps) and rate_tps > 0):
            raise ValueError("open_loop rate must be a finite number > 0")
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
    kind: str  # each block former keeps its owner's message kind


class BlockFormer:
    """Batch-or-timeout block formation; the former closes its own blocks.

    ``add`` queues a request: the first one queued arms the block timeout, a
    ``BlockTimer`` of kind ``timer_kind``, and a full queue closes a block.
    ``flush`` closes a block of whatever is queued; the owner calls it when
    the timer fires.  A block holds at most ``block_size_limit`` requests and
    closes only while ``ready()``, by a call of ``close(batch)``.  A close
    that empties the queue cancels the block timer, so the timer is
    delivered only for a block still open.
    """

    def __init__(self, host, timer_kind: str, close, ready=lambda: True):
        self.host = host
        self.cm = host.pipeline.cm
        self.timer_kind = timer_kind
        self.close = close
        self.ready = ready
        self.pending: list = []
        self.timer = None  # the block timer's handle

    def add(self, request) -> None:
        self.pending.append(request)
        if len(self.pending) == 1:
            self.timer = self.host.set_timer(self.cm.block_timeout, BlockTimer(self.timer_kind))
        if len(self.pending) >= self.cm.block_size_limit:
            self.flush()

    def flush(self) -> None:
        """Close a block of what is queued, full or not, if any is and ``ready()``."""
        if not self.pending or not self.ready():
            return
        limit = self.cm.block_size_limit
        block, self.pending = self.pending[:limit], self.pending[limit:]
        if not self.pending:
            self.host.cancel_timer(self.timer)
        self.close(block)


class PeerNode(ProtocolHost):
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

    def to_worker(self, payload) -> None:
        self.local(self.worker.node_id, payload)


class WorkerNode(ProtocolHost):
    """A replica's execution lane; shares the peer's state store."""

    def __init__(self, peer: PeerNode):
        super().__init__(("exec", peer.node_id))
        self.peer = peer
        self.pipeline = peer.pipeline

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
            # latency counts from here, also over retries and drained resubmissions
            self.pipeline.records[msg.txn_id].submit_time = self.now
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
            latency=self.cm.latency_drawer(seeded_rng(seed, "net")),
            allow_byzantine=cfg.failure_model is FailureModel.BFT,
            trace=trace,
        )
        self.txns: List[Transaction] = generate(spec)
        self.records: Dict[int, TxnRecord] = {
            txn.id: TxnRecord(txn=txn) for txn in self.txns
        }
        self._terminal = 0
        self.peers: List[PeerNode] = []
        self.clients = ClientManager(self)
        self._decoded: Dict[bytes, list] = {}  # payload -> [decoded, peers yet to take it]
        self._client_cursor = 0  # next stream index for closed-loop clients

    # -- construction helpers ------------------------------------------------

    def build_peers(self, peer_cls, worker_cls) -> None:
        for i in range(self.cfg.node_count):
            peer = peer_cls(i, self)
            self.sim.add_node(peer)
            peer.worker = worker_cls(peer)
            self.sim.add_node(peer.worker)
            self.peers.append(peer)
        self.sim.add_node(self.clients)

    def attach_ordering(self, task, log) -> None:
        """Give every peer its ordering handle, ``peer.ordering``.

        Each ordered payload reaches a peer's commit callback, which hands
        ``task(payload)`` to the peer's worker lane.  ``log`` is the
        shared-log node the pipeline orders through under the shared-log
        approach; it is ignored otherwise.
        """
        def on_commit(peer):
            return lambda idx, payload: peer.to_worker(task(payload))

        approach = self.cfg.replication_approach
        replicas = [p.node_id for p in self.peers]
        if approach is ReplicationApproach.SHARED_LOG:
            self.sim.add_node(log)
            for peer in self.peers:
                log.subscribe(peer.node_id)
                handle = LogHandle(log.node_id, replicas[0], on_commit(peer))
                peer.ordering = handle.attach(peer)
        elif approach is ReplicationApproach.PRIMARY_BACKUP:
            for peer in self.peers:
                peer.ordering = ChainHandle(peer.node_id, replicas[0], on_commit(peer))
        elif self.cfg.failure_model is FailureModel.CFT:
            timing = RaftTiming.from_mean_latency(self.cm.net_latency_mean)
            for peer in self.peers:
                peer.ordering = RaftComponent(
                    replicas,
                    timing,
                    seeded_rng(self.seed, f"timeout-{peer.node_id}"),
                    on_commit=on_commit(peer),
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
                    on_commit=on_commit(peer),
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

        The initial state is built once per process: the records are loaded
        into a pristine store with ``StateStore.load`` (set-up, so no hash
        work is metered; an MPT is built bottom-up, each node created once),
        which is kept for later cells that preload the same records into the
        same kind of store.  Every peer, replica 0 included, gets a ``fork``
        of it, which owns its mutable containers and shares the immutable
        KV records, trie nodes and values, so the initial records are held
        once per process and nothing ever writes to the pristine store.  The
        forks of one cell share one fresh transition memo.
        """
        key = (self.cfg.index, self.cfg.ledger_enabled, initial_state_key(self.spec))
        pristine = _PRELOADED.get(key)
        if pristine is None:
            _PRELOADED.clear()  # one entry: the last records preloaded
            pristine = StateStore(index=self.cfg.index, ledger_enabled=self.cfg.ledger_enabled)
            pristine.load(initial_state(self.spec))
            _PRELOADED[key] = pristine
        memo = TransitionMemo()
        for peer in self.peers:
            peer.state = pristine.fork(memo)

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

    def settle(self, record: TxnRecord, outcome: TxnOutcome) -> None:
        """Settle a pending ``record`` now and finish it; a no-op once it has settled."""
        if record.outcome is TxnOutcome.PENDING:
            record.settle(outcome, self.sim.now)
            self.txn_finished(record)

    # -- hooks the concrete pipelines implement -----------------------------------

    def begin_txn(self, txn_id: int) -> None:
        raise NotImplementedError

    def client_message(self, msg) -> None:
        raise NotImplementedError

    # -- the drive loop ----------------------------------------------------------

    def all_done(self) -> bool:
        return self._terminal >= len(self.txns)

    def drive(self, stall_window: int = 3_000_000) -> bool:
        """Run to completion or stall (``run_until_settled``); True when the run stalled."""
        return run_until_settled(self.sim, self.all_done, lambda: self._terminal, stall_window)
