"""Order-execute lifecycle: pre-execute, order blocks, re-execute everywhere.

The proposer executes transactions serially at the ledger tip, batches them
into a block (closed at the size limit or timeout), and hands the block to
the ordering backend (consensus across the peers, or the external shared
log).  Every node then re-executes the block serially, appends it to its
ledger, and recomputes the index root when one is configured.  Serial
execution admits no conflicts, so the abort rate is structurally zero; each
transaction is executed exactly twice along its lifecycle (proposal and
commit).  The next block is proposed only after the previous one commits,
which couples throughput to the ledger's sequentiality: only the proposer,
waiting with its block in flight, hears ``OeApplied`` and closes the next.

Execution runs on each replica's worker lane, so heavy block applies delay
later blocks (they queue) without freezing consensus heartbeats.

A payload is decoded once for all replicas into a block of the workload's
own transactions (``OrderExecutePipeline.block_of``), as in EOV: ledgers
keep that ``Block``, and KV and trie leaves the generated value bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..consensus.sharedlog import SharedLogService
from ..core.encoding import decode_block, encode_block
from ..core.types import Block, TxnOutcome
from .base import Arrival, BlockFormer, BlockTimer, PeerNode, PipelineBase, Retry, WorkerNode


@dataclass
class OeSubmit:
    txn_id: int
    kind: str = field(default="oe:submit", init=False)


@dataclass
class OeProposeReady:
    payload: bytes
    kind: str = field(default="oe:propose", init=False)


@dataclass
class OeApplied:
    kind: str = field(default="oe:applied", init=False)


@dataclass
class PreExecTask:
    txn_ids: tuple
    kind: str = field(default="oex:pre_exec", init=False)


@dataclass
class ApplyTask:
    payload: bytes
    kind: str = field(default="oex:apply", init=False)


@dataclass
class OeDone:
    txn_id: int
    kind: str = field(default="cl:oe_done", init=False)


class OePeer(PeerNode):
    def __init__(self, node_id, pipeline):
        super().__init__(node_id, pipeline)
        self.register("oe", self.handle_oe)
        # one block in flight: the next is pre-executed at the tip this one leaves
        self.in_flight = False
        self.blocks = BlockFormer(
            self, "oe:block_timer", self.close_block,
            ready=lambda: not self.in_flight and self.ordering.is_leader(),
        )

    def handle_oe(self, msg) -> int:
        if isinstance(msg, OeSubmit):
            self.blocks.add(msg.txn_id)
        elif isinstance(msg, BlockTimer):
            self.blocks.flush()
        elif isinstance(msg, OeProposeReady):
            self.ordering.propose(msg.payload)
        elif isinstance(msg, OeApplied):
            self.in_flight = False
            self.blocks.flush()
        return 0

    def close_block(self, batch) -> None:
        self.in_flight = True
        self.to_worker(PreExecTask(tuple(batch)))


class OeWorker(WorkerNode):
    def __init__(self, peer):
        super().__init__(peer)
        self.register("oex", self.handle)

    def handle(self, msg) -> int:
        if isinstance(msg, PreExecTask):
            self.pre_execute(msg.txn_ids)
        elif isinstance(msg, ApplyTask):
            self.apply_block(msg.payload)
        return 0

    def pre_execute(self, txn_ids) -> None:
        """Serial execution at the ledger tip; the block proposal follows."""
        cumulative = 0
        txns = []
        for txn_id in txn_ids:
            record = self.pipeline.records[txn_id]
            cumulative += self.pipeline.exec_cost(record.txn)
            record.executed_time = self.now + cumulative
            txns.append(record.txn)
        self.charge(cumulative)
        ledger = self.state.ledger
        height = len(ledger.blocks) if ledger else self.pipeline.next_height
        self.pipeline.next_height = height + 1
        block = Block(
            height=height,
            parent_digest=ledger.tip_digest if ledger else bytes(32),
            txn_list=tuple(txns),
            proposer=self.peer.node_id,
            state_root=self.state.index_root() if self.state.index else None,
        )
        self.local(self.peer.node_id, OeProposeReady(encode_block(block)))

    def apply_block(self, payload: bytes) -> None:
        block = self.pipeline.decoded(payload, self.pipeline.block_of)
        observer = self.peer.node_id == self.pipeline.observer_id
        cumulative = 0
        if self.state.ledger is not None:
            _, size = self.state.ledger.append(block, payload)
            ledger_cost = self.pipeline.cm.hash_cost(1, size)
            self.charge(ledger_cost)
            cumulative += ledger_cost
        for txn in block.txn_list:
            cost = self.pipeline.exec_cost(txn)
            if not txn.app_abort and txn.write_set:
                _, hops, hbytes = self.state.apply_batch(txn.write_set)
                cost += self.pipeline.cm.hash_cost(hops, hbytes)
            self.charge(cost)
            cumulative += cost
            if observer:
                record = self.pipeline.records[txn.id]
                record.order_time = self.now  # the block reached the observer's worker
                outcome = TxnOutcome.ABORTED_APPLICATION if txn.app_abort else TxnOutcome.COMMITTED
                record.settle(outcome, self.now + cumulative)
                self.send("clients", OeDone(txn.id))
        if self.peer.in_flight:  # only the proposer waits for a block to apply
            self.local(self.peer.node_id, OeApplied())


class OrderExecutePipeline(PipelineBase):
    def __init__(self, cfg, spec, arrival: Arrival, seed: int, trace: bool = False):
        super().__init__(cfg, spec, arrival, seed, trace)
        self.next_height = 0
        self.build_peers(OePeer, OeWorker)
        self.attach_ordering(
            ApplyTask, log=SharedLogService("orderer", self.cm.net_latency_mean)
        )
        self.preload()
        self.schedule_arrivals()

    def block_of(self, payload: bytes) -> Block:
        """The block ``payload`` encodes, holding each record's transaction where equal."""
        block = decode_block(payload)
        txns = tuple(txn if (txn := self.records[t.id].txn) == t else t for t in block.txn_list)
        return replace(block, txn_list=txns)

    def begin_txn(self, txn_id: int) -> None:
        leader = self.leader_or_retry(txn_id)
        if leader is not None:
            self.clients.send(leader.node_id, OeSubmit(txn_id))

    def client_message(self, msg) -> None:
        if isinstance(msg, Retry):
            self.begin_txn(msg.txn_id)
        elif isinstance(msg, OeDone):
            self.txn_finished(self.records[msg.txn_id])
