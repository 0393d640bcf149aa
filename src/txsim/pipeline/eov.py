"""Execute-order-validate lifecycle: simulate everywhere, order, validate serially.

Clients broadcast each transaction to all peers, which simulate it against
their own committed state and return the read versions they saw.  Peers
commit blocks at different moments, so a client can observe two peers answer
with different versions; it then aborts immediately (inconsistent read)
without ordering the transaction.  Matching endorsements are sent to the
ordering service (a trusted shared log by default, or consensus across the
peers), batched into blocks, and validated serially at every peer: a stale
read version aborts the transaction (read-write conflict), otherwise its
write set is applied.  Signature verification is charged per transaction
during validation.

Endorsement and validation run on each peer's worker lane.  Validation is
strictly serial there, so once arrivals outrun validation capacity, blocks
pile up in the worker queue and the validate phase is the one that grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..consensus.sharedlog import SharedLogService
from ..core.encoding import Reader, Writer, encode_block
from ..core.types import Block, ReplicationApproach, TxnOutcome
from .base import Arrival, BlockFormer, BlockTimer, PeerNode, PipelineBase, Retry, WorkerNode
from .occ import occ_validate


@dataclass
class EndorseReq:
    txn_id: int
    kind: str = field(default="eov:endorse_req", init=False)


@dataclass
class EndorseTask:
    txn_id: int
    kind: str = field(default="eovx:endorse", init=False)


@dataclass
class EndorseResp:
    txn_id: int
    reads: tuple  # ((key, version), ...) sorted by key
    kind: str = field(default="cl:endorse_resp", init=False)


@dataclass
class EndorseTimeout:
    txn_id: int
    kind: str = field(default="cl:endorse_timeout", init=False)


@dataclass
class OrderRequest:
    txn_id: int
    reads: tuple
    kind: str = field(default="ord:append", init=False)


@dataclass
class ValidateTask:
    payload: bytes
    kind: str = field(default="eovx:validate", init=False)


@dataclass
class EovDone:
    txn_id: int
    kind: str = field(default="cl:eov_done", init=False)


def encode_entries(entries) -> bytes:
    w = Writer()
    w.u32(len(entries))
    for txn_id, reads in entries:
        w.u64(txn_id)
        w.u32(len(reads))
        for key, version in reads:
            w.bytes(key)
            w.u64(version)
    return w.getvalue()


def decode_entries(payload: bytes):
    r = Reader(payload)
    out = []
    for _ in range(r.u32()):
        txn_id = r.u64()
        reads = tuple((r.bytes(), r.u64()) for _ in range(r.u32()))
        out.append((txn_id, reads))
    if not r.done():
        raise ValueError("trailing bytes after block entries")
    return tuple(out)


class EovOrderer(SharedLogService):
    """Trusted ordering service: the shared log, with a block former in front.

    Each block the former closes is one log entry.  The log's internal
    replication shows up as a fixed delivery delay.
    """

    def __init__(self, pipeline):
        super().__init__("orderer", pipeline.cm.net_latency_mean)
        self.pipeline = pipeline
        self.blocks = BlockFormer(self, "ord:timer", lambda b: self.append(pipeline.seal_block(b)))

    def on_message(self, msg) -> int:
        return self.handle(msg)

    def handle(self, msg) -> int:
        if isinstance(msg, OrderRequest):
            self.blocks.add((msg.txn_id, msg.reads))
        elif isinstance(msg, BlockTimer):
            self.blocks.flush()
        else:
            return super().on_message(msg)
        return 0


class EovPeer(PeerNode):
    def __init__(self, node_id, pipeline):
        super().__init__(node_id, pipeline)
        self.register("eov", self.handle_eov)
        self.register("ord", self.handle_ordering)
        self.blocks = BlockFormer(  # consensus mode: the leader forms the blocks
            self, "ord:timer", lambda b: self.ordering.propose(pipeline.seal_block(b)),
            ready=lambda: self.ordering.is_leader())

    def handle_eov(self, msg) -> int:
        if isinstance(msg, EndorseReq):
            self.to_worker(EndorseTask(msg.txn_id))
        return 0

    def handle_ordering(self, msg) -> int:
        if isinstance(msg, OrderRequest):
            self.blocks.add((msg.txn_id, msg.reads))
        elif isinstance(msg, BlockTimer):
            self.blocks.flush()
        return 0


class EovWorker(WorkerNode):
    def __init__(self, peer):
        super().__init__(peer)
        self.register("eovx", self.handle)

    def handle(self, msg) -> int:
        if isinstance(msg, EndorseTask):
            self.endorse(msg.txn_id)
        elif isinstance(msg, ValidateTask):
            self.validate_block(msg.payload)
        return 0

    def endorse(self, txn_id: int) -> None:
        """Simulate against this peer's committed state; no state mutation."""
        record = self.pipeline.records[txn_id]
        txn = record.txn
        self.charge(self.pipeline.exec_cost(txn))
        reads = tuple(sorted((key, self.state.version(key)) for key in txn.read_keys))
        self.send("clients", EndorseResp(txn_id, reads))

    def validate_block(self, payload: bytes) -> None:
        # decoded once for every peer, with a memo of the block encodings they build
        entries, encodings = self.pipeline.decoded(payload, lambda p: (decode_entries(p), {}))
        observer = self.peer.node_id == self.pipeline.observer_id
        cm = self.pipeline.cm
        cumulative = 0
        for txn_id, reads in entries:
            record = self.pipeline.records[txn_id]
            txn = record.txn
            cost = cm.sig_verify_time
            if txn.app_abort:
                outcome = TxnOutcome.ABORTED_APPLICATION
            else:
                outcome = occ_validate(dict(reads), (), self.state, {})
            if outcome is TxnOutcome.COMMITTED and txn.write_set:
                _, hops, hbytes = self.state.apply_batch(txn.write_set)
                cost += cm.exec_time_per_op * len(txn.write_set)
                cost += cm.hash_cost(hops, hbytes)
            self.charge(cost)
            cumulative += cost
            if observer:
                record.settle(outcome, self.now + cumulative)
                self.send("clients", EovDone(txn_id))
        if self.state.ledger is not None:
            block = Block(
                height=len(self.state.ledger.blocks),
                parent_digest=self.state.ledger.tip_digest,
                txn_list=tuple(self.pipeline.records[i].txn for i, _ in entries),
                proposer=0,
                state_root=self.state.index_root() if self.state.index else None,
            )
            # peers that build the same block from the payload share its encoding
            built = (block.height, block.parent_digest, block.state_root)
            if built not in encodings:
                encodings[built] = encode_block(block)
            _, size = self.state.ledger.append(block, encodings[built])
            self.charge(cm.hash_cost(1, size))


class ExecuteOrderValidatePipeline(PipelineBase):
    def __init__(self, cfg, spec, arrival: Arrival, seed: int, trace: bool = False):
        super().__init__(cfg, spec, arrival, seed, trace)
        self.build_peers(EovPeer, EovWorker)
        self.endorse_timeout = 200 * self.cm.net_latency_mean
        # txn id -> [first peer's reads, answers so far, endorse_timeout]
        self._endorsing: Dict[int, list] = {}
        # on the shared log, clients send to the block-forming orderer itself
        self.orderer = None
        if cfg.replication_approach is ReplicationApproach.SHARED_LOG:
            self.orderer = EovOrderer(self)
        self.attach_ordering(ValidateTask, log=self.orderer)
        self.preload()
        self.schedule_arrivals()

    def seal_block(self, batch) -> bytes:
        """Stamp each request's order time, now; returns the block payload."""
        for txn_id, _ in batch:
            self.records[txn_id].order_time = self.sim.now
        return encode_entries(batch)

    # -- the client side -----------------------------------------------------------

    def begin_txn(self, txn_id: int) -> None:
        for peer in self.peers:
            self.clients.send(peer.node_id, EndorseReq(txn_id))
        timeout = self.clients.set_timer(self.endorse_timeout, EndorseTimeout(txn_id))
        self._endorsing[txn_id] = [(), 0, timeout]

    def _end_endorsement(self, txn_id: int) -> None:
        """End ``txn_id``'s endorsement: out of the table, its timeout cancelled."""
        self.clients.cancel_timer(self._endorsing.pop(txn_id)[2])

    def client_message(self, msg) -> None:
        if isinstance(msg, EndorseResp):
            self._on_endorse_resp(msg)
        elif isinstance(msg, EndorseTimeout):
            del self._endorsing[msg.txn_id]
            self.settle(self.records[msg.txn_id], TxnOutcome.DROPPED)
        elif isinstance(msg, EovDone):
            self.txn_finished(self.records[msg.txn_id])
        elif isinstance(msg, Retry):
            self._send_for_ordering(msg.txn_id)

    def _send_for_ordering(self, txn_id: int) -> None:
        orderer = self.orderer
        if orderer is None:
            orderer = self.leader_or_retry(txn_id)
        if orderer is not None:
            reads = tuple(self.records[txn_id].read_versions.items())
            self.clients.send(orderer.node_id, OrderRequest(txn_id, reads))

    def _on_endorse_resp(self, msg: EndorseResp) -> None:
        """Every peer must answer with the same reads before the transaction is ordered."""
        endorsing = self._endorsing.get(msg.txn_id)
        if endorsing is None:
            return  # already settled or dropped
        first, answers, _ = endorsing
        if answers and msg.reads != first:
            # peers answered from different committed states
            self._end_endorsement(msg.txn_id)
            self.settle(self.records[msg.txn_id], TxnOutcome.ABORTED_INCONSISTENT_READ)
            return
        if answers + 1 < len(self.peers):
            endorsing[:2] = msg.reads, answers + 1
            return
        self._end_endorsement(msg.txn_id)
        record = self.records[msg.txn_id]
        record.executed_time = self.sim.now
        record.read_versions = dict(msg.reads)
        self._send_for_ordering(msg.txn_id)
