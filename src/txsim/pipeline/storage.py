"""Storage-based replication: a trusted transaction manager over replicated ops.

The transaction manager (a client-side coordinator, per the trust assumption
of this replication model) reads or latches one key per round trip at the
serving node, then replicates each write operation individually through the
configured approach: a consensus entry per operation, an append to the shared
log, or a hop-by-hop primary-backup chain.  Concurrency modes:

* optimistic: read freely, validate at commit (write-write conflicts first,
  then stale reads), first committer wins via an intent table;
* locking: per-key latches acquired in global key order (the first key is
  the transaction's primary record), conflicting transactions queue behind
  the holder, waits beyond the timeout abort as blocked.

Under a hot key the locking mode spends its time queued behind latch holders
whose writes must round-trip replication, which is why throughput collapses
far faster than the abort rate rises.  Coordination tables (latches,
intents, pending counts) live on the serving peer's protocol lane; state
application runs on each peer's worker lane.  Only the serving peer, which
holds a transaction's pending count, hears ``OpApplied`` and counts it down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..consensus.primarybackup import ChainAck, ChainOp
from ..consensus.sharedlog import SharedLogService
from ..core.encoding import Reader, Writer
from ..core.types import ConcurrencyMode, ReplicationApproach, TxnOutcome
from .base import Arrival, PeerNode, PipelineBase, Retry, WorkerNode
from .occ import occ_validate


def encode_op(txn_id: int, key: bytes, value: bytes) -> bytes:
    return Writer().u64(txn_id).bytes(key).bytes(value).getvalue()


def decode_op(payload: bytes):
    r = Reader(payload)
    op = r.u64(), r.bytes(), r.bytes()
    if not r.done():
        raise ValueError("trailing bytes after operation")
    return op


@dataclass
class DbRead:
    txn_id: int
    key: bytes
    kind: str = field(default="db:read", init=False)


@dataclass
class DbReadResp:
    txn_id: int
    key: bytes
    version: int
    kind: str = field(default="cl:read_resp", init=False)


@dataclass
class DbValidate:
    txn_id: int
    reads: tuple  # ((key, version), ...)
    write_keys: tuple
    kind: str = field(default="db:validate", init=False)


@dataclass
class DbLock:
    txn_id: int
    key: bytes
    kind: str = field(default="db:lock", init=False)


@dataclass
class DbLockGrant:
    txn_id: int
    key: bytes
    kind: str = field(default="cl:lock_grant", init=False)


@dataclass
class DbCancel:
    txn_id: int
    reply: bool = True  # timeout aborts want the decision back; releases do not
    kind: str = field(default="db:cancel", init=False)


@dataclass
class DbDecision:
    txn_id: int
    outcome: TxnOutcome
    kind: str = field(default="cl:decision", init=False)


@dataclass
class LockTimeout:
    txn_id: int
    kind: str = field(default="cl:lock_timeout", init=False)


@dataclass
class ApplyOpTask:
    payload: bytes
    kind: str = field(default="dbx:apply", init=False)


@dataclass
class OpApplied:
    txn_id: int
    kind: str = field(default="db:op_applied", init=False)


class StoragePeer(PeerNode):
    def __init__(self, node_id, pipeline):
        super().__init__(node_id, pipeline)
        self.register("db", self.handle_db)
        self.register("pb", self.handle_db)  # primary-backup chain traffic
        # serving-node coordination tables
        self.intents: Dict[bytes, int] = {}
        self.pending_writes: Dict[int, int] = {}
        self.lock_holder: Dict[bytes, int] = {}
        self.lock_queue: Dict[bytes, List[int]] = {}  # keys with waiters only
        self.held: Dict[int, List[bytes]] = {}
        # lock-timeout aborts, whose last DbLock the network may deliver
        # after their DbCancel
        self.cancelled: Set[int] = set()

    def handle_db(self, msg) -> int:
        cm = self.pipeline.cm
        if isinstance(msg, DbRead):
            version = self.state.version(msg.key)
            self.send("clients", DbReadResp(msg.txn_id, msg.key, version))
            return cm.exec_time_per_op
        if isinstance(msg, DbValidate):
            self.on_validate(msg)
            return cm.exec_time_per_op
        if isinstance(msg, DbLock):
            self.on_lock(msg)
            return 0
        if isinstance(msg, DbCancel):
            self.on_cancel(msg.txn_id, msg.reply)
            return 0
        if isinstance(msg, ChainOp):
            self.to_worker(ApplyOpTask(msg.payload))
            return 0
        if isinstance(msg, ChainAck):
            self.finish_write(msg.op_id)
            return 0
        if isinstance(msg, OpApplied):
            self.finish_write(msg.txn_id)
            return 0
        raise ValueError(f"unhandled db message {msg!r}")

    # -- validation and intents (optimistic mode) ----------------------------------

    def on_validate(self, msg: DbValidate) -> None:
        if not self.pipeline.locking:  # latched reads need no check
            outcome = occ_validate(dict(msg.reads), msg.write_keys, self.state, self.intents)
            if outcome is not TxnOutcome.COMMITTED:
                self.decide(msg.txn_id, outcome)
                return
        if not msg.write_keys:
            self.decide(msg.txn_id, TxnOutcome.COMMITTED)
            return
        for key in msg.write_keys:
            current = max(self.state.version(key), self.intents.get(key, 0))
            self.intents[key] = current + 1
        self.replicate_writes(msg.txn_id)

    def replicate_writes(self, txn_id: int) -> None:
        txn = self.pipeline.records[txn_id].txn
        self.pending_writes[txn_id] = len(txn.write_set)
        for key, value in txn.write_set:
            self.ordering.propose(encode_op(txn_id, key, value))

    # -- locking mode ----------------------------------------------------------------

    def on_lock(self, msg: DbLock) -> None:
        if msg.txn_id in self.cancelled:
            return  # nobody would ever release this latch
        if msg.key in self.lock_holder:
            self.lock_queue.setdefault(msg.key, []).append(msg.txn_id)
        else:
            self._grant(msg.key, msg.txn_id)

    def on_cancel(self, txn_id: int, reply: bool) -> None:
        if txn_id in self.pending_writes:
            return  # commit already replicating; too late to abort
        self.release_locks(txn_id)
        for key, queue in list(self.lock_queue.items()):
            if txn_id in queue:
                queue.remove(txn_id)
                if not queue:
                    del self.lock_queue[key]
        if reply:
            # a lock-timeout abort; a release (no reply) is sent only once
            # every key is latched, so no DbLock can follow it
            self.cancelled.add(txn_id)
            self.decide(txn_id, TxnOutcome.ABORTED_BLOCKED)

    def release_locks(self, txn_id: int) -> None:
        """Hand each key ``txn_id`` holds to its first waiter, or free it."""
        for key in self.held.pop(txn_id, []):
            queue = self.lock_queue.get(key)
            if queue is None:
                del self.lock_holder[key]
                continue
            self._grant(key, queue.pop(0))
            if not queue:
                del self.lock_queue[key]

    def _grant(self, key: bytes, txn_id: int) -> None:
        self.lock_holder[key] = txn_id
        self.held.setdefault(txn_id, []).append(key)
        self.send("clients", DbLockGrant(txn_id, key))

    # -- completion tracking ------------------------------------------------------------

    def finish_write(self, txn_id: int) -> None:
        left = self.pending_writes[txn_id] - 1
        if left:
            self.pending_writes[txn_id] = left
            return
        del self.pending_writes[txn_id]
        if self.pipeline.locking:
            self.release_locks(txn_id)
        self.decide(txn_id, TxnOutcome.COMMITTED)

    def decide(self, txn_id: int, outcome: TxnOutcome) -> None:
        """Stamp ``txn_id``'s order time, now, and send the client its decision."""
        self.pipeline.records[txn_id].order_time = self.now
        self.send("clients", DbDecision(txn_id, outcome))


class StorageWorker(WorkerNode):
    def __init__(self, peer):
        super().__init__(peer)
        self.register("dbx", self.handle)

    def handle(self, msg) -> int:
        if isinstance(msg, ApplyOpTask):
            txn_id, key, value = self.pipeline.decoded(msg.payload, decode_op)
            _, hops, hbytes = self.state.apply_batch([(key, value)])
            cm = self.pipeline.cm
            self.charge(cm.exec_time_per_op + cm.hash_cost(hops, hbytes))
            head = self.pipeline.peers[0].node_id
            successor = self.peer.node_id + 1  # peers are numbered 0..N-1 down the chain
            if not self.pipeline.chained:
                if txn_id in self.peer.pending_writes:  # this peer serves the transaction
                    self.local(self.peer.node_id, OpApplied(txn_id))
            elif successor < len(self.pipeline.peers):
                self.send(successor, ChainOp(txn_id, msg.payload))
            elif self.peer.node_id == head:  # a chain of one
                self.local(head, ChainAck(txn_id))
            else:  # the tail acknowledges the op to the head, which settles it
                self.send(head, ChainAck(txn_id))
        return 0


class StorageReplicatedPipeline(PipelineBase):
    def __init__(
        self,
        cfg,
        spec,
        arrival: Arrival,
        seed: int,
        lock_timeout: Optional[int] = None,
        trace: bool = False,
    ):
        super().__init__(cfg, spec, arrival, seed, trace)
        self.locking = cfg.concurrency_mode is ConcurrencyMode.CONCURRENT_LOCKING
        self.lock_timeout = lock_timeout or 40 * (2 * self.cm.net_latency_mean)
        self.build_peers(StoragePeer, StorageWorker)
        # a primary-backup op is applied down the chain and acknowledged by the tail
        self.chained = cfg.replication_approach is ReplicationApproach.PRIMARY_BACKUP
        self.attach_ordering(
            ApplyOpTask, log=SharedLogService("oplog", self.cm.net_latency_mean)
        )
        self.preload()
        self._acquiring: Dict[int, list] = {}  # txn id -> [keys, requested, lock timeout or None]
        self.schedule_arrivals()

    # -- the transaction manager ---------------------------------------------------

    def begin_txn(self, txn_id: int) -> None:
        txn = self.records[txn_id].txn
        if self.leader_or_retry(txn_id) is None:
            return
        if self.locking:
            timeout = self.clients.set_timer(self.lock_timeout, LockTimeout(txn_id))
            self._acquiring[txn_id] = [sorted(txn.keys_touched()), 0, timeout]
        else:
            self._acquiring[txn_id] = [txn.read_keys, 0, None]
        self._acquire_next(txn_id)

    def _acquire_next(self, txn_id: int) -> None:
        """Latch (locking) or read (optimistic) the next key; with all in, commit."""
        acquiring = self._acquiring[txn_id]
        keys, requested, timeout = acquiring
        if requested < len(keys):
            acquiring[1] = requested + 1
            request = DbLock if self.locking else DbRead
            self.clients.send(self.leader().node_id, request(txn_id, keys[requested]))
            return
        del self._acquiring[txn_id]
        if timeout is not None:
            self.clients.cancel_timer(timeout)
        record = self.records[txn_id]
        record.executed_time = self.sim.now
        txn = record.txn
        write_keys = tuple(k for k, _ in txn.write_set)
        if self.locking and (txn.app_abort or not write_keys):
            self.clients.send(self.leader().node_id, DbCancel(txn_id, reply=False))
            outcome = TxnOutcome.ABORTED_APPLICATION if txn.app_abort else TxnOutcome.COMMITTED
            self.settle(record, outcome)
        elif txn.app_abort:
            self.settle(record, TxnOutcome.ABORTED_APPLICATION)
        else:
            # reads are current while latched; no version check needed
            reads = () if self.locking else tuple(sorted(record.read_versions.items()))
            self.clients.send(self.leader().node_id, DbValidate(txn_id, reads, write_keys))

    def client_message(self, msg) -> None:
        if isinstance(msg, Retry):
            self.begin_txn(msg.txn_id)
        elif isinstance(msg, (DbReadResp, DbLockGrant)):
            if msg.txn_id not in self._acquiring:
                return  # a grant that raced its transaction's lock timeout
            if isinstance(msg, DbReadResp):
                self.records[msg.txn_id].read_versions[msg.key] = msg.version
            self._acquire_next(msg.txn_id)
        elif isinstance(msg, LockTimeout):
            del self._acquiring[msg.txn_id]
            self.clients.send(self.leader().node_id, DbCancel(msg.txn_id))
        elif isinstance(msg, DbDecision):
            self.settle(self.records[msg.txn_id], msg.outcome)
