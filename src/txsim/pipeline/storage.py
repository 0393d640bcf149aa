"""Storage-based replication: a trusted transaction manager over replicated ops.

The transaction manager (a client-side coordinator, per the trust assumption
of this replication model) reads at the serving node, then replicates each
write operation individually through the configured approach: a consensus
entry per operation, an append to the shared log, or a hop-by-hop
primary-backup chain.  Concurrency modes:

* serial: one transaction at a time, end to end;
* optimistic: read freely, validate at commit (write-write conflicts first,
  then stale reads), first committer wins via an intent table;
* locking: per-key latches acquired in global key order (the first key is
  the transaction's primary record), conflicting transactions queue behind
  the holder, waits beyond the timeout abort as blocked.

Under a hot key the locking mode spends its time queued behind latch holders
whose writes must round-trip replication, which is why throughput collapses
far faster than the abort rate rises.  Coordination tables (latches,
intents, pending counts) live on the serving peer's protocol lane; state
application runs on each peer's worker lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    return r.u64(), r.bytes(), r.bytes()


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
        self.lock_queue: Dict[bytes, List[int]] = {}
        self.held: Dict[int, List[bytes]] = {}

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
        mode = self.pipeline.cc
        reads = dict(msg.reads)
        if mode is ConcurrencyMode.CONCURRENT_OCC:
            outcome = occ_validate(reads, msg.write_keys, self.state, self.intents)
        else:
            outcome = TxnOutcome.COMMITTED
        if outcome is not TxnOutcome.COMMITTED:
            self.send("clients", DbDecision(msg.txn_id, outcome))
            return
        if not msg.write_keys:
            self.send("clients", DbDecision(msg.txn_id, TxnOutcome.COMMITTED))
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
        holder = self.lock_holder.get(msg.key)
        if holder is None:
            self.lock_holder[msg.key] = msg.txn_id
            self.held.setdefault(msg.txn_id, []).append(msg.key)
            self.send("clients", DbLockGrant(msg.txn_id, msg.key))
        else:
            self.lock_queue.setdefault(msg.key, []).append(msg.txn_id)

    def on_cancel(self, txn_id: int, reply: bool) -> None:
        if txn_id in self.pending_writes:
            return  # commit already replicating; too late to abort
        for key in self.held.pop(txn_id, []):
            self._release_key(key)
        for queue in self.lock_queue.values():
            if txn_id in queue:
                queue.remove(txn_id)
        if reply:
            self.send("clients", DbDecision(txn_id, TxnOutcome.ABORTED_BLOCKED))

    def _release_key(self, key: bytes) -> None:
        if self.lock_holder.get(key) is None:
            return
        del self.lock_holder[key]
        queue = self.lock_queue.get(key, [])
        if queue:
            waiter = queue.pop(0)
            self.lock_holder[key] = waiter
            self.held.setdefault(waiter, []).append(key)
            self.send("clients", DbLockGrant(waiter, key))

    def release_locks(self, txn_id: int) -> None:
        for key in self.held.pop(txn_id, []):
            self._release_key(key)

    # -- completion tracking ------------------------------------------------------------

    def finish_write(self, txn_id: int) -> None:
        left = self.pending_writes.get(txn_id)
        if left is None:
            return
        left -= 1
        if left > 0:
            self.pending_writes[txn_id] = left
            return
        del self.pending_writes[txn_id]
        if self.pipeline.cc is ConcurrencyMode.CONCURRENT_LOCKING:
            self.release_locks(txn_id)
        self.send("clients", DbDecision(txn_id, TxnOutcome.COMMITTED))


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
        cc: Optional[ConcurrencyMode] = None,
        lock_timeout: Optional[int] = None,
        trace: bool = False,
    ):
        super().__init__(cfg, spec, arrival, seed, trace)
        self.cc = cc or cfg.concurrency_mode
        if self.cc in (ConcurrencyMode.ORDER_EXECUTE, ConcurrencyMode.EXECUTE_ORDER_VALIDATE):
            raise ValueError(f"{self.cc.value} is not a storage-replicated mode")
        self.lock_timeout = lock_timeout or 40 * (2 * self.cm.net_latency_mean)
        self.build_peers(StoragePeer, StorageWorker)
        # a primary-backup op is applied down the chain and acknowledged by the tail
        self.chained = cfg.replication_approach is ReplicationApproach.PRIMARY_BACKUP
        self.attach_ordering(
            lambda peer: lambda idx, payload, p=peer: p.to_worker(ApplyOpTask(payload)),
            log=SharedLogService("oplog", ack_delay=self.cm.net_latency_mean),
        )
        self.preload()
        self._fsm: Dict[int, dict] = {}
        self._serial_queue: List[int] = []
        self._serial_active: Optional[int] = None
        self.schedule_arrivals()

    # -- the transaction manager ---------------------------------------------------

    def begin_txn(self, txn_id: int) -> None:
        record = self.records[txn_id]
        if record.submit_time is None:
            record.submit_time = self.sim.now
        if self.cc is ConcurrencyMode.SERIAL:
            self._serial_queue.append(txn_id)
            self._pump_serial()
        else:
            self._start_txn(txn_id)

    def _pump_serial(self) -> None:
        if self._serial_active is not None or not self._serial_queue:
            return
        self._serial_active = self._serial_queue.pop(0)
        self._start_txn(self._serial_active)

    def _start_txn(self, txn_id: int) -> None:
        record = self.records[txn_id]
        txn = record.txn
        if self.leader_or_retry(txn_id) is None:
            return
        if self.cc is ConcurrencyMode.CONCURRENT_LOCKING:
            keys = sorted(txn.keys_touched())
            self._fsm[txn_id] = {"phase": "lock", "keys": keys, "next": 0, "granted": 0}
            self.clients.set_timer(self.lock_timeout, LockTimeout(txn_id))
            self._request_next_lock(txn_id)
        else:
            keys = [k for k, _ in txn.read_set]
            self._fsm[txn_id] = {"phase": "read", "keys": keys, "next": 0}
            self._request_next_read(txn_id)

    def _request_next_read(self, txn_id: int) -> None:
        state = self._fsm[txn_id]
        record = self.records[txn_id]
        keys = state["keys"]
        if state["next"] < len(keys):
            key = keys[state["next"]]
            state["next"] += 1
            self.clients.send(self.leader().node_id, DbRead(txn_id, key))
            return
        record.execute_us = self.sim.now - record.submit_time
        state["phase"] = "commit"
        txn = record.txn
        if txn.app_abort:
            self._settle(txn_id, TxnOutcome.ABORTED_APPLICATION)
            return
        reads = tuple(sorted(record.read_versions.items()))
        write_keys = tuple(k for k, _ in txn.write_set)
        self.clients.send(self.leader().node_id, DbValidate(txn_id, reads, write_keys))

    def _request_next_lock(self, txn_id: int) -> None:
        state = self._fsm[txn_id]
        keys = state["keys"]
        if state["next"] < len(keys):
            key = keys[state["next"]]
            state["next"] += 1
            self.clients.send(self.leader().node_id, DbLock(txn_id, key))

    def client_message(self, msg) -> None:
        if isinstance(msg, Retry):
            self._start_txn(msg.txn_id)
        elif isinstance(msg, DbReadResp):
            state = self._fsm.get(msg.txn_id)
            if state is None or state["phase"] != "read":
                return
            self.records[msg.txn_id].read_versions[msg.key] = msg.version
            self._request_next_read(msg.txn_id)
        elif isinstance(msg, DbLockGrant):
            self._on_lock_grant(msg)
        elif isinstance(msg, LockTimeout):
            state = self._fsm.get(msg.txn_id)
            if state is not None and state["phase"] == "lock":
                state["phase"] = "cancelling"
                self.clients.send(self.leader().node_id, DbCancel(msg.txn_id))
        elif isinstance(msg, DbDecision):
            self._settle(msg.txn_id, msg.outcome)

    def _on_lock_grant(self, msg: DbLockGrant) -> None:
        state = self._fsm.get(msg.txn_id)
        if state is None or state["phase"] != "lock":
            return
        state["granted"] += 1
        record = self.records[msg.txn_id]
        if state["granted"] < len(state["keys"]):
            self._request_next_lock(msg.txn_id)
            return
        record.execute_us = self.sim.now - record.submit_time
        state["phase"] = "commit"
        txn = record.txn
        if txn.app_abort:
            self.clients.send(self.leader().node_id, DbCancel(msg.txn_id, reply=False))
            self._settle(msg.txn_id, TxnOutcome.ABORTED_APPLICATION)
        elif txn.write_set:
            # reads are current while latched; no version check needed
            self.clients.send(
                self.leader().node_id,
                DbValidate(msg.txn_id, (), tuple(k for k, _ in txn.write_set)),
            )
        else:
            self.clients.send(self.leader().node_id, DbCancel(msg.txn_id, reply=False))
            self._settle(msg.txn_id, TxnOutcome.COMMITTED)

    def _settle(self, txn_id: int, outcome: TxnOutcome) -> None:
        record = self.records[txn_id]
        if record.outcome is not TxnOutcome.PENDING:
            return
        self._fsm.pop(txn_id, None)
        record.order_us = max(0, self.sim.now - record.submit_time - record.execute_us)
        record.validate_us = self.cm.exec_time_per_op
        record.settle(outcome, self.sim.now)
        self.txn_finished(record)
        if self.cc is ConcurrencyMode.SERIAL:
            self._serial_active = None
            self._pump_serial()
