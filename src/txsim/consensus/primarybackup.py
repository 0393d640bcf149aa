"""Primary-backup replication as a chain.

The head applies an operation, forwards it down the chain, and the tail
acknowledges to the client: N-1 replica-to-replica hops per operation.
There is no failover; a crashed link leaves the operation unacknowledged
forever, which is exactly what distinguishes this approach from consensus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..simnet import Node


@dataclass
class ChainOp:
    op_id: int
    payload: bytes
    reply_to: object
    kind: str = field(default="pb:op", init=False)


@dataclass
class ChainAck:
    op_id: int
    kind: str = field(default="pb:ack", init=False)


class ChainReplica(Node):
    def __init__(self, node_id, successor, apply_fn: Optional[Callable] = None, apply_cost: int = 0):
        super().__init__(node_id)
        self.successor = successor  # next replica, or None at the tail
        self.apply_fn = apply_fn
        self.apply_cost = apply_cost
        self.applied: List[tuple] = []

    def on_message(self, msg) -> int:
        if not isinstance(msg, ChainOp):
            raise ValueError(f"chain replica cannot handle {msg!r}")
        self.applied.append((msg.op_id, msg.payload))
        if self.apply_fn is not None:
            self.apply_fn(msg.op_id, msg.payload)
        if self.successor is not None:
            self.send(self.successor, msg)
        elif msg.reply_to is not None:
            self.send(msg.reply_to, ChainAck(msg.op_id))
        return self.apply_cost


def chain_cluster(sim, node_ids, apply_fn=None, apply_cost: int = 0):
    """Wire a chain of replicas into the sim; returns them head first."""
    replicas = []
    for i, node_id in enumerate(node_ids):
        successor = node_ids[i + 1] if i + 1 < len(node_ids) else None
        replicas.append(sim.add_node(ChainReplica(node_id, successor, apply_fn, apply_cost)))
    return replicas


class ChainHandle:
    """A chain replica's ordering handle, with the consensus components' API.

    Only the head proposes, and it applies a proposal first; each replica
    forwards an applied operation to its successor.
    """

    def __init__(self, node_id, head, on_commit):
        self.node_id = node_id
        self.head = head
        self.on_commit = on_commit
        self.proposed = 0

    def is_leader(self) -> bool:
        return self.node_id == self.head

    def propose(self, payload: bytes) -> None:
        self.proposed += 1
        self.on_commit(self.proposed, payload)
