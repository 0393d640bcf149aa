"""Primary-backup replication as a chain.

The head applies an operation, forwards it down the chain, and the tail
acknowledges it: N-1 replica-to-replica hops per operation.  There is no
failover; a crashed link leaves the operation unacknowledged forever, which
is exactly what distinguishes this approach from consensus.  The storage
pipeline's worker lane (``StorageWorker.handle``) does the forwarding; this
module holds the chain's messages and the head's ordering handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ChainOp:
    op_id: int
    payload: bytes
    kind: str = field(default="pb:op", init=False)


@dataclass
class ChainAck:
    op_id: int
    kind: str = field(default="pb:ack", init=False)


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
