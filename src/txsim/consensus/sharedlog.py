"""External shared-log ordering service.

The log is trusted and non-Byzantine: one sequencer assigns dense sequence
numbers in arrival order and pushes entries to subscribers.  Its internal
replication shows up as a delivery delay, not as simulated replicas, and
sequencing an append costs no processing time.  Consumers never load the
sequencer, so append throughput is flat in the number of consumers.

``SharedLogService.append`` is the one sequence-and-fan-out step.  An
append request goes through it, and so does each block of EOV's orderer,
which runs a block former in front of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..simnet import Node
from .base import Component


@dataclass
class LogAppend:
    entry: bytes
    kind: str = field(default="slog:append", init=False)


@dataclass
class LogDeliver:
    seq: int
    entry: bytes
    kind: str = field(default="slog:deliver", init=False)


class SharedLogService(Node):
    def __init__(self, node_id, delivery_delay: int):
        super().__init__(node_id)
        self.delivery_delay = delivery_delay
        self.appended = 0  # entries sequenced so far; the last one's seq
        self.subscribers: List = []

    def subscribe(self, node_id) -> None:
        self.subscribers.append(node_id)

    def append(self, entry: bytes) -> None:
        """Sequence ``entry`` and push it to every subscriber."""
        self.appended += 1
        for sub in self.subscribers:
            self.send(sub, LogDeliver(self.appended, entry), extra_delay=self.delivery_delay)

    def on_message(self, msg) -> int:
        if isinstance(msg, LogAppend):
            self.append(msg.entry)
            return 0
        raise ValueError(f"shared log cannot handle {msg!r}")


class LogHandle(Component):
    """A subscriber's end of the log, with the consensus components' API.

    Delivered entries reach ``on_commit(seq, entry)``.  ``leader`` is a fixed
    subscriber that proposals are routed through, in place of an elected one.
    """

    prefix = "slog"

    def __init__(self, log_id, leader, on_commit):
        super().__init__()
        self.log_id = log_id
        self.leader = leader
        self.on_commit = on_commit

    def is_leader(self) -> bool:
        return self.node_id == self.leader

    def propose(self, payload: bytes) -> None:
        self.send(self.log_id, LogAppend(payload))

    def handle(self, msg) -> int:
        if not isinstance(msg, LogDeliver):
            raise ValueError(f"shared-log subscriber cannot handle {msg!r}")
        self.on_commit(msg.seq, msg.entry)
        return 0
