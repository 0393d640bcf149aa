"""External shared-log ordering service.

The log is trusted and non-Byzantine: one sequencer assigns dense sequence
numbers in arrival order and pushes entries to subscribers.  Its internal
replication shows up as a per-append processing cost plus an ack delay,
not as simulated replicas.  Consumers never load the sequencer, so append
throughput is flat in the number of consumers.

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
    reply_to: object
    kind: str = field(default="slog:append", init=False)


@dataclass
class LogAppendAck:
    seq: int
    kind: str = field(default="slog:append_ack", init=False)


@dataclass
class LogRead:
    from_seq: int
    reply_to: object
    kind: str = field(default="slog:read", init=False)


@dataclass
class LogEntries:
    from_seq: int
    entries: tuple
    kind: str = field(default="slog:entries", init=False)


@dataclass
class LogDeliver:
    seq: int
    entry: bytes
    kind: str = field(default="slog:deliver", init=False)


class SharedLogService(Node):
    def __init__(self, node_id="shared_log", append_cost: int = 0, ack_delay: int = 0):
        super().__init__(node_id)
        self.append_cost = append_cost
        self.ack_delay = ack_delay
        self.entries: List[bytes] = []
        self.subscribers: List = []

    def subscribe(self, node_id) -> None:
        self.subscribers.append(node_id)

    def append(self, entry: bytes) -> int:
        """Sequence ``entry`` and push it to every subscriber; returns its seq."""
        self.entries.append(entry)
        seq = len(self.entries)
        for sub in self.subscribers:
            self.send(sub, LogDeliver(seq, entry), extra_delay=self.ack_delay)
        return seq

    def on_message(self, msg) -> int:
        if isinstance(msg, LogAppend):
            seq = self.append(msg.entry)
            if msg.reply_to is not None:
                self.send(msg.reply_to, LogAppendAck(seq), extra_delay=self.ack_delay)
            return self.append_cost
        if isinstance(msg, LogRead):
            slice_ = tuple(self.entries[msg.from_seq - 1 :])
            self.send(msg.reply_to, LogEntries(msg.from_seq, slice_))
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
        self.send(self.log_id, LogAppend(payload, None))

    def handle(self, msg) -> int:
        if not isinstance(msg, LogDeliver):
            raise ValueError(f"shared-log subscriber cannot handle {msg!r}")
        self.on_commit(msg.seq, msg.entry)
        return 0
