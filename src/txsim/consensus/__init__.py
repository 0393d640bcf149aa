"""Replication approaches as protocol state machines over the event simulator."""

from .quorum import QuorumSpec, QuorumError, quorum_size, bft_f_for
from .base import Component, ProtocolHost, ReplicaState, messages_per_commit
from .raft import RaftComponent, RaftTiming
from .pbft import PbftComponent, PbftTiming
from .sharedlog import SharedLogService

__all__ = [
    "Component",
    "PbftComponent",
    "PbftTiming",
    "ProtocolHost",
    "QuorumError",
    "QuorumSpec",
    "RaftComponent",
    "RaftTiming",
    "ReplicaState",
    "SharedLogService",
    "bft_f_for",
    "messages_per_commit",
    "quorum_size",
]
