"""Replication approaches as protocol state machines over the event simulator."""

from .quorum import QuorumError, quorum_size, bft_f_for
from .base import Component, ProtocolHost, ReplicaState
from .raft import RaftComponent, RaftTiming
from .pbft import PbftComponent, PbftTiming
from .sharedlog import SharedLogService

__all__ = [
    "Component",
    "PbftComponent",
    "PbftTiming",
    "ProtocolHost",
    "QuorumError",
    "RaftComponent",
    "RaftTiming",
    "ReplicaState",
    "SharedLogService",
    "bft_f_for",
    "quorum_size",
]
