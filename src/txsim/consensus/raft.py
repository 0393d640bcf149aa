"""Leader-based CFT consensus in the style of Raft.

Entries are opaque byte strings.  Safety comes from the usual rules: voters
reject candidates with stale logs, the leader only advances the commit index
on entries from its own term, and followers truncate conflicting suffixes
(never the committed prefix).  Elections use randomized timeouts; a fresh
leader appends a no-op so earlier-term entries commit promptly.

Each replica drops the payload of every applied entry up to ``held_by_all``,
the leader's lowest follower match index, and keeps its term and digest.
Every replica holds those entries for good, so none needs the payload again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.encoding import digest
from ..core.rng import int_drawer
from .base import Component, ReplicaState
from .quorum import quorum_size
from ..core.types import FailureModel

NOOP_DIGEST = digest(b"raft-noop")


@dataclass
class VoteRequest:
    term: int
    candidate: object
    last_log_index: int
    last_log_term: int
    kind: str = field(default="raft:vote_req", init=False)


@dataclass
class VoteReply:
    term: int
    voter: object
    granted: bool
    kind: str = field(default="raft:vote", init=False)


@dataclass
class AppendEntries:
    term: int
    leader: object
    prev_index: int
    prev_term: int
    entries: list  # [(term, digest, payload | None)]
    leader_commit: int
    held_by_all: int
    kind: str = field(default="raft:append", init=False)


@dataclass
class AppendReply:
    term: int
    follower: object
    success: bool
    match_index: int
    kind: str = field(default="raft:append_ack", init=False)


@dataclass
class ElectionTimeout:
    kind: str = field(default="raft:timer", init=False)


@dataclass
class HeartbeatTick:
    term: int
    kind: str = field(default="raft:hb_timer", init=False)


@dataclass(frozen=True)
class RaftTiming:
    election_min: int
    election_max: int
    heartbeat_interval: int

    @classmethod
    def from_mean_latency(cls, mean: int) -> "RaftTiming":
        # randomized timeouts well above one round trip keep elections rare
        # and collisions unlikely
        return cls(election_min=10 * mean, election_max=20 * mean, heartbeat_interval=3 * mean)


class RaftComponent(Component):
    prefix = "raft"

    def __init__(self, replicas: List, timing: RaftTiming, rng, on_commit):
        super().__init__()
        self.replicas = list(replicas)
        self.timing = timing
        self.quorum = quorum_size(len(self.replicas), FailureModel.CFT)
        self._election_delay = int_drawer(rng, timing.election_min, timing.election_max)
        self.on_commit = on_commit

        self.term = 0
        self.voted_for = None
        self.role = "follower"
        self.log: List[Tuple[int, bytes, Optional[bytes]]] = []
        self.commit_index = 0
        self._applied = 0
        self.held_by_all = 0
        self.released = 0  # entries up to here hold no payload
        self._votes = set()
        self._next = {}
        self._match = {}
        self._timer = None  # the armed election timer's handle
        self._heartbeat = None  # the leader's armed heartbeat tick

    def peers(self):
        return [r for r in self.replicas if r != self.node_id]

    def start(self) -> None:
        """Arm the first election timer; call once after attaching."""
        self._reset_election_timer()

    def start_bootstrapped(self, leader_id) -> None:
        """Start with leadership already established (steady-state cluster).

        The designated node assumes term 1 leadership and the rest follow;
        normal election timers still take over if that leader later fails.
        """
        self.term = 1
        if self.node_id == leader_id:
            self.role = "leader"
            self._next = {p: len(self.log) + 1 for p in self.peers()}
            self._match = {p: 0 for p in self.peers()}
            self._arm_heartbeat()
        else:
            self.role = "follower"
            self._reset_election_timer()

    # -- public API ----------------------------------------------------------

    def is_leader(self) -> bool:
        return self.role == "leader"

    def propose(self, payload: bytes) -> bool:
        """Append an entry at the leader; False tells the caller to re-route."""
        if not self.is_leader():
            return False
        self.log.append((self.term, digest(payload), payload))
        self._replicate_all()
        self._maybe_advance_commit()
        return True

    def replica_state(self) -> ReplicaState:
        entries = tuple((i + 1, t, d) for i, (t, d, _) in enumerate(self.log))
        return ReplicaState(self.node_id, self.term, self.role, entries, self.commit_index)

    # -- message handling ------------------------------------------------------

    def handle(self, msg) -> int:
        # dispatch on the exact class; heartbeats and their replies come first
        cls = msg.__class__
        if cls is AppendEntries:
            if msg.term > self.term:
                self._step_down(msg.term)
            self._on_append(msg)
        elif cls is AppendReply:
            if msg.term > self.term:
                self._step_down(msg.term)
            self._on_append_reply(msg)
        elif cls is ElectionTimeout:
            if self.role != "leader":
                self._start_election()
        elif cls is HeartbeatTick:
            if self.role == "leader" and msg.term == self.term:
                self._replicate_all()
                self._arm_heartbeat()
        elif cls is VoteRequest or cls is VoteReply:
            if msg.term > self.term:
                self._step_down(msg.term)
            if cls is VoteRequest:
                self._on_vote_request(msg)
            else:
                self._on_vote_reply(msg)
        return 0

    # -- elections ---------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        # the timer this one replaces is cancelled, so it is never delivered
        if self._timer is not None:
            self.cancel_timer(self._timer)
        self._timer = self.set_timer(self._election_delay(), ElectionTimeout())

    def _step_down(self, term: int) -> None:
        self.term = term
        self.role = "follower"
        self.voted_for = None
        self._votes = set()

    def _start_election(self) -> None:
        self.term += 1
        self.role = "candidate"
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        last_index = len(self.log)
        last_term = self.log[-1][0] if self.log else 0
        req = VoteRequest(self.term, self.node_id, last_index, last_term)
        for peer in self.peers():
            self.send(peer, req)
        self._reset_election_timer()
        self._maybe_win()

    def _log_up_to_date(self, last_index: int, last_term: int) -> bool:
        my_term = self.log[-1][0] if self.log else 0
        return (last_term, last_index) >= (my_term, len(self.log))

    def _on_vote_request(self, msg: VoteRequest) -> None:
        granted = (
            msg.term == self.term
            and self.voted_for in (None, msg.candidate)
            and self._log_up_to_date(msg.last_log_index, msg.last_log_term)
        )
        if granted:
            self.voted_for = msg.candidate
            self._reset_election_timer()
        self.send(msg.candidate, VoteReply(self.term, self.node_id, granted))

    def _on_vote_reply(self, msg: VoteReply) -> None:
        if self.role != "candidate" or msg.term != self.term or not msg.granted:
            return
        self._votes.add(msg.voter)
        self._maybe_win()

    def _maybe_win(self) -> None:
        if self.role == "candidate" and len(self._votes) >= self.quorum:
            self.role = "leader"
            self._next = {p: len(self.log) + 1 for p in self.peers()}
            self._match = {p: 0 for p in self.peers()}
            # a no-op from this term lets earlier-term entries commit
            self.log.append((self.term, NOOP_DIGEST, None))
            self._replicate_all()
            self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        self._heartbeat = self.set_timer(self.timing.heartbeat_interval, HeartbeatTick(self.term))

    def on_heal(self) -> None:
        """Restart as a follower: the election timer is armed afresh, no heartbeat is left."""
        if self._heartbeat is not None:
            self.cancel_timer(self._heartbeat)
        self.role = "follower"
        self._reset_election_timer()

    # -- log replication -------------------------------------------------------

    def _replicate_all(self) -> None:
        for peer in self.peers():
            self._replicate_to(peer)

    def _replicate_to(self, peer) -> None:
        next_idx = self._next[peer]
        prev_index = next_idx - 1
        prev_term = self.log[prev_index - 1][0] if prev_index >= 1 else 0
        entries = self.log[next_idx - 1 :]
        commit, held = self.commit_index, self.held_by_all
        msg = AppendEntries(self.term, self.node_id, prev_index, prev_term, entries, commit, held)
        self.send(peer, msg)

    def _on_append(self, msg: AppendEntries) -> None:
        if msg.term < self.term:
            self.send(msg.leader, AppendReply(self.term, self.node_id, False, 0))
            return
        self.role = "follower"
        self._reset_election_timer()

        ok = msg.prev_index == 0 or (
            msg.prev_index <= len(self.log) and self.log[msg.prev_index - 1][0] == msg.prev_term
        )
        if not ok:
            self.send(msg.leader, AppendReply(self.term, self.node_id, False, 0))
            return
        for offset, entry in enumerate(msg.entries):
            pos = msg.prev_index + offset + 1
            if pos <= len(self.log):
                if self.log[pos - 1][0] == entry[0]:
                    continue
                assert pos > self.commit_index, "conflict below the committed prefix"
                del self.log[pos - 1 :]
            assert entry[2] is not None or entry[1] == NOOP_DIGEST, "a released entry was sent"
            self.log.append(entry)
        match = msg.prev_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, match)
            self._apply_committed()
        self._release(msg.held_by_all)
        self.send(msg.leader, AppendReply(self.term, self.node_id, True, match))

    def _on_append_reply(self, msg: AppendReply) -> None:
        if self.role != "leader" or msg.term != self.term:
            return
        if not msg.success:
            self._next[msg.follower] = max(1, self._next[msg.follower] - 1)
            self._replicate_to(msg.follower)
            return
        follower = msg.follower
        self._next[follower] = max(self._next[follower], msg.match_index + 1)
        # the commit index and the watermark move only when a follower's match index grows
        if msg.match_index > self._match[follower]:
            self._match[follower] = msg.match_index
            self._maybe_advance_commit()
            self._release(min(self._match.values()))

    def _maybe_advance_commit(self) -> None:
        if self.role != "leader":
            return
        matches = sorted([len(self.log)] + list(self._match.values()), reverse=True)
        candidate = matches[self.quorum - 1]
        if candidate > self.commit_index and self.log[candidate - 1][0] == self.term:
            self.commit_index = candidate
            self._apply_committed()

    def _apply_committed(self) -> None:
        while self._applied < self.commit_index:
            self._applied += 1
            payload = self.log[self._applied - 1][2]
            if payload is not None:
                self.on_commit(self._applied, payload)

    def _release(self, held_by_all: int) -> None:
        """Keep the watermark and drop the payloads of applied entries up to it."""
        self.held_by_all = held_by_all
        log, upto = self.log, min(held_by_all, self._applied)
        while self.released < upto:
            term, entry_digest, _ = log[self.released]
            log[self.released] = (term, entry_digest, None)
            self.released += 1
