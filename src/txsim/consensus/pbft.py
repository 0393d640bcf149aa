"""Three-phase BFT consensus in the style of PBFT.

Pre-prepare / prepare / commit with a round-robin proposer per view.  The
quorum is n - floor((n-1)/3), i.e. 2f+1 when n = 3f+1.  Clients broadcast
requests to every replica: the primary proposes them, backups arm a progress
timer and force a view change if execution stalls.  View changes carry
prepared certificates (with payloads) so a new primary re-proposes anything
that might have committed; gaps are filled with no-ops.

Byzantine behavior is restricted to a menu: a silent node sends nothing (the
network layer enforces that), and an equivocating primary sends conflicting
pre-prepares to disjoint peer subsets plus commit votes for both digests.
Certificates are taken at face value, which models signature-checked
messages: the menu contains no forgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.encoding import digest
from .base import Component, ReplicaState
from .quorum import bft_f_for

NOOP_PAYLOAD = b"pbft-noop"


@dataclass
class Request:
    payload: bytes
    kind: str = field(default="pbft:request", init=False)


@dataclass
class PrePrepare:
    view: int
    seq: int
    payload: bytes
    kind: str = field(default="pbft:pre_prepare", init=False)


@dataclass
class Prepare:
    view: int
    seq: int
    digest: bytes
    sender: object
    kind: str = field(default="pbft:prepare", init=False)


@dataclass
class CommitMsg:
    view: int
    seq: int
    digest: bytes
    sender: object
    kind: str = field(default="pbft:commit", init=False)


@dataclass
class ViewChange:
    new_view: int
    sender: object
    certs: dict  # seq -> (view, digest, payload)
    exec_cursor: int = 0  # the sender's executed watermark (checkpoint stand-in)
    kind: str = field(default="pbft:view_change", init=False)


@dataclass
class NewView:
    view: int
    sender: object
    vc_senders: tuple
    preprepares: tuple  # ((seq, payload), ...)
    kind: str = field(default="pbft:new_view", init=False)


@dataclass
class ProgressTimer:
    token: int
    kind: str = field(default="pbft:timer", init=False)


@dataclass(frozen=True)
class PbftTiming:
    view_timeout: int

    @classmethod
    def from_mean_latency(cls, mean: int) -> "PbftTiming":
        return cls(view_timeout=15 * mean)


class PbftComponent(Component):
    prefix = "pbft"

    def __init__(
        self,
        replicas: List,
        timing: PbftTiming,
        on_commit=None,
        msg_cost: int = 0,
        equivocator: bool = False,
    ):
        super().__init__()
        self.replicas = list(replicas)
        self.n = len(self.replicas)
        self.quorum = self.n - bft_f_for(self.n)
        self._others: tuple = ()  # every replica but this one, set on attach
        self.timing = timing
        self.on_commit = on_commit
        self.msg_cost = msg_cost
        self.equivocator = equivocator

        self.view = 0
        self.next_seq = 1
        self.accepted: Dict[int, tuple] = {}  # seq -> (view, digest)
        self._top_accepted = 0  # the highest key of ``accepted``, 0 while it is empty
        self.payloads: Dict[bytes, bytes] = {}
        self.prep_votes: Dict[tuple, set] = {}
        self.commit_votes: Dict[tuple, set] = {}
        self.sent_commit: set = set()
        self.prepared_cert: Dict[int, tuple] = {}  # seq -> (view, digest)
        self.committed: Dict[int, bytes] = {}
        self.exec_cursor = 0
        self.pending: Dict[bytes, bytes] = {}  # request digest -> payload
        self.executed_requests: set = set()
        self.proposed_requests: set = set()
        self.vc_msgs: Dict[int, dict] = {}
        self._new_view_sent: set = set()
        self._timer_token = 0
        self._timer_armed = False

    # -- structure -------------------------------------------------------------

    def attach(self, host) -> "PbftComponent":
        super().attach(host)
        self._others = tuple(r for r in self.replicas if r != self.node_id)
        return self

    def primary_of(self, view: int):
        return self.replicas[view % self.n]

    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.node_id

    def others(self) -> tuple:
        return self._others

    def is_leader(self) -> bool:
        return self.is_primary()

    def propose(self, payload: bytes) -> bool:
        """Direct proposal path for drivers that route to the primary themselves."""
        if not self.is_primary():
            return False
        seq = self.next_seq
        self.next_seq += 1
        self._accept(self.view, seq, payload)
        for peer in self.others():
            self.send(peer, PrePrepare(self.view, seq, payload))
        return True

    def replica_state(self) -> ReplicaState:
        entries = tuple(
            (s, self.view, self.committed[s]) for s in sorted(self.committed) if s <= self.exec_cursor
        )
        role = "primary" if self.is_primary() else "backup"
        return ReplicaState(self.node_id, self.view, role, entries, self.exec_cursor)

    # -- dispatch ----------------------------------------------------------------

    def handle(self, msg) -> int:
        if isinstance(msg, Request):
            self._on_request(msg)
        elif isinstance(msg, PrePrepare):
            self._on_pre_prepare(msg)
        elif isinstance(msg, Prepare):
            self._record_vote(self.prep_votes, (msg.view, msg.seq, msg.digest), msg.sender)
            self._check_prepared(msg.view, msg.seq)
        elif isinstance(msg, CommitMsg):
            self._record_vote(self.commit_votes, (msg.view, msg.seq, msg.digest), msg.sender)
            self._check_committed(msg.view, msg.seq)
        elif isinstance(msg, ViewChange):
            self._on_view_change(msg)
        elif isinstance(msg, NewView):
            self._on_new_view(msg)
        elif isinstance(msg, ProgressTimer):
            self._on_timer(msg)
            return 0
        return self.msg_cost

    # -- client requests ---------------------------------------------------------

    def _on_request(self, msg: Request) -> None:
        d = digest(msg.payload)
        if d in self.executed_requests:
            return
        self.pending[d] = msg.payload
        if self.is_primary():
            self._propose_pending()
        self._arm_timer()

    def _propose_pending(self) -> None:
        for d, payload in list(self.pending.items()):
            if d in self.proposed_requests or d in self.executed_requests:
                continue
            self.proposed_requests.add(d)
            seq = self.next_seq
            self.next_seq += 1
            if self.equivocator:
                self._propose_conflicting(seq, payload)
            else:
                self._accept(self.view, seq, payload)
                for peer in self.others():
                    self.send(peer, PrePrepare(self.view, seq, payload))

    def _propose_conflicting(self, seq: int, payload: bytes) -> None:
        """Equivocate: disjoint peer subsets see different payloads at one seq."""
        alt = payload + b"/equivocated"
        others = self.others()
        k = 1 + (seq % (len(others) - 1)) if len(others) > 1 else 1
        group_a, group_b = others[:k], others[k:]
        for peer in group_a:
            self.send(peer, PrePrepare(self.view, seq, payload))
        for peer in group_b:
            self.send(peer, PrePrepare(self.view, seq, alt))
        # commit votes for both digests, the worst the menu allows
        for p in (payload, alt):
            vote = CommitMsg(self.view, seq, digest(p), self.node_id)
            for peer in others:
                self.send(peer, vote)

    # -- normal three-phase flow ---------------------------------------------------

    def _record_vote(self, table: Dict[tuple, set], key: tuple, sender) -> None:
        table.setdefault(key, set()).add(sender)

    def _accept(self, view: int, seq: int, payload: bytes) -> None:
        if seq <= self.exec_cursor or seq in self.committed:
            return  # never re-decide a settled sequence
        d = digest(payload)
        prev = self.accepted.get(seq)
        if prev is not None and prev[0] >= view:
            return  # first pre-prepare per (view, seq) wins
        self.accepted[seq] = (view, d)
        if seq > self._top_accepted:
            self._top_accepted = seq
        self.payloads[d] = payload
        self._record_vote(self.prep_votes, (view, seq, d), self.primary_of(view))
        self._record_vote(self.prep_votes, (view, seq, d), self.node_id)
        if self.node_id != self.primary_of(view):
            for peer in self.others():
                self.send(peer, Prepare(view, seq, d, self.node_id))
        if view == self.view and self._timer_armed:
            self._disarm_timer()  # a live primary is working; restart the window
        self._arm_timer()
        self._check_prepared(view, seq)

    def _on_pre_prepare(self, msg: PrePrepare) -> None:
        if msg.view != self.view:
            return
        if self.accepted.get(msg.seq, (None, None))[0] == msg.view:
            return
        self._accept(msg.view, msg.seq, msg.payload)

    def _check_prepared(self, view: int, seq: int) -> None:
        acc = self.accepted.get(seq)
        if acc is None or acc[0] != view or view != self.view:
            return
        d = acc[1]
        if len(self.prep_votes.get((view, seq, d), ())) < self.quorum:
            return
        cert = self.prepared_cert.get(seq)
        if cert is None or cert[0] < view:
            self.prepared_cert[seq] = (view, d)
        if (view, seq) in self.sent_commit:
            return
        self.sent_commit.add((view, seq))
        self._record_vote(self.commit_votes, (view, seq, d), self.node_id)
        for peer in self.others():
            self.send(peer, CommitMsg(view, seq, d, self.node_id))
        self._check_committed(view, seq)

    def _check_committed(self, view: int, seq: int) -> None:
        if seq in self.committed:
            return
        acc = self.accepted.get(seq)
        if acc is None or acc[0] != view:
            return
        d = acc[1]
        if (view, seq) not in self.sent_commit:
            return  # committed-local requires the prepared certificate
        if len(self.commit_votes.get((view, seq, d), ())) < self.quorum:
            return
        self.committed[seq] = d
        self._try_execute()

    def _try_execute(self) -> None:
        progressed = False
        while self.committed.get(self.exec_cursor + 1) is not None:
            seq = self.exec_cursor + 1
            d = self.committed[seq]
            payload = self.payloads.get(d)
            if payload is None:
                break  # digest decided but payload never seen; stay safe and stall
            self.exec_cursor = seq
            already_delivered = d in self.executed_requests
            self.executed_requests.add(d)
            self.pending.pop(d, None)
            progressed = True
            if payload != NOOP_PAYLOAD and not already_delivered and self.on_commit is not None:
                self.on_commit(seq, payload)
        if self._unexecuted_work():
            if progressed:
                self._disarm_timer()  # progress resets the window
            self._arm_timer()
        else:
            self._disarm_timer()

    # -- progress timer and view change ------------------------------------------

    def _unexecuted_work(self) -> bool:
        # keys of ``accepted`` are never removed, so some accepted seq is
        # above the cursor exactly when the highest one is
        return bool(self.pending) or self._top_accepted > self.exec_cursor

    def _arm_timer(self) -> None:
        if self._timer_armed or self.timing is None:
            return
        self._timer_armed = True
        self._timer_token += 1
        self.set_timer(self.timing.view_timeout, ProgressTimer(self._timer_token))

    def _disarm_timer(self) -> None:
        self._timer_armed = False
        self._timer_token += 1

    def _on_timer(self, msg: ProgressTimer) -> None:
        if msg.token != self._timer_token or not self._timer_armed:
            return
        self._timer_armed = False
        if self._unexecuted_work():
            self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        self.view = new_view
        certs = {
            seq: (view, d, self.payloads[d])
            for seq, (view, d) in self.prepared_cert.items()
            if seq > self.exec_cursor and d in self.payloads
        }
        vc = ViewChange(new_view, self.node_id, certs, self.exec_cursor)
        self.vc_msgs.setdefault(new_view, {})[self.node_id] = (certs, self.exec_cursor)
        for peer in self.others():
            self.send(peer, vc)
        self._arm_timer()  # escalate if this view change stalls too
        self._maybe_new_view(new_view)

    def _on_view_change(self, msg: ViewChange) -> None:
        if msg.new_view < self.view:
            return
        self.vc_msgs.setdefault(msg.new_view, {})[msg.sender] = (msg.certs, msg.exec_cursor)
        f = bft_f_for(self.n)
        if msg.new_view > self.view and len(self.vc_msgs[msg.new_view]) >= f + 1:
            # enough evidence that others timed out; join the view change
            self._start_view_change(msg.new_view)
            return
        self._maybe_new_view(msg.new_view)

    def _maybe_new_view(self, new_view: int) -> None:
        if self.primary_of(new_view) != self.node_id or new_view < self.view:
            return
        if new_view in self._new_view_sent:
            return
        msgs = self.vc_msgs.get(new_view, {})
        if len(msgs) < self.quorum:
            return
        self._new_view_sent.add(new_view)
        # new proposals start above every reporter's executed watermark, so a
        # sequence some replica already executed is never decided again
        base = max(
            [self.exec_cursor] + [cursor for _, cursor in msgs.values()]
        )
        merged: Dict[int, tuple] = {}
        for certs, _ in msgs.values():
            for seq, (view, d, payload) in certs.items():
                if seq <= base:
                    continue
                best = merged.get(seq)
                if best is None or best[0] < view:
                    merged[seq] = (view, d, payload)
        top = max(merged, default=base)
        preprepares = []
        for seq in range(base + 1, top + 1):
            payload = merged[seq][2] if seq in merged else NOOP_PAYLOAD
            preprepares.append((seq, payload))
        self.view = new_view
        self.next_seq = top + 1
        nv = NewView(new_view, self.node_id, tuple(sorted(msgs)), tuple(preprepares))
        for peer in self.others():
            self.send(peer, nv)
        self._enter_new_view(nv)

    def _on_new_view(self, msg: NewView) -> None:
        if msg.view < self.view or self.primary_of(msg.view) != msg.sender:
            return
        if len(set(msg.vc_senders)) < self.quorum:
            return
        self._enter_new_view(msg)

    def _enter_new_view(self, msg: NewView) -> None:
        self.view = msg.view
        self.next_seq = max(self.next_seq, max((s for s, _ in msg.preprepares), default=0) + 1)
        self._disarm_timer()
        for seq, payload in msg.preprepares:
            if seq > self.exec_cursor:
                self._accept(msg.view, seq, payload)
        if self.is_primary():
            self._propose_pending()
        if self._unexecuted_work():
            self._arm_timer()

    # -- model-checking support ----------------------------------------------------

    def snapshot(self) -> tuple:
        """Canonical hashable state, for exhaustive interleaving exploration."""
        return (
            self.view,
            self.next_seq,
            tuple(sorted(self.accepted.items())),
            tuple(sorted((k, frozenset(v)) for k, v in self.prep_votes.items())),
            tuple(sorted((k, frozenset(v)) for k, v in self.commit_votes.items())),
            tuple(sorted(self.sent_commit)),
            tuple(sorted(self.committed.items())),
            self.exec_cursor,
        )
