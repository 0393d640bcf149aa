"""Three-phase BFT consensus in the style of PBFT.

Pre-prepare / prepare / commit with a round-robin proposer per view.  The
quorum is n - floor((n-1)/3), i.e. 2f+1 when n = 3f+1.  Clients broadcast
requests to every replica: the primary proposes them, backups arm a progress
timer and force a view change if execution stalls.  View changes carry
prepared certificates, each with its payload, so a new primary re-proposes
anything that might have committed; gaps are filled with no-ops.

A replica holds one ``Slot`` per live sequence: the pre-prepare it took
(view, digest and payload), the prepare and commit votes, the view it sent
its commit in and its prepared certificate.  The first message naming a
sequence creates its slot, and executing the sequence pops it.  Votes that
arrive for an executed sequence are dropped.  Only the decided log
(``committed`` and ``executed_requests``, one digest per sequence) outlives
the slot.  No checkpoint messages are exchanged: each replica frees only what
it has executed itself, a view change certifies only sequences above the
sender's cursor, and a new view never re-proposes a sequence at or below the
highest cursor reported.

Byzantine behavior is restricted to a menu: a silent node sends nothing (the
network layer enforces that), and an equivocating primary sends conflicting
pre-prepares to disjoint peer subsets plus commit votes for both digests.
Certificates are taken at face value, which models signature-checked
messages: the menu contains no forgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    kind: str = field(default="pbft:timer", init=False)


@dataclass(slots=True, eq=False)
class Slot:
    """One live sequence's protocol state; ``view`` is -1 until a pre-prepare is taken."""

    view: int = -1
    digest: bytes = b""
    payload: bytes = b""
    prepares: Dict[tuple, set] = field(default_factory=dict)  # (view, digest) -> senders
    commits: Dict[tuple, set] = field(default_factory=dict)
    commit_view: int = -1  # the view this replica sent its commit in
    cert: Optional[tuple] = None  # prepared certificate: (view, digest, payload)


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
        on_commit,
        msg_cost: int,
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
        self.slots: Dict[int, Slot] = {}  # live seqs only: named and not yet executed
        self.committed: Dict[int, bytes] = {}
        self.exec_cursor = 0
        self.pending: Dict[bytes, bytes] = {}  # request digest -> payload
        self.executed_requests: set = set()
        self.proposed_requests: set = set()
        self.vc_msgs: Dict[int, dict] = {}
        self._new_view_sent: set = set()
        self._timer = None  # the armed progress timer's handle; None while disarmed

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
        msg = PrePrepare(self.view, seq, payload)
        for peer in self.others():
            self.send(peer, msg)
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
            if msg.seq > self.exec_cursor:  # a vote on an executed seq changes nothing
                slot = self._slot(msg.seq)
                slot.prepares.setdefault((msg.view, msg.digest), set()).add(msg.sender)
                self._check_prepared(msg.view, msg.seq, slot)
        elif isinstance(msg, CommitMsg):
            if msg.seq > self.exec_cursor:
                slot = self._slot(msg.seq)
                slot.commits.setdefault((msg.view, msg.digest), set()).add(msg.sender)
                self._check_committed(msg.view, msg.seq, slot)
        elif isinstance(msg, ViewChange):
            self._on_view_change(msg)
        elif isinstance(msg, NewView):
            self._on_new_view(msg)
        elif isinstance(msg, ProgressTimer):
            self._on_timer()
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
            if self.equivocator:
                self._propose_conflicting(payload)
            else:
                self.propose(payload)

    def _propose_conflicting(self, payload: bytes) -> None:
        """Equivocate: disjoint peer subsets see conflicting pre-prepares at one seq."""
        seq = self.next_seq
        self.next_seq += 1
        alt = payload + b"/equivocated"
        others = self.others()
        k = 1 + (seq % (len(others) - 1)) if len(others) > 1 else 1
        group_a, group_b = others[:k], others[k:]
        for group, p in ((group_a, payload), (group_b, alt)):
            msg = PrePrepare(self.view, seq, p)
            for peer in group:
                self.send(peer, msg)
        # commit votes for both digests, the worst the menu allows
        for p in (payload, alt):
            vote = CommitMsg(self.view, seq, digest(p), self.node_id)
            for peer in others:
                self.send(peer, vote)

    # -- normal three-phase flow ---------------------------------------------------

    def _slot(self, seq: int) -> Slot:
        slot = self.slots.get(seq)
        if slot is None:
            slot = self.slots[seq] = Slot()
        return slot

    def _accept(self, view: int, seq: int, payload: bytes) -> None:
        if seq <= self.exec_cursor or seq in self.committed:
            return  # never re-decide a settled sequence
        slot = self._slot(seq)
        if slot.view >= view:
            return  # first pre-prepare per (view, seq) wins
        d = digest(payload)
        slot.view, slot.digest, slot.payload = view, d, payload
        slot.prepares.setdefault((view, d), set()).update((self.primary_of(view), self.node_id))
        if self.node_id != self.primary_of(view):
            msg = Prepare(view, seq, d, self.node_id)
            for peer in self.others():
                self.send(peer, msg)
        if view == self.view and self._timer is not None:
            self._disarm_timer()  # a live primary is working; restart the window
        self._arm_timer()
        self._check_prepared(view, seq, slot)

    def _on_pre_prepare(self, msg: PrePrepare) -> None:
        if msg.view == self.view:
            self._accept(msg.view, msg.seq, msg.payload)

    def _check_prepared(self, view: int, seq: int, slot: Slot) -> None:
        if slot.view != view or view != self.view:
            return
        d = slot.digest
        if len(slot.prepares.get((view, d), ())) < self.quorum:
            return
        if slot.cert is None or slot.cert[0] < view:
            slot.cert = (view, d, slot.payload)
        if slot.commit_view == view:
            return
        slot.commit_view = view
        slot.commits.setdefault((view, d), set()).add(self.node_id)
        msg = CommitMsg(view, seq, d, self.node_id)
        for peer in self.others():
            self.send(peer, msg)
        self._check_committed(view, seq, slot)

    def _check_committed(self, view: int, seq: int, slot: Slot) -> None:
        if seq in self.committed or slot.view != view:
            return
        if slot.commit_view != view:
            return  # committed-local requires the prepared certificate
        if len(slot.commits.get((view, slot.digest), ())) < self.quorum:
            return
        self.committed[seq] = slot.digest
        self._try_execute()

    def _try_execute(self) -> None:
        progressed = False
        while self.exec_cursor + 1 in self.committed:
            seq = self.exec_cursor + 1
            # a seq commits only on the digest its slot took, so the slot holds its payload
            slot = self.slots.pop(seq)
            d, payload = slot.digest, slot.payload
            self.exec_cursor = seq
            self.proposed_requests.discard(d)
            already_delivered = d in self.executed_requests
            self.executed_requests.add(d)
            self.pending.pop(d, None)
            progressed = True
            if payload != NOOP_PAYLOAD and not already_delivered:
                self.on_commit(seq, payload)
        if self._unexecuted_work():
            if progressed:
                self._disarm_timer()  # progress resets the window
            self._arm_timer()
        else:
            self._disarm_timer()

    # -- progress timer and view change ------------------------------------------

    def _unexecuted_work(self) -> bool:
        # a seq's slot is popped when it executes, so every slot is above the cursor
        return bool(self.pending) or any(slot.view >= 0 for slot in self.slots.values())

    def _arm_timer(self) -> None:
        if self._timer is None and self.timing is not None:
            self._timer = self.set_timer(self.timing.view_timeout, ProgressTimer())

    def _disarm_timer(self) -> None:
        # a cancelled timer is never delivered
        if self._timer is not None:
            self.cancel_timer(self._timer)
            self._timer = None

    def _on_timer(self) -> None:
        self._timer = None
        if self._unexecuted_work():
            self._start_view_change(self.view + 1)

    def on_heal(self) -> None:
        """Restart the progress window: a timer that came up during the crash was dropped."""
        self._disarm_timer()
        if self._unexecuted_work():
            self._arm_timer()

    def _start_view_change(self, new_view: int) -> None:
        self.view = new_view
        # certificates of live seqs only, each with its payload
        certs = {seq: slot.cert for seq, slot in self.slots.items() if slot.cert is not None}
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
        slots = tuple(
            (seq, slot.view, slot.digest, _vote_rows(slot.prepares), _vote_rows(slot.commits),
             slot.commit_view, slot.cert and slot.cert[:2])
            for seq, slot in sorted(self.slots.items())
        )
        return (self.view, self.next_seq, slots, tuple(sorted(self.committed.items())), self.exec_cursor)


def _vote_rows(votes: Dict[tuple, set]) -> tuple:
    return tuple(sorted((key, frozenset(v)) for key, v in votes.items()))
