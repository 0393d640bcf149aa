"""Deterministic discrete-event network simulator.

One instance owns a virtual clock (integer units), a priority queue of
events ordered by (fire_time, seq), a node table, and a fault table.  Its
one source of randomness is the zero-argument latency drawer handed in at
construction, so a run is a pure function of its inputs.

Nodes model processing capacity: a handler returns the virtual time it spent,
and messages arriving while the node is busy wait until it frees up.  That
single mechanism produces queueing, saturation, and serial-validation
bottlenecks without any extra machinery.

Waiting is keyed exactly as if each event that comes up while its node is
busy were pushed back onto the queue at the node's ``busy_until`` with a fresh
seq, every time.  Such events are held in groups instead; a group takes one
queue entry for its members' keys ``(busy_until, s1) < (busy_until, s2) ...``.
A waiting event joins the group its node queued last when that group is keyed
at the node's ``busy_until`` and no other entry was queued at that fire time
since the group's last seq; a map from each fire time still ahead to the last
seq queued at it tells which.  No other entry can then own a key between two
members, so push-back would pop them back to back, and one step does the same:
it delivers (or drops) members while the node is free, drops members that can
no longer be delivered, and re-keys the rest at the new ``busy_until`` with the
next seqs, one each.  Seqs, the trace and every delivery time therefore match
the per-event push-back, while the queue sees one entry per group instead of
one per waiting event per busy period.  ``Simulator.run`` is the one event
loop: a popped event is a run of one, delivered or made to wait by the code
that fires a group, and ``step`` is ``run`` with a budget of one entry.

A timer can be cancelled.  Cancellation is lazy: the event keeps its key
(and the seq it took) and is discarded when it comes up, or when the group it
waits in fires.  It is never delivered, counted, traced or dropped, never
waits behind a busy node, and is not counted by ``pending``.  Discarding it
takes no seq, just as the per-event push-back would simply not push it back.

Fault checks run only after a fault change (a crash, a byzantine fault or a
heal) has fired, or while a partition is set.  Before that every node is
healthy and every message deliverable, so ``send``, delivery and the waiting
groups skip the fault table and the partition map.  A heal leaves a
``HEALTHY`` entry in the fault table, so the checks stay on after it: from the
first fault change on, every check runs as it would without the shortcut.
A crashed node's timers that come up are dropped like its messages, so a
heal from a crash calls the node's ``on_heal``, where it can re-arm them.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class FaultKind(enum.Enum):
    HEALTHY = "healthy"
    CRASHED = "crashed"
    BYZANTINE_EQUIVOCATE = "byzantine_equivocate"
    BYZANTINE_SILENT = "byzantine_silent"

BYZANTINE_KINDS = frozenset({FaultKind.BYZANTINE_EQUIVOCATE, FaultKind.BYZANTINE_SILENT})
_MUTE = (FaultKind.BYZANTINE_SILENT, FaultKind.CRASHED)  # senders that emit nothing


class SimError(Exception):
    pass


# Event.state: queued (or armed inside a handler), maybe waiting behind a busy
# node, then delivered, dropped or cancelled
_QUEUED, _WAITING, _DELIVERED, _DROPPED, _CANCELLED = range(5)


@dataclass(slots=True)
class Event:
    fire_time: int
    seq: int  # 0 until the event is queued
    src: object
    target: object
    payload: object
    state: int = _QUEUED

    @property
    def delivered(self) -> bool:
        return self.state == _DELIVERED


@dataclass
class NodeFault:
    node_id: object
    kind: FaultKind
    since: int


def payload_kind(payload) -> str:
    kind = getattr(payload, "kind", None)
    return kind if kind is not None else type(payload).__name__


class Node:
    """Base class for protocol state machines attached to a simulator.

    Subclasses implement ``on_message(msg) -> cost`` and use ``send`` /
    ``set_timer`` for output.  Sends buffered during a handler depart when the
    handler's processing cost has elapsed.  ``set_timer`` returns a handle that
    ``cancel_timer`` takes, also from inside the handler that armed it.

    The simulator delivers through ``receive(msg, kind)``, passing the kind it
    has already computed for its counters; a node that dispatches on the kind
    overrides ``receive`` instead of ``on_message``.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.sim: Optional[Simulator] = None
        self.busy_until = 0
        self._outbox: List[tuple] = []
        self._in_handler = False
        self._group: Optional[_Waiting] = None  # the group queued behind it last

    @property
    def now(self) -> int:
        return self.sim.now

    def send(self, dst, payload, extra_delay: int = 0) -> None:
        if self._in_handler:
            self._outbox.append((dst, payload, extra_delay))
        else:
            self.sim.send(self.node_id, dst, payload, extra_delay=extra_delay)

    def set_timer(self, delay: int, payload) -> Event:
        # timers are absolute alarms: not offset by processing cost, no
        # network latency, delivered to self
        return self.local(self.node_id, payload, delay)

    def cancel_timer(self, timer: Event) -> None:
        self.sim.cancel(timer)

    def local(self, dst, payload, delay: int = 0) -> Event:
        """Same-machine handoff: no latency draw, not offset by processing cost."""
        ev = Event(self.sim.now + delay, 0, self.node_id, dst, payload)
        if self._in_handler:
            self._outbox.append(ev)
        else:
            self.sim._push(ev)
        return ev

    def on_message(self, msg) -> int:
        raise NotImplementedError

    def receive(self, msg, kind: str) -> int:
        return self.on_message(msg)

    def on_heal(self) -> None:
        """Called when the node heals from a crash; does nothing by default."""


class Simulator:
    def __init__(
        self,
        latency: Callable[[], int],
        allow_byzantine: bool = False,
        trace: bool = False,
    ):
        self.now = 0
        self._latency = latency  # one draw per network send
        self.allow_byzantine = allow_byzantine
        self._queue: List[tuple] = []
        self._seq = 0
        self._last_at: Dict[int, int] = {}  # fire time -> last seq queued at it, times still ahead
        self._fired: Optional[Event] = None  # the event of the last step taken
        self._cancelled_waiting = 0  # cancelled events that wait in a group
        self.nodes: Dict[object, Node] = {}
        self._faults: Dict[object, NodeFault] = {}
        self._partition: Optional[Dict[object, int]] = None
        self._lossy = False  # a fault change has fired or a partition is set
        self.trace: Optional[List[tuple]] = [] if trace else None
        self.delivered_counts: Dict[str, int] = {}
        self.dropped_count = 0

    # -- topology ----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise SimError(f"duplicate node id {node.node_id!r}")
        node.sim = self
        self.nodes[node.node_id] = node
        return node

    def fault_of(self, node_id) -> FaultKind:
        fault = self._faults.get(node_id)
        if fault is None or self.now < fault.since:
            return FaultKind.HEALTHY
        return fault.kind

    def inject_fault(self, node_id, kind: FaultKind, at_time: Optional[int] = None) -> None:
        if node_id not in self.nodes:
            raise SimError(f"unknown node {node_id!r}")
        if kind in BYZANTINE_KINDS and not self.allow_byzantine:
            raise SimError("byzantine faults are only valid under a BFT experiment")
        at = self.now if at_time is None else at_time
        if at < self.now:
            raise SimError("cannot inject a fault in the past")
        self._schedule_at(at, "__ctrl__", "__ctrl__", _FaultChange(node_id, kind))

    def heal(self, node_id, at_time: Optional[int] = None) -> None:
        if node_id not in self.nodes:
            raise SimError(f"unknown node {node_id!r}")
        at = self.now if at_time is None else at_time
        if at < self.now:
            raise SimError("cannot heal in the past")
        self._schedule_at(at, "__ctrl__", "__ctrl__", _FaultChange(node_id, FaultKind.HEALTHY))

    def set_partition(self, groups) -> None:
        """Partition nodes into disjoint groups; cross-group messages drop."""
        mapping = {}
        for gid, group in enumerate(groups):
            for node_id in group:
                if node_id in mapping:
                    raise SimError(f"node {node_id!r} appears in two partition groups")
                mapping[node_id] = gid
        self._partition = mapping
        self._lossy = True

    def clear_partition(self) -> None:
        self._partition = None
        self._lossy = bool(self._faults)

    # -- scheduling --------------------------------------------------------

    def _schedule_at(self, fire_time: int, src, target, payload) -> int:
        ev = Event(fire_time, 0, src, target, payload)
        self._push(ev)
        return ev.seq

    def _push(self, ev: Event) -> None:
        self._seq += 1
        ev.seq = self._seq
        heappush(self._queue, (ev.fire_time, self._seq, ev))
        self._last_at[ev.fire_time] = self._seq

    def cancel(self, ev: Event) -> None:
        """Keep ``ev`` from being delivered; a no-op once it was delivered or dropped."""
        if ev.state == _WAITING:
            self._cancelled_waiting += 1
        elif ev.state != _QUEUED:
            return
        ev.state = _CANCELLED

    def schedule(self, target, payload, delay: int, src=None) -> int:
        if delay < 0:
            raise SimError("delay must be >= 0")
        return self._schedule_at(self.now + delay, src, target, payload)

    def send(self, src, dst, payload, extra_delay: int = 0) -> Optional[int]:
        """Message send with a fresh latency draw; silent senders emit nothing."""
        if self._lossy and self.fault_of(src) in _MUTE:
            return None
        delay = extra_delay + self._latency()
        return self._schedule_at(self.now + delay, src, dst, payload)

    # -- the event loop ----------------------------------------------------

    def _deliverable(self, ev: Event) -> bool:
        if not self._lossy:
            return True
        if self.fault_of(ev.target) is FaultKind.CRASHED:
            return False
        if ev.src is not None and ev.src != ev.target:
            if self.fault_of(ev.src) is FaultKind.CRASHED:
                return False
            if self._partition is not None:
                src_group = self._partition.get(ev.src)
                dst_group = self._partition.get(ev.target)
                if src_group != dst_group:
                    return False
        return True

    def step(self) -> Optional[Event]:
        """``run`` with a budget of one queue entry; None when none is left.

        Cancelled events ahead of that entry are discarded on the way.
        Returns the entry's event, or a group's first member.
        """
        return self._fired if self.run(max_events=1) else None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue up to a virtual-time / step budget; returns steps taken.

        A step is one queue entry: an event (delivered, dropped, made to wait,
        or a fault change) or a group of waiting events, which the step
        delivers or drops while the node is free and re-keys together once it
        is busy again.  ``max_events`` therefore counts queue entries, and one
        entry can cover many events.  Discarding a cancelled event is not a
        step.
        """
        queue, nodes, last_at = self._queue, self.nodes, self._last_at
        counts, trace, latency = self.delivered_counts, self.trace, self._latency
        budget = -1 if max_events is None else max_events
        now = self.now
        steps = 0
        head = None
        while queue and steps != budget:
            fire_time, _, entry = queue[0]
            if until is not None and fire_time > until:
                break
            heappop(queue)
            if fire_time != now:
                assert fire_time > now, "virtual clock would go backwards"
                last_at.pop(now, None)
                now = self.now = fire_time
            if entry.__class__ is _Waiting:
                node, events = entry.node, entry.events
                n = len(events)
                head = events[0]
            elif entry.state == _CANCELLED:
                continue
            else:
                head, n = entry, 0
                if entry.payload.__class__ is _FaultChange:
                    change = entry.payload
                    restarts = self.fault_of(change.node_id) is FaultKind.CRASHED
                    self._faults[change.node_id] = NodeFault(change.node_id, change.fault, now)
                    self._lossy = True
                    if restarts and change.fault is FaultKind.HEALTHY:
                        nodes[change.node_id].on_heal()
                elif (node := nodes.get(entry.target)) is None:
                    entry.state = _DROPPED
                    self.dropped_count += 1
                else:  # a run of one: delivered now, or made to wait below
                    entry.state = _WAITING
                    events, n = [entry], 1
            steps += 1
            fired = 0
            while fired < n and node.busy_until <= now:
                ev = events[fired]
                fired += 1
                if ev.state == _CANCELLED:
                    self._cancelled_waiting -= 1
                    continue
                ev.fire_time = now
                if self._lossy and not self._deliverable(ev):
                    ev.state = _DROPPED
                    self.dropped_count += 1
                    continue
                ev.state = _DELIVERED
                kind = payload_kind(ev.payload)
                counts[kind] = counts.get(kind, 0) + 1
                if trace is not None:
                    trace.append((now, ev.seq, ev.src, ev.target, kind))
                outbox = node._outbox
                outbox.clear()  # of sends left by a handler that raised
                node._in_handler = True
                try:
                    cost = node.receive(ev.payload, kind) or 0
                finally:
                    node._in_handler = False
                node.busy_until = now + cost
                if outbox:
                    seq = self._seq
                    for out in outbox:
                        if out.__class__ is Event:
                            seq += 1
                            out.seq = seq
                            # a timer cancelled inside the handler that armed it takes its seq only
                            if out.state == _QUEUED:
                                heappush(queue, (out.fire_time, seq, out))
                                last_at[out.fire_time] = seq
                        elif not self._lossy or self.fault_of(node.node_id) not in _MUTE:
                            dst, payload, extra = out
                            at = now + extra + cost + latency()
                            seq += 1
                            heappush(queue, (at, seq, Event(at, seq, node.node_id, dst, payload)))
                            last_at[at] = seq
                    self._seq = seq
                    outbox.clear()

            if fired < n:
                if fired:
                    del events[:fired]
                if self._lossy or self._cancelled_waiting:
                    kept = []
                    for ev in events:
                        if ev.state == _CANCELLED:
                            self._cancelled_waiting -= 1
                        elif not self._deliverable(ev):
                            ev.state = _DROPPED
                            self.dropped_count += 1
                        else:
                            kept.append(ev)
                    events = kept
                n = len(events)
                if n:
                    # wait at busy_until: join the node's group when it is keyed
                    # there and no other entry has been queued at that time since
                    until_free = node.busy_until
                    group = node._group
                    if (group is not None and group.fire_time == until_free
                            and last_at[until_free] == group.last_seq):
                        group.events += events
                    else:
                        group = node._group = _Waiting(node, until_free, events)
                        heappush(queue, (until_free, self._seq + 1, group))
                    self._seq += n
                    last_at[until_free] = group.last_seq = self._seq
        if until is not None and now < until and (not queue or queue[0][0] > until):
            last_at.pop(now, None)
            self.now = until
        self._fired = head
        return steps

    def pending(self) -> int:
        """Events still queued, waiting ones included (not queue entries nor cancelled events)."""
        count = 0
        for _, _, entry in self._queue:
            if entry.__class__ is _Waiting:
                count += sum(ev.state != _CANCELLED for ev in entry.events)
            elif entry.state != _CANCELLED:
                count += 1
        return count

    def dump_trace(self) -> str:
        """Tab-separated trace: one line per delivered event."""
        if self.trace is None:
            raise SimError("simulator was created without trace recording")
        lines = [
            f"{t}\t{seq}\t{src}\t{dst}\t{kind}" for (t, seq, src, dst, kind) in self.trace
        ]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class _FaultChange:
    node_id: object
    fault: FaultKind
    kind: str = field(default="__fault__", init=False)


@dataclass(slots=True, eq=False)
class _Waiting:
    """Events waiting behind ``node`` at ``fire_time``; the last took seq ``last_seq``."""

    node: Node
    fire_time: int
    events: List[Event]
    last_seq: int = 0


MAX_VIRTUAL = 600_000_000  # a driven run stops here, settled or not
DRIVE_CHUNK = 100_000  # virtual time between two progress checks


def run_until_settled(
    sim: Simulator, done: Callable[[], bool], progress: Callable[[], int], stall_window: int
) -> bool:
    """The drive loop of every run: returns True when it stops before ``done()``.

    ``progress()`` counts the run's settled transactions.  The simulator runs
    in chunks of ``DRIVE_CHUNK`` until ``done()``, or until it stops short: its
    queue is empty, ``progress()`` has not grown for ``stall_window``, or the
    clock has reached ``MAX_VIRTUAL``.
    """
    last, last_progress = progress(), sim.now
    while not done() and sim.pending():
        sim.run(until=sim.now + DRIVE_CHUNK)
        if progress() > last:
            last, last_progress = progress(), sim.now
        if sim.now - last_progress >= stall_window or sim.now >= MAX_VIRTUAL:
            break
    return not done()
