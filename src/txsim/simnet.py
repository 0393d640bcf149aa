"""Deterministic discrete-event network simulator.

One instance owns a virtual clock (integer units), a priority queue of
events ordered by (fire_time, seq), a node table, and a fault table.  All
randomness comes from the stream handed in at construction, so a run is a
pure function of its inputs.

Nodes model processing capacity: a handler returns the virtual time it spent,
and messages arriving while the node is busy wait until it frees up.  That
single mechanism produces queueing, saturation, and serial-validation
bottlenecks without any extra machinery.

Waiting is keyed exactly as if each event that comes up while its node is
busy were pushed back onto the queue at the node's ``busy_until`` with a fresh
seq, every time.  Such events are held in groups instead.  A group stands for
the keys ``(busy_until, s), (busy_until, s+1), ..., (busy_until, s+n-1)`` and
takes one queue entry; waiting events whose fresh keys continue the latest
group's run join it.  No other event can own a key inside a group's run, so
push-back would pop its members back to back, and one step does the same: it
delivers (or drops) members while the node is free, drops members that can no
longer be delivered, and re-keys the rest at the new ``busy_until`` with the
next seqs, one each.  Seqs, the trace and every delivery time therefore match
the per-event push-back, while the queue sees one entry per group instead of
one per waiting event per busy period.

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
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class FaultKind(enum.Enum):
    HEALTHY = "healthy"
    CRASHED = "crashed"
    BYZANTINE_EQUIVOCATE = "byzantine_equivocate"
    BYZANTINE_SILENT = "byzantine_silent"

BYZANTINE_KINDS = frozenset({FaultKind.BYZANTINE_EQUIVOCATE, FaultKind.BYZANTINE_SILENT})


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


class Simulator:
    def __init__(
        self,
        rng=None,
        latency_fn: Optional[Callable] = None,
        allow_byzantine: bool = False,
        trace: bool = False,
    ):
        self.now = 0
        self.rng = rng
        self._latency_fn = latency_fn or (lambda _rng: 0)
        self.allow_byzantine = allow_byzantine
        self._queue: List[tuple] = []
        self._seq = 0
        self._grouped = 0  # waiting events beyond the first of each group entry
        self._tail: Optional[_Waiting] = None  # the queued group keyed last
        self._cancelled = 0  # cancelled events still queued or waiting
        self._cancelled_waiting = 0  # those of them that wait in a group
        self._discarded = 0  # queue entries that were cancelled events
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
        self._seq += 1
        ev = Event(fire_time, self._seq, src, target, payload)
        heapq.heappush(self._queue, (fire_time, self._seq, ev))
        return self._seq

    def _push(self, ev: Event) -> None:
        self._seq += 1
        ev.seq = self._seq
        # a timer cancelled inside the handler that armed it takes its seq only
        if ev.state == _QUEUED:
            heapq.heappush(self._queue, (ev.fire_time, self._seq, ev))

    def cancel(self, ev: Event) -> None:
        """Keep ``ev`` from being delivered; a no-op once it was delivered or dropped."""
        if ev.state == _WAITING:
            self._cancelled += 1
            self._cancelled_waiting += 1
        elif ev.state == _QUEUED:
            if ev.seq:  # else armed by a handler still running: not queued yet
                self._cancelled += 1
        else:
            return
        ev.state = _CANCELLED

    def schedule(self, target, payload, delay: int, src=None) -> int:
        if delay < 0:
            raise SimError("delay must be >= 0")
        return self._schedule_at(self.now + delay, src, target, payload)

    def send(self, src, dst, payload, extra_delay: int = 0) -> Optional[int]:
        """Message send with a fresh latency draw; silent senders emit nothing."""
        if self._lossy and self.fault_of(src) in (FaultKind.BYZANTINE_SILENT, FaultKind.CRASHED):
            return None
        delay = extra_delay + self._latency_fn(self.rng)
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
        """Fire the minimal (fire_time, seq) queue entry; None when exhausted.

        An entry is one event (delivered, dropped, made to wait, discarded as
        cancelled, or a fault change) or one group waiting behind a busy node,
        whose members are delivered or dropped while the node is free and
        re-keyed together once it is busy again.  Returns the event, or the
        group's first member.
        """
        if not self._queue:
            return None
        fire_time, _, ev = heapq.heappop(self._queue)
        assert fire_time >= self.now, "virtual clock would go backwards"
        self.now = fire_time

        if ev.__class__ is _Waiting:
            return self._fire_waiting(ev)
        if ev.state == _CANCELLED:
            self._cancelled -= 1
            self._discarded += 1
            return ev

        if isinstance(ev.payload, _FaultChange):
            change = ev.payload
            self._faults[change.node_id] = NodeFault(change.node_id, change.fault, self.now)
            self._lossy = True
            return ev

        node = self.nodes.get(ev.target)
        if node is None or not self._deliverable(ev):
            ev.state = _DROPPED
            self.dropped_count += 1
            return ev

        if node.busy_until > self.now:
            ev.state = _WAITING
            self._wait(node, [ev])
            return ev

        self._deliver(node, ev)
        return ev

    def _wait(self, node: Node, events: List[Event]) -> None:
        """Queue ``events`` behind ``node`` at its busy_until, one fresh seq each."""
        until = node.busy_until
        tail = self._tail
        if (tail is not None and tail.last_seq == self._seq and tail.node is node
                and tail.fire_time == until):
            # the keys continue the tail group's run, so they join it; the
            # tail is still queued, as until > now >= any fired group's time
            tail.events.extend(events)
            self._grouped += len(events)
        else:
            tail = self._tail = _Waiting(node, until, events)
            heapq.heappush(self._queue, (until, self._seq + 1, tail))
            self._grouped += len(events) - 1
        self._seq += len(events)
        tail.last_seq = self._seq

    def _fire_waiting(self, group: "_Waiting") -> Event:
        node = group.node
        events = group.events
        self._grouped -= len(events) - 1
        fired = 0
        while fired < len(events) and node.busy_until <= self.now:
            ev = events[fired]
            fired += 1
            if ev.state == _CANCELLED:
                self._cancelled -= 1
                self._cancelled_waiting -= 1
                continue
            ev.fire_time = self.now
            if self._deliverable(ev):
                self._deliver(node, ev)
            else:
                ev.state = _DROPPED
                self.dropped_count += 1
        head = events[0]
        del events[:fired]
        if events:
            # only a partition or a crashed node makes an event undeliverable
            lossy = self._lossy and (self._partition is not None or any(
                f.kind is FaultKind.CRASHED for f in self._faults.values()
            ))
            if lossy or self._cancelled_waiting:
                kept = []
                for ev in events:
                    if ev.state == _CANCELLED:
                        self._cancelled -= 1
                        self._cancelled_waiting -= 1
                    elif lossy and not self._deliverable(ev):
                        ev.state = _DROPPED
                        self.dropped_count += 1
                    else:
                        kept.append(ev)
                events = kept
            if events:
                self._wait(node, events)
        return head

    def _deliver(self, node: Node, ev: Event) -> None:
        ev.state = _DELIVERED
        kind = payload_kind(ev.payload)
        self.delivered_counts[kind] = self.delivered_counts.get(kind, 0) + 1
        if self.trace is not None:
            self.trace.append((self.now, ev.seq, ev.src, ev.target, kind))

        node._outbox.clear()
        node._in_handler = True
        try:
            cost = node.receive(ev.payload, kind) or 0
        finally:
            node._in_handler = False
        node.busy_until = self.now + cost
        for out in node._outbox:
            if out.__class__ is Event:
                self._push(out)
            else:
                dst, payload, extra = out
                self.send(node.node_id, dst, payload, extra_delay=extra + cost)
        node._outbox.clear()

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue up to a virtual-time / step budget; returns steps taken.

        A step is one queue entry (see ``step``), so ``max_events`` bounds
        deliveries, drops, fault changes and waiting groups re-keyed together,
        and one step can deliver several events.  Discarding a cancelled event
        is not a step.
        """
        fired = 0
        discarded = self._discarded
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            if max_events is not None and fired - (self._discarded - discarded) >= max_events:
                break
            self.step()
            fired += 1
        if until is not None and self.now < until and (
            not self._queue or self._queue[0][0] > until
        ):
            self.now = until
        return fired - (self._discarded - discarded)

    def pending(self) -> int:
        """Events still queued, waiting ones included (not queue entries nor cancelled events)."""
        return len(self._queue) + self._grouped - self._cancelled

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


class _Waiting:
    """Events waiting behind ``node``, keyed (fire_time, s), ..., (fire_time, last_seq)."""

    __slots__ = ("node", "fire_time", "last_seq", "events")

    def __init__(self, node: Node, fire_time: int, events: List[Event]):
        self.node = node
        self.fire_time = fire_time
        self.last_seq = 0
        self.events = events


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
