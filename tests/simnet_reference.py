"""Reference event loop for the property tests in ``test_simnet.py``."""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from txsim.simnet import (
    _CANCELLED,
    _DELIVERED,
    _DROPPED,
    _QUEUED,
    BYZANTINE_KINDS,
    Event,
    FaultKind,
    Node,
    NodeFault,
    SimError,
    _FaultChange,
    payload_kind,
)


class ReferenceSimulator:
    """The simulator as it was before waiting events were grouped.

    A popped event whose target is busy is pushed back at ``busy_until`` with
    a fresh seq, one event per step.  Kept verbatim as the model that
    ``txsim.simnet.Simulator`` must match event for event, apart from timer
    cancellation, which it models in the plainest way: a cancelled event is
    discarded when it is popped, and so never pushed back.
    """

    def __init__(
        self,
        latency: Optional[Callable[[], int]] = None,
        allow_byzantine: bool = False,
        trace: bool = False,
    ):
        self.now = 0
        self._latency = latency or (lambda: 0)
        self.allow_byzantine = allow_byzantine
        self._queue: List[tuple] = []
        self._seq = 0
        self._cancelled = 0
        self.nodes: Dict[object, Node] = {}
        self._faults: Dict[object, NodeFault] = {}
        self._partition: Optional[Dict[object, int]] = None
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

    def clear_partition(self) -> None:
        self._partition = None

    # -- scheduling --------------------------------------------------------

    def _schedule_at(self, fire_time: int, src, target, payload) -> int:
        return self._push(Event(fire_time, 0, src, target, payload))

    def _push(self, ev: Event) -> int:
        self._seq += 1
        ev.seq = self._seq
        if ev.state == _QUEUED:
            heapq.heappush(self._queue, (ev.fire_time, self._seq, ev))
        return self._seq

    def cancel(self, ev: Event) -> None:
        if ev.state == _QUEUED:
            ev.state = _CANCELLED
            if ev.seq:
                self._cancelled += 1

    def schedule(self, target, payload, delay: int, src=None) -> int:
        if delay < 0:
            raise SimError("delay must be >= 0")
        return self._schedule_at(self.now + delay, src, target, payload)

    def send(self, src, dst, payload, extra_delay: int = 0) -> Optional[int]:
        """Message send with a fresh latency draw; silent senders emit nothing."""
        if self.fault_of(src) in (FaultKind.BYZANTINE_SILENT, FaultKind.CRASHED):
            return None
        delay = extra_delay + self._latency()
        return self._schedule_at(self.now + delay, src, dst, payload)

    # -- the event loop ----------------------------------------------------

    def _deliverable(self, ev: Event) -> bool:
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
        """Fire the minimal (fire_time, seq) event; None when exhausted."""
        if not self._queue:
            return None
        fire_time, _, ev = heapq.heappop(self._queue)
        assert fire_time >= self.now, "virtual clock would go backwards"
        self.now = fire_time

        if ev.state == _CANCELLED:
            self._cancelled -= 1
            return ev

        if isinstance(ev.payload, _FaultChange):
            change = ev.payload
            self._faults[change.node_id] = NodeFault(change.node_id, change.fault, self.now)
            return ev

        node = self.nodes.get(ev.target)
        if node is None or not self._deliverable(ev):
            ev.state = _DROPPED
            self.dropped_count += 1
            return ev

        if node.busy_until > self.now:
            # node still processing an earlier message; retry when it frees up
            self._seq += 1
            ev.fire_time = node.busy_until
            heapq.heappush(self._queue, (node.busy_until, self._seq, ev))
            return ev

        ev.state = _DELIVERED
        kind = payload_kind(ev.payload)
        self.delivered_counts[kind] = self.delivered_counts.get(kind, 0) + 1
        if self.trace is not None:
            self.trace.append((self.now, ev.seq, ev.src, ev.target, kind))

        node._outbox.clear()
        node._in_handler = True
        try:
            cost = node.on_message(ev.payload) or 0
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
        return ev

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue up to a virtual-time / event-count budget; returns events fired."""
        fired = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            if max_events is not None and fired >= max_events:
                break
            self.step()
            fired += 1
        if until is not None and self.now < until and (
            not self._queue or self._queue[0][0] > until
        ):
            self.now = until
        return fired

    def pending(self) -> int:
        return len(self._queue) - self._cancelled

    def dump_trace(self) -> str:
        """Tab-separated trace: one line per delivered event."""
        if self.trace is None:
            raise SimError("simulator was created without trace recording")
        lines = [
            f"{t}\t{seq}\t{src}\t{dst}\t{kind}" for (t, seq, src, dst, kind) in self.trace
        ]
        return "\n".join(lines) + ("\n" if lines else "")
