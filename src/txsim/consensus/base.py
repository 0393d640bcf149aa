"""Host nodes and the component protocol they dispatch to.

A sim node can run several protocols at once (a peer validates blocks and
participates in consensus; a coordinator replica runs PBFT and a 2PC state
machine).  Components register a message-kind prefix on their host and get
all matching traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..simnet import Node


class ProtocolHost(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self._handlers = {}
        self._routes = {}  # message kind -> the handler registered for its prefix
        self._pending_cost = 0
        self.components = []  # attached components, told when the host heals

    def on_heal(self) -> None:
        for component in self.components:
            component.on_heal()

    def charge(self, cost: int) -> None:
        """Add ``cost`` to what the delivery being handled costs."""
        self._pending_cost += cost

    def register(self, prefix: str, handler) -> None:
        if prefix in self._handlers:
            raise ValueError(f"prefix {prefix!r} already registered on {self.node_id!r}")
        self._handlers[prefix] = handler

    def receive(self, msg, kind: str) -> int:
        handler = self._routes.get(kind)
        if handler is None:
            handler = self._handlers.get(kind.split(":", 1)[0])
            if handler is None:
                raise ValueError(f"node {self.node_id!r} has no handler for {kind!r}")
            self._routes[kind] = handler
        cost = handler(msg) or 0
        if self._pending_cost:
            cost += self._pending_cost
            self._pending_cost = 0
        return cost


class Component:
    """A protocol state machine living on a ProtocolHost."""

    prefix = ""

    def __init__(self):
        self.host: ProtocolHost = None

    def attach(self, host: ProtocolHost) -> "Component":
        self.host = host
        host.register(self.prefix, self.handle)
        host.components.append(self)
        return self

    @property
    def node_id(self):
        return self.host.node_id

    @property
    def now(self) -> int:
        return self.host.sim.now

    def send(self, dst, payload, extra_delay: int = 0) -> None:
        self.host.send(dst, payload, extra_delay)

    def set_timer(self, delay: int, payload):
        return self.host.set_timer(delay, payload)

    def cancel_timer(self, timer) -> None:
        self.host.cancel_timer(timer)

    def handle(self, msg) -> int:
        raise NotImplementedError

    def on_heal(self) -> None:
        """The host healed from a crash, during which its timers were dropped."""


@dataclass(frozen=True)
class ReplicaState:
    """Inspectable snapshot of one replica's ordered log."""

    node_id: object
    term: int
    role: str
    log: Tuple[Tuple[int, int, bytes], ...]  # (index, term/view, payload digest)
    commit_index: int

    def committed_digests(self) -> Tuple[bytes, ...]:
        return tuple(d for (_, _, d) in self.log[: self.commit_index])


# every replication and commit protocol; a run uses at most a few of them
PROTOCOL_PREFIXES = ("raft:", "pbft:", "slog:", "pb:", "2pc:")


def protocol_messages(delivered_counts, prefixes=PROTOCOL_PREFIXES) -> int:
    """Delivered messages of the given kind prefixes; timer firings are not messages."""
    return sum(
        n
        for kind, n in delivered_counts.items()
        if kind.startswith(prefixes) and not kind.endswith("timer")
    )


def messages_per_commit(sim, prefix: str, committed: int) -> float:
    """Mean delivered protocol messages per committed entry, from the sim counters."""
    if committed <= 0:
        return 0.0
    return protocol_messages(sim.delivered_counts, (prefix + ":",)) / committed
