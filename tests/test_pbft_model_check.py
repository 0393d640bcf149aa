"""Exhaustive safety check: one PBFT slot with an equivocating primary.

Node 0 (primary of view 0) sends conflicting pre-prepares for sequence 1 to
disjoint subsets of the three honest backups, plus commit votes for both
digests.  Every reachable configuration of message deliveries is enumerated,
message loss included (a configuration where a message is never delivered is
simply a state whose successors are never taken).

The enumeration uses a soundness-preserving reduction: an honest node's state
depends only on the *set* of messages delivered to it, not their order,
because each node sees a single pre-prepare and the remaining handlers do
monotone vote counting.  The reduction itself is asserted by replaying
delivery sets in opposite orders and comparing snapshots.  With per-node
states canonical, the reachable global states are exactly the causally closed
delivery-set vectors, and all of them are explored.
"""

import itertools

from txsim.core.encoding import digest
from txsim.consensus.pbft import CommitMsg, PbftComponent, Prepare, PrePrepare


class FakeHost:
    """Drives a component without a simulator; collects its sends."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.outbox = []
        self.components = []

    def register(self, prefix, handler):
        pass

    def send(self, dst, payload, extra_delay=0):
        self.outbox.append((dst, payload))

    def set_timer(self, delay, payload):
        pass


HONEST = (1, 2, 3)
BYZ = 0
REPLICAS = [0, 1, 2, 3]

PAYLOAD_A = b"slot-payload"
PAYLOAD_B = b"slot-payload/equivocated"


def msg_key(msg):
    if isinstance(msg, PrePrepare):
        return ("pp", msg.view, msg.seq, msg.payload)
    if isinstance(msg, Prepare):
        return ("pr", msg.view, msg.seq, msg.digest, msg.sender)
    return ("cm", msg.view, msg.seq, msg.digest, msg.sender)


def initial_messages(split):
    msgs = []
    for node, payload in zip(HONEST, split):
        msgs.append((node, PrePrepare(0, 1, payload)))
    for payload in (PAYLOAD_A, PAYLOAD_B):
        vote = CommitMsg(0, 1, digest(payload), BYZ)
        for node in HONEST:
            msgs.append((node, vote))
    return msgs


class NodeOracle:
    """Caches replayed node states per delivered message set."""

    def __init__(self):
        self.cache = {}

    def replay(self, node_id, delivered, registry, order=None):
        comp = PbftComponent(REPLICAS, timing=None, on_commit=lambda seq, payload: None, msg_cost=0)
        comp.attach(FakeHost(node_id))
        keys = sorted(delivered) if order is None else order
        for key in keys:
            comp.handle(registry[key])
        sends = [(dst, msg) for dst, msg in comp.host.outbox if dst in HONEST]
        return comp, sends

    def lookup(self, node_id, delivered, registry):
        key = (node_id, delivered)
        hit = self.cache.get(key)
        if hit is None:
            comp, sends = self.replay(node_id, delivered, registry)
            hit = (
                comp.snapshot(),
                dict(comp.committed) if comp.exec_cursor else {},
                tuple((dst, msg_key(msg)) for dst, msg in sends),
                {msg_key(m): m for _, m in sends},
            )
            self.cache[key] = hit
        return hit


def explore(split):
    oracle = NodeOracle()
    registry = {}  # msg key -> message object
    init_pending = []
    for dst, msg in initial_messages(split):
        registry[msg_key(msg)] = msg
        init_pending.append((dst, msg_key(msg)))

    start = tuple(frozenset() for _ in HONEST)
    seen = {start}
    frontier = [start]
    states = 0
    while frontier:
        state = frontier.pop()
        states += 1

        # resolve node states, their outputs, and check agreement
        committed_by_seq = {}
        available = list(init_pending)
        for idx, node in enumerate(HONEST):
            snapshot, committed, sends, new_msgs = oracle.lookup(node, state[idx], registry)
            registry.update(new_msgs)
            available.extend(sends)
            for seq, d in committed.items():
                assert committed_by_seq.setdefault(seq, d) == d, (
                    f"divergent commit at seq {seq} under split {split}"
                )

        for dst, key in available:
            idx = HONEST.index(dst)
            if key in state[idx]:
                continue
            succ = tuple(
                s | {key} if i == idx else s for i, s in enumerate(state)
            )
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return states, oracle, registry


def test_equivocating_primary_is_safe_under_all_interleavings():
    total_states = node_states = 0
    for split in itertools.product((PAYLOAD_A, PAYLOAD_B), repeat=3):
        states, oracle, _ = explore(split)
        total_states += states
        node_states += len(oracle.cache)
    # exact totals: a handler that sends a different message under an
    # equivocating primary reaches a different set of states
    assert (total_states, node_states) == (530_560, 2_112)


def test_node_state_is_order_insensitive():
    # the reduction's premise: replaying a delivery set forwards and backwards
    # reaches the same component state
    split = (PAYLOAD_A, PAYLOAD_B, PAYLOAD_B)
    _, oracle, registry = explore(split)
    checked = 0
    for (node_id, delivered) in list(oracle.cache.keys()):
        if len(delivered) < 2:
            continue
        fwd, _ = oracle.replay(node_id, delivered, registry, order=sorted(delivered))
        rev, _ = oracle.replay(node_id, delivered, registry, order=sorted(delivered, reverse=True))
        assert fwd.snapshot() == rev.snapshot()
        checked += 1
    assert checked > 50


def test_at_most_one_digest_can_gather_a_quorum():
    # the counting argument the exploration confirms: three honest nodes vote
    # once each, the equivocator at most once per digest; two digests cannot
    # both reach the quorum of 3
    honest_votes = len(HONEST)
    byz_votes_per_digest = 1
    quorum = 3
    assert honest_votes + 2 * byz_votes_per_digest < 2 * quorum
