"""Shared cluster wiring for consensus and sharding tests."""

from txsim.core import CostModel, DesignConfig, seeded_rng
from txsim.core.types import ShardingMode
from txsim.consensus import (
    PbftComponent,
    PbftTiming,
    ProtocolHost,
    RaftComponent,
    RaftTiming,
)
from txsim.pipeline import Arrival
from txsim.sharding import NODES_PER_SHARD, ShardedRun
from txsim.simnet import Simulator


class RaftHarness:
    def __init__(self, n: int, seed: int, cost_model: CostModel = None, trace: bool = False):
        self.cm = cost_model or CostModel()
        self.sim = Simulator(latency=self.cm.latency_drawer(seeded_rng(seed, "net")), trace=trace)
        timing = RaftTiming.from_mean_latency(self.cm.net_latency_mean)
        self.comps = {}
        self.commits = {i: [] for i in range(n)}
        for i in range(n):
            host = self.sim.add_node(ProtocolHost(i))
            comp = RaftComponent(
                list(range(n)),
                timing,
                seeded_rng(seed, f"raft-timeout-{i}"),
                on_commit=(lambda idx, p, i=i: self.commits[i].append((idx, p))),
            )
            comp.attach(host)
            self.comps[i] = comp
        for comp in self.comps.values():
            comp.start()

    def healthy_leader(self):
        from txsim.simnet import FaultKind

        leaders = [
            c
            for i, c in self.comps.items()
            if c.is_leader() and self.sim.fault_of(i) is FaultKind.HEALTHY
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda c: c.term)

    def drive(self, payloads, duration: int, tick: int = 5_000):
        """Advance the sim in slices, feeding payloads to whoever leads."""
        pending = list(payloads)
        t = self.sim.now
        end = t + duration
        while t < end:
            t = min(t + tick, end)
            self.sim.run(until=t)
            leader = self.healthy_leader()
            if leader is not None and pending:
                if leader.propose(pending[0]):
                    pending.pop(0)
        return pending


class PbftHarness:
    def __init__(
        self,
        n: int,
        seed: int,
        cost_model: CostModel = None,
        msg_cost: int = 0,
        equivocator=None,
    ):
        self.cm = cost_model or CostModel()
        self.sim = Simulator(
            latency=self.cm.latency_drawer(seeded_rng(seed, "net")), allow_byzantine=True
        )
        timing = PbftTiming.from_mean_latency(self.cm.net_latency_mean)
        self.comps = {}
        self.commits = {i: [] for i in range(n)}
        for i in range(n):
            host = self.sim.add_node(ProtocolHost(i))
            comp = PbftComponent(
                list(range(n)),
                timing,
                on_commit=(lambda seq, p, i=i: self.commits[i].append((seq, p))),
                msg_cost=msg_cost,
                equivocator=(i == equivocator),
            )
            comp.attach(host)
            self.comps[i] = comp

    def submit(self, payload: bytes) -> None:
        """Client request broadcast to every replica."""
        from txsim.consensus.pbft import Request

        for i in self.comps:
            self.sim.schedule(i, Request(payload), delay=0, src="client")

    def drive(self, payloads, duration: int, gap: int = 3_000):
        t = self.sim.now
        for payload in payloads:
            self.sim.run(until=t)
            self.submit(payload)
            t += gap
        self.sim.run(until=self.sim.now + duration)


def assert_agreement(states) -> None:
    """No two replicas commit different digests at the same log index."""
    by_index = {}
    for state in states:
        for idx, d in enumerate(state.committed_digests(), start=1):
            assert by_index.setdefault(idx, d) == d, (
                f"divergent commit at index {idx}"
            )


def sharded_run(spec, shards, bft=False, reconfiguration_interval=0, seed=0):
    """A ``ShardedRun`` of ``shards`` shards at 2000 tps open loop, built from its config."""
    cfg = DesignConfig(
        sharding_mode=ShardingMode.BFT_COORDINATED_2PC if bft else ShardingMode.TRUSTED_2PC,
        node_count=shards * NODES_PER_SHARD,
        tolerated_failures=1,
        reconfiguration_interval=reconfiguration_interval,
    )
    return ShardedRun(cfg, spec, Arrival.open_loop(2000), seed)
