"""Event queue semantics: ordering, faults, partitions, determinism."""

import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simnet_reference import ReferenceSimulator
from txsim.core import CostModel, seeded_rng
from txsim.simnet import FaultKind, Node, SimError, Simulator


@dataclass
class Ping:
    hop: int
    kind: str = field(default="ping", init=False)


class Recorder(Node):
    """Collects (time, payload) deliveries; optionally forwards with a cost."""

    def __init__(self, node_id, forward_to=None, cost=0, max_hops=0):
        super().__init__(node_id)
        self.forward_to = forward_to
        self.cost = cost
        self.max_hops = max_hops
        self.seen = []

    def on_message(self, msg):
        self.seen.append((self.now, msg))
        if self.forward_to is not None and getattr(msg, "hop", 0) < self.max_hops:
            self.send(self.forward_to, Ping(msg.hop + 1))
        return self.cost


def _sim(seed=1, **kwargs) -> Simulator:
    cm = CostModel()
    return Simulator(rng=seeded_rng(seed, "net"), latency_fn=cm.net_delay, **kwargs)


class TestScheduling:
    def test_delay_five_fires_at_five(self):
        sim = Simulator()
        node = sim.add_node(Recorder("a"))
        sim.schedule("a", Ping(0), delay=5)
        ev = sim.step()
        assert sim.now == 5 and ev.delivered
        assert node.seen == [(5, Ping(0))]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        node = sim.add_node(Recorder("a"))
        first = Ping(1)
        second = Ping(2)
        sim.schedule("a", first, delay=5)
        sim.schedule("a", second, delay=5)
        sim.run()
        assert [m for _, m in node.seen] == [first, second]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        sim.add_node(Recorder("a"))
        with pytest.raises(SimError):
            sim.schedule("a", Ping(0), delay=-1)

    def test_queue_pops_in_time_order(self):
        sim = Simulator()
        node = sim.add_node(Recorder("a"))
        sim.schedule("a", Ping(3), delay=3)
        sim.schedule("a", Ping(1), delay=1)
        ev = sim.step()
        assert sim.now == 1 and node.seen[0][1].hop == 1
        assert ev.payload.hop == 1

    def test_step_on_empty_queue_returns_none(self):
        assert Simulator().step() is None

    def test_clock_is_monotone_over_random_schedules(self):
        rng = seeded_rng(3, "test")
        sim = Simulator()
        sim.add_node(Recorder("a"))
        for _ in range(200):
            sim.schedule("a", Ping(0), delay=rng.randint(0, 1000))
        last = 0
        while (ev := sim.step()) is not None:
            assert ev.fire_time >= last
            last = ev.fire_time


class TestCrashSemantics:
    def test_event_to_crashed_target_dropped_clock_advances(self):
        sim = Simulator()
        node = sim.add_node(Recorder("a"))
        sim.inject_fault("a", FaultKind.CRASHED, at_time=0)
        sim.schedule("a", Ping(0), delay=2)
        sim.run()
        assert node.seen == []
        assert sim.now == 2

    def test_in_flight_from_crashed_sender_dropped(self):
        sim = _sim()
        a = sim.add_node(Recorder("a"))
        b = sim.add_node(Recorder("b"))
        sim.schedule("b", Ping(0), delay=100, src="a")
        sim.inject_fault("a", FaultKind.CRASHED, at_time=50)
        sim.run()
        assert b.seen == []

    def test_crashed_node_sends_nothing(self):
        sim = Simulator(trace=True)
        a = sim.add_node(Recorder("a", forward_to="b", max_hops=5))
        b = sim.add_node(Recorder("b"))
        sim.inject_fault("a", FaultKind.CRASHED, at_time=0)
        sim.schedule("a", Ping(0), delay=1)
        sim.run()
        assert b.seen == [] and a.seen == []

    def test_heal_restores_delivery(self):
        sim = Simulator()
        node = sim.add_node(Recorder("a"))
        sim.inject_fault("a", FaultKind.CRASHED, at_time=0)
        sim.heal("a", at_time=10)
        sim.schedule("a", Ping(1), delay=5)
        sim.schedule("a", Ping(2), delay=15)
        sim.run()
        assert [m.hop for _, m in node.seen] == [2]

    def test_byzantine_rejected_unless_enabled(self):
        sim = Simulator()
        sim.add_node(Recorder("a"))
        with pytest.raises(SimError, match="BFT"):
            sim.inject_fault("a", FaultKind.BYZANTINE_SILENT)
        bft_sim = Simulator(allow_byzantine=True)
        bft_sim.add_node(Recorder("a"))
        bft_sim.inject_fault("a", FaultKind.BYZANTINE_SILENT)

    def test_silent_node_receives_but_never_sends(self):
        sim = Simulator(allow_byzantine=True)
        a = sim.add_node(Recorder("a", forward_to="b", max_hops=5))
        b = sim.add_node(Recorder("b"))
        sim.inject_fault("a", FaultKind.BYZANTINE_SILENT, at_time=0)
        sim.schedule("a", Ping(0), delay=1)
        sim.run()
        assert len(a.seen) == 1 and b.seen == []


class TestPartitions:
    def test_cross_group_messages_dropped(self):
        sim = Simulator()
        a = sim.add_node(Recorder("a"))
        b = sim.add_node(Recorder("b"))
        sim.set_partition([{"a"}, {"b"}])
        sim.schedule("b", Ping(0), delay=1, src="a")
        sim.schedule("a", Ping(0), delay=1, src="b")
        sim.run()
        assert a.seen == [] and b.seen == []

    def test_same_group_messages_delivered(self):
        sim = Simulator()
        sim.add_node(Recorder("a"))
        b = sim.add_node(Recorder("b"))
        sim.set_partition([{"a", "b"}, {"c"}])
        sim.add_node(Recorder("c"))
        sim.schedule("b", Ping(0), delay=1, src="a")
        sim.run()
        assert len(b.seen) == 1

    def test_clear_partition_restores_delivery(self):
        sim = Simulator()
        b = sim.add_node(Recorder("b"))
        sim.add_node(Recorder("a"))
        sim.set_partition([{"a"}, {"b"}])
        sim.clear_partition()
        sim.schedule("b", Ping(0), delay=1, src="a")
        sim.run()
        assert len(b.seen) == 1


class TestFaultFlag:
    """Fault checks are skipped until a fault change fires or a partition is set.

    Each scenario runs on ``Simulator`` and on ``ReferenceSimulator``, which
    checks every send and delivery, and must give the same trace, drops and
    returned seqs.
    """

    @staticmethod
    def _both(scenario, **kwargs):
        out = []
        for sim_cls in (Simulator, ReferenceSimulator):
            cm = CostModel()
            sim = sim_cls(rng=seeded_rng(5, "net"), latency_fn=cm.net_delay, trace=True, **kwargs)
            nodes, seqs = scenario(sim)
            seen = {n.node_id: [(t, m.hop) for t, m in n.seen] for n in nodes}
            out.append((sim.dump_trace(), sim.dropped_count, seqs, seen))
        assert out[0] == out[1]
        return out[0]

    def test_future_crash_delivers_before_and_drops_after(self):
        def scenario(sim):
            a = sim.add_node(Recorder("a"))
            b = sim.add_node(Recorder("b", forward_to="a", cost=300, max_hops=1))
            sim.inject_fault("b", FaultKind.CRASHED, at_time=1_000)
            seqs = [sim.send("a", "b", Ping(0), extra_delay=d) for d in (0, 0, 100, 2_000, 3_000)]
            sim.run(until=1_500)
            seqs.append(sim.send("a", "b", Ping(0)))
            seqs.append(sim.send("b", "a", Ping(0)))  # a crashed sender emits nothing
            sim.run()
            return (a, b), seqs

        trace, dropped, seqs, seen = self._both(scenario)
        assert seqs[-1] is None and None not in seqs[:-1]
        assert seen["b"] and all(t < 1_000 for t, _ in seen["b"])
        assert dropped >= 3

    def test_cleared_partition_keeps_dropping_to_a_crashed_node(self):
        def scenario(sim):
            nodes = [sim.add_node(Recorder(n)) for n in "abc"]
            sim.inject_fault("c", FaultKind.CRASHED, at_time=0)
            sim.run(until=0)
            sim.set_partition([{"a"}, {"b", "c"}])
            seqs = [sim.send("a", "b", Ping(0)), sim.send("b", "c", Ping(0))]
            sim.run()
            sim.clear_partition()
            seqs += [sim.send("a", "b", Ping(1)), sim.send("a", "c", Ping(1)),
                     sim.send("c", "a", Ping(1))]
            sim.run()
            return nodes, seqs

        trace, dropped, seqs, seen = self._both(scenario)
        assert seen == {"a": [], "b": [(seen["b"][0][0], 1)], "c": []}
        assert dropped == 3 and seqs[-1] is None

    def test_partition_cleared_before_a_scheduled_crash_fires(self):
        def scenario(sim):
            nodes = [sim.add_node(Recorder(n, cost=50)) for n in "ab"]
            sim.inject_fault("b", FaultKind.CRASHED, at_time=2_000)
            sim.set_partition([{"a"}, {"b"}])
            sim.clear_partition()
            seqs = [sim.send("a", "b", Ping(i), extra_delay=600 * i) for i in range(6)]
            sim.run()
            return nodes, seqs

        trace, dropped, seqs, seen = self._both(scenario)
        assert 0 < len(seen["b"]) < 6 and dropped == 6 - len(seen["b"])

    def test_crash_then_heal(self):
        def scenario(sim):
            a = sim.add_node(Recorder("a"))
            b = sim.add_node(Recorder("b", forward_to="a", cost=200, max_hops=9))
            sim.inject_fault("b", FaultKind.CRASHED, at_time=1_000)
            sim.heal("b", at_time=4_000)
            seqs = [sim.send("a", "b", Ping(i), extra_delay=500 * i) for i in range(12)]
            sim.run()
            return (a, b), seqs

        trace, dropped, seqs, seen = self._both(scenario)
        times = [t for t, _ in seen["b"]]
        assert any(t < 1_000 for t in times) and any(t >= 4_000 for t in times)
        assert not any(1_000 <= t < 4_000 for t in times) and dropped > 0

    def test_silent_byzantine_sender(self):
        def scenario(sim):
            a = sim.add_node(Recorder("a", forward_to="b", max_hops=9))
            b = sim.add_node(Recorder("b", forward_to="a", max_hops=9))
            sim.inject_fault("a", FaultKind.BYZANTINE_SILENT, at_time=3_000)
            seqs = [sim.send("b", "a", Ping(0))]
            sim.run(until=3_500)
            seqs.append(sim.send("a", "b", Ping(0)))
            sim.run()
            return (a, b), seqs

        trace, dropped, seqs, seen = self._both(scenario, allow_byzantine=True)
        assert seqs[0] is not None and seqs[1] is None
        assert any(t >= 3_000 for t, _ in seen["a"])
        # a's last sends left before 3_000, and a latency draw is at most 800
        assert not any(t >= 3_000 + 800 for t, _ in seen["b"])


class TestBusyNodes:
    def test_messages_queue_behind_processing(self):
        sim = Simulator()
        node = sim.add_node(Recorder("a", cost=10))
        sim.schedule("a", Ping(1), delay=0)
        sim.schedule("a", Ping(2), delay=1)
        sim.schedule("a", Ping(3), delay=2)
        sim.run()
        assert [(t, m.hop) for t, m in node.seen] == [(0, 1), (10, 2), (20, 3)]

    def test_sends_depart_after_processing(self):
        sim = Simulator()  # zero latency
        sim.add_node(Recorder("a", forward_to="b", cost=7, max_hops=1))
        b = sim.add_node(Recorder("b"))
        sim.schedule("a", Ping(0), delay=0)
        sim.run()
        assert b.seen == [(7, Ping(1))]

    def test_pending_counts_events_waiting_behind_a_busy_node(self):
        sim = Simulator()
        sim.add_node(Recorder("a", cost=10))
        for delay in (0, 1, 1, 2, 5):
            sim.schedule("a", Ping(0), delay=delay)
        assert sim.pending() == 5
        sim.run(until=5)  # one delivered, four waiting in one group at t=10
        assert sim.pending() == 4 and len(sim._queue) == 1
        sim.schedule("a", Ping(0), delay=0)  # takes the seq after the group's
        assert sim.pending() == 5
        sim.step()  # so it waits in a second group of its own
        assert sim.pending() == 5 and len(sim._queue) == 2
        sim.step()  # first group: one delivered, three re-keyed to t=20
        assert sim.pending() == 4 and len(sim._queue) == 2 and sim.now == 10
        sim.step()  # second group follows their seqs at t=20 and joins them
        assert sim.pending() == 4 and len(sim._queue) == 1
        sim.run()
        assert sim.pending() == 0 and sim.delivered_counts == {"ping": 6}


def _ping_ring_trace(seed: int) -> str:
    sim = _sim(seed, trace=True)
    for name in ("n0", "n1", "n2"):
        sim.add_node(Recorder(name, cost=0))
    nodes = ["n0", "n1", "n2"]
    for i, name in enumerate(nodes):
        sim.nodes[name].forward_to = nodes[(i + 1) % 3]
        sim.nodes[name].max_hops = 4
    sim.schedule("n0", Ping(0), delay=0)
    sim.run()
    return sim.dump_trace()


def _contended_trace() -> str:
    # zero latency: arrivals tie with busy_until; "z" handles at no cost and
    # bounces every ping straight back into the busy "w"
    sim = Simulator(trace=True)
    sim.add_node(Recorder("w", forward_to="z", cost=10, max_hops=3))
    sim.add_node(Recorder("z", forward_to="w", cost=0, max_hops=3))
    for delay in (0, 0, 4, 10, 10, 20):
        sim.schedule("w", Ping(0), delay=delay)
    sim.schedule("z", Ping(1), delay=10)
    sim.run()
    return sim.dump_trace()


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        assert _ping_ring_trace(11) == _ping_ring_trace(11)

    def test_distinct_seeds_differ(self):
        assert _ping_ring_trace(11) != _ping_ring_trace(12)

    def test_golden_trace(self):
        # latency draws recorded once with seed 11; columns are
        # time, seq, src, dst, payload-kind
        expected = (
            "0\t1\tNone\tn0\tping\n"
            "307\t2\tn0\tn1\tping\n"
            "1085\t3\tn1\tn2\tping\n"
            "1587\t4\tn2\tn0\tping\n"
            "2015\t5\tn0\tn1\tping\n"
        )
        assert _ping_ring_trace(11) == expected

    def test_golden_contended_trace(self):
        # recorded with the per-event push-back loop; the seq column is each
        # event's original seq, the order follows the seqs of its push-backs
        expected = (
            "0\t1\tNone\tw\tping\n"
            "10\t4\tNone\tw\tping\n"
            "10\t7\tNone\tz\tping\n"
            "10\t8\tw\tz\tping\n"
            "20\t6\tNone\tw\tping\n"
            "20\t11\tw\tz\tping\n"
            "30\t19\tw\tz\tping\n"
            "30\t5\tNone\tw\tping\n"
            "40\t28\tw\tz\tping\n"
            "40\t2\tNone\tw\tping\n"
            "50\t36\tw\tz\tping\n"
            "50\t3\tNone\tw\tping\n"
            "60\t44\tw\tz\tping\n"
            "60\t13\tz\tw\tping\n"
            "70\t52\tw\tz\tping\n"
            "70\t14\tz\tw\tping\n"
            "80\t59\tw\tz\tping\n"
            "80\t20\tz\tw\tping\n"
            "90\t65\tw\tz\tping\n"
            "90\t27\tz\tw\tping\n"
            "100\t70\tw\tz\tping\n"
            "100\t35\tz\tw\tping\n"
            "110\t74\tw\tz\tping\n"
            "110\t43\tz\tw\tping\n"
            "120\t77\tw\tz\tping\n"
            "120\t51\tz\tw\tping\n"
            "130\t79\tw\tz\tping\n"
        )
        assert _contended_trace() == expected


# -- the grouped wait queue against the per-event push-back reference --------

COSTS = (0, 0, 1, 3, 5)
DELAYS = (0, 0, 1, 3, 5)  # shared with COSTS so timers tie with busy_until


@dataclass
class Job:
    kind: str


class Scripted(Node):
    """Replays a seeded script: cost, sends, local handoffs, timers, faults.

    Its choices depend only on the order of its own deliveries, so two
    simulators that deliver identically run identical scripts.
    """

    def __init__(self, node_id, seed, peers, budget):
        super().__init__(node_id)
        self.rng = random.Random(seed * 8 + node_id)
        self.peers = peers
        self.budget = budget  # one-item list shared by every node of a run

    def on_message(self, msg):
        rng, sim = self.rng, self.sim
        cost = rng.choice(COSTS)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            if self.budget[0] <= 0:
                break
            self.budget[0] -= 1
            dst = rng.randrange(self.peers)
            delay = rng.choice((0, cost, cost, 2))
            how = rng.random()
            if how < 0.5:
                self.send(dst, Job("a"), extra_delay=delay)
            elif how < 0.75:
                self.local(dst, Job("b"), delay=delay)
            else:
                self.set_timer(delay, Job("timer"))
        roll = rng.random()
        target = rng.randrange(self.peers)
        if roll < 0.1:
            # a pause like sharding's reconfiguration, on any node
            node = sim.nodes[target]
            node.busy_until = max(node.busy_until, sim.now + rng.choice((1, 5, 9)))
        elif roll < 0.14:
            sim.inject_fault(target, FaultKind.CRASHED, at_time=sim.now + rng.choice(DELAYS))
        elif roll < 0.2:
            sim.heal(target, at_time=sim.now + rng.choice(DELAYS))
        elif roll < 0.23:
            sim.set_partition([{target}, set(range(self.peers)) - {target}])
        elif roll < 0.26:
            sim.clear_partition()
        return cost


node_ids = st.integers(0, 4)
scenarios = st.fixed_dictionaries({
    "nodes": st.integers(1, 5),
    "seed": st.integers(0, 2**16),
    "budget": st.integers(0, 150),
    "slices": st.lists(st.fixed_dictionaries({
        # (target, src or None, delay) injected from outside the loop
        "inject": st.lists(st.tuples(node_ids, st.none() | node_ids, st.sampled_from(DELAYS)),
                           max_size=8),
        "faults": st.lists(st.tuples(node_ids, st.booleans(), st.sampled_from(DELAYS)),
                           max_size=2),
        "partition": st.none() | st.just("clear") | st.lists(st.integers(0, 1), min_size=5,
                                                            max_size=5),
        "span": st.integers(0, 40),
    }), min_size=1, max_size=5),
})


def _play(sim_cls, scenario):
    """Run one scenario in slices; returns everything observable after each."""
    n = scenario["nodes"]
    sim = sim_cls(rng=random.Random(scenario["seed"]),
                  latency_fn=lambda r: r.choice((0, 0, 1, 4)), trace=True)
    budget = [scenario["budget"]]
    for i in range(n):
        sim.add_node(Scripted(i, scenario["seed"], n, budget))
    seen = []
    for piece in scenario["slices"]:
        if piece["partition"] == "clear":
            sim.clear_partition()
        elif piece["partition"] is not None:
            groups = piece["partition"][:n]
            sim.set_partition([{i for i in range(n) if groups[i] == g} for g in (0, 1)])
        for node, crash, delay in piece["faults"]:
            if crash:
                sim.inject_fault(node % n, FaultKind.CRASHED, at_time=sim.now + delay)
            else:
                sim.heal(node % n, at_time=sim.now + delay)
        seqs = []
        for target, src, delay in piece["inject"]:
            if src is None:
                seqs.append(sim.schedule(target % n, Job("a"), delay=delay))
            else:
                seqs.append(sim.send(src % n, target % n, Job("a"), extra_delay=delay))
        sim.run(until=sim.now + piece["span"])
        seen.append((seqs, sim.now, sim.pending(), sim.dropped_count,
                     dict(sim.delivered_counts), sim.dump_trace()))
    sim.run()
    seen.append((sim.now, sim.pending(), sim.dropped_count, dict(sim.delivered_counts),
                 sim.dump_trace()))
    return seen


class TestWaitQueueMatchesPushBack:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(scenarios)
    def test_same_trace_seqs_counts_and_clock(self, scenario):
        assert _play(Simulator, scenario) == _play(ReferenceSimulator, scenario)
