"""Traced mode: spans around each layer's public entry points, and self time.

A span is recorded for every call of a target in ``TARGETS`` while a cell
runs.  Spans stay in memory (name, start, end, parent, cell) and are written
out when the benchmark ends.  A layer's self time is the duration of its
spans minus the part of each span that its child spans cover, so time spent
in a nested layer (say, MPT inserts inside a block apply) is charged to that
layer only.  The simnet's self time is therefore the event loop minus every
node handler, since every handler that a node registers is a target.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .hooks import Patches

# (span group, target).  The group is the layer metric the span feeds; the
# target is "module:Class.method" or "module:function".
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("simnet.run", "txsim.simnet:Simulator.run"),
    ("workload.generate", "txsim.workload.gen:generate"),
    ("consensus.raft", "txsim.consensus.raft:RaftComponent.handle"),
    ("consensus.pbft", "txsim.consensus.pbft:PbftComponent.handle"),
    # both shared-log orderers: the generic service and EOV's block-forming one
    ("consensus.sharedlog", "txsim.consensus.sharedlog:SharedLogService.on_message"),
    ("consensus.sharedlog", "txsim.pipeline.eov:EovOrderer.handle"),
    ("pipeline.oe", "txsim.pipeline.order_execute:OePeer.handle_oe"),
    ("pipeline.oe", "txsim.pipeline.order_execute:OeWorker.handle"),
    ("pipeline.eov", "txsim.pipeline.eov:EovPeer.handle_eov"),
    ("pipeline.eov", "txsim.pipeline.eov:EovPeer.handle_ordering"),
    ("pipeline.eov", "txsim.pipeline.eov:EovWorker.handle"),
    ("pipeline.storage", "txsim.pipeline.storage:StoragePeer.handle_db"),
    ("pipeline.storage", "txsim.pipeline.storage:StorageWorker.handle"),
    ("pipeline.clients", "txsim.pipeline.base:ClientManager.handle_client"),
    ("sharding", "txsim.sharding:ShardNode.handle_shard"),
    ("sharding", "txsim.sharding:ShardNode.handle_tpc"),
    ("sharding", "txsim.sharding:TrustedCoordinator.handle"),
    ("sharding", "txsim.sharding:BftCoordinatorReplica.handle"),
    ("sharding", "txsim.sharding:BftCoordinatorReplica.on_decided"),
    # the sharded client node dispatches straight into these
    ("sharding", "txsim.sharding:ShardedRun.submit"),
    ("sharding", "txsim.sharding:ShardedRun.finish"),
    ("authstore.apply_batch", "txsim.authstore.state:StateStore.apply_batch"),
    ("authstore.mpt", "txsim.authstore.mpt:MerklePatriciaTrie.put_batch"),
    ("authstore.mpt", "txsim.authstore.mpt:MerklePatriciaTrie.reachable_bytes"),
    ("authstore.ledger.append", "txsim.authstore.ledger:LedgerStore.append"),
    ("encoding.block", "txsim.core.encoding:encode_block"),
    ("encoding.block", "txsim.core.encoding:decode_block"),
    ("encoding.txn", "txsim.core.encoding:encode_transaction"),
    ("encoding.txn", "txsim.core.encoding:decode_transaction"),
    # pipeline payload codecs: EOV block entries and storage-replicated ops
    ("encoding.payload", "txsim.pipeline.eov:encode_entries"),
    ("encoding.payload", "txsim.pipeline.eov:decode_entries"),
    ("encoding.payload", "txsim.pipeline.storage:encode_op"),
    ("encoding.payload", "txsim.pipeline.storage:decode_op"),
)

# results summed per target: events fired per Simulator.run, bytes per encoded block
TOTALS = {
    "txsim.simnet:Simulator.run": ("simnet.steps", int),
    "txsim.core.encoding:encode_block": ("encoding.block.bytes", len),
}

ENCODE_BLOCK = "encoding.block:encode_block"


class Span(NamedTuple):
    name: str  # "<group>:<target attribute>"
    start: float
    end: float
    parent: int  # index of the enclosing span in the same cell, -1 for none
    cell: int

    @property
    def group(self) -> str:
        return self.name.partition(":")[0]


def coverage(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - coverage(span.start, span.end, kids)
        for span, kids in zip(spans, children)
    ]


class Tracer:
    """Records spans for one traced cell."""

    def __init__(self, cell: int):
        self.cell = cell
        self.spans: List[Optional[Span]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.totals: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def _wrapper(self, name: str, total):
        spans, stack, calls, totals = self.spans, self._stack, self.calls, self.totals
        cell, clock = self.cell, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = Span(name, start, end, parent, cell)
                    calls[name] += 1
                if total is not None:
                    totals[total[0]] += total[1](result)
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def install(self, patches: Patches) -> None:
        for group, target in TARGETS:
            name = f"{group}:{target.partition(':')[2]}"
            patches.wrap(target, self._wrapper(name, TOTALS.get(target)))

    def group_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, n in self.calls.items():
            out[name.partition(":")[0]] += n
        return out


def _is_timer(kind: str) -> bool:
    return kind.endswith("timer") or kind.endswith("timeout")


def _delivered(counters: dict, keep) -> int:
    return sum(n for kind, n in counters["simnet.delivered_by_kind"] if keep(kind))


def _messages(counters: dict, prefix: str) -> int:
    """Delivered protocol messages of one prefix, timers excluded."""
    return _delivered(counters, lambda k: k.startswith(prefix) and not _is_timer(k))


def layer_metrics(tracer: Tracer, capture, counters: dict, cell_end: float, txn_count: int) -> dict:
    """Per-layer metrics of one traced cell, from its spans and exact counters."""
    spans = tracer.spans
    selfs = self_times(spans)
    own: Dict[str, float] = defaultdict(float)  # self time after set-up, per group
    setup_apply = 0.0
    generate = 0.0
    encode_block = 0.0
    loop = 0.0
    calls_after: Dict[str, int] = defaultdict(int)
    for span, own_s in zip(spans, selfs):
        group = span.group
        if span.start < capture.drive_enter:
            if group == "authstore.apply_batch":
                setup_apply += span.end - span.start
            elif group == "workload.generate":
                generate += span.end - span.start
            continue
        own[group] += own_s
        calls_after[group] += 1
        if span.name == ENCODE_BLOCK:
            encode_block += span.end - span.start
        elif group == "simnet.run":
            loop += span.end - span.start

    steps = tracer.totals["simnet.steps"]
    delivered = sum(n for _, n in counters["simnet.delivered_by_kind"])
    dropped = counters["simnet.dropped"]
    requeues = steps - delivered - dropped
    block_bytes = tracer.totals["encoding.block.bytes"]
    generated = txn_count * tracer.group_calls()["workload.generate"]
    sharded = capture.sharded_result
    return {
        "simnet.steps": steps,
        "simnet.delivered": delivered,
        "simnet.dropped": dropped,
        "simnet.requeues": requeues,
        "simnet.requeue_ratio": requeues / delivered if delivered else 0.0,
        "simnet.timer_events": _delivered(counters, _is_timer),
        "simnet.self_s": own["simnet.run"],
        "simnet.delivered_per_s": delivered / loop if loop else 0.0,
        "consensus.raft.s": own["consensus.raft"],
        "consensus.raft.msgs": _messages(counters, "raft:"),
        "consensus.pbft.s": own["consensus.pbft"],
        "consensus.pbft.msgs": _messages(counters, "pbft:"),
        "consensus.sharedlog.s": own["consensus.sharedlog"],
        "consensus.s": own["consensus.raft"] + own["consensus.pbft"] + own["consensus.sharedlog"],
        "consensus.msgs_per_commit": counters["consensus.msgs_per_commit"],
        "authstore.apply_batch.calls": calls_after["authstore.apply_batch"],
        "authstore.apply_batch.s": own["authstore.apply_batch"],
        "authstore.mpt.s": own["authstore.mpt"],
        "authstore.ledger.append.calls": calls_after["authstore.ledger.append"],
        "authstore.ledger.append.s": own["authstore.ledger.append"],
        "authstore.preload_s": setup_apply,
        "authstore.hash_ops": counters["authstore.hash_ops"],
        "authstore.hash_bytes": counters["authstore.hash_bytes"],
        "encoding.block.s": own["encoding.block"],
        "encoding.block.bytes": block_bytes,
        "encoding.block.mb_per_s": block_bytes / 1e6 / encode_block if encode_block else 0.0,
        "encoding.txn.s": own["encoding.txn"],
        "encoding.payload.s": own["encoding.payload"],
        "pipeline.oe.s": own["pipeline.oe"],
        "pipeline.eov.s": own["pipeline.eov"],
        "pipeline.storage.s": own["pipeline.storage"],
        "pipeline.clients.s": own["pipeline.clients"],
        "pipeline.virtual_tps": counters["pipeline.virtual_tps"],
        "pipeline.latency_p50_us": counters["pipeline.latency_p50_us"],
        "pipeline.latency_p99_us": counters["pipeline.latency_p99_us"],
        "pipeline.committed": counters["pipeline.committed"],
        "pipeline.aborted": counters["pipeline.aborted"],
        "pipeline.dropped": counters["pipeline.dropped"],
        "sharding.s": own["sharding"],
        "sharding.tpc_msgs": _messages(counters, "2pc:"),
        "sharding.blocked": sharded.blocked_count if sharded is not None else 0,
        "workload.generate_s": generate,
        "workload.txns_per_s": generated / generate if generate else 0.0,
        "harness.collect_s": cell_end - capture.drive_exit,
    }


def write_spans(path, cells: Iterable[Sequence[Span]]) -> None:
    """Tab-separated spans: cell, index, parent, name, start, end (perf_counter s)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cell\tindex\tparent\tname\tstart\tend\n")
        for spans in cells:
            for idx, s in enumerate(spans):
                fh.write(f"{s.cell}\t{idx}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n")
