"""Per-cell self-checks, the virtual digest and the exact counters.

Everything here reads public state only: the ``Metrics`` that
``run_experiment`` returns, and the objects the drive hook captured (see
``hooks.Capture``).  A non-empty list from ``check_cell`` fails the cell.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List

from txsim.core.encoding import Writer, digest
from txsim.harness import emit_csv, run_row


def check_cell(metrics, capture, txn_count: int) -> List[str]:
    """Invariants every cell must satisfy; returns one message per violation."""
    failures = []
    accounted = metrics.committed + metrics.aborted + metrics.pending + metrics.dropped
    if accounted != metrics.submitted or metrics.submitted != txn_count:
        failures.append(
            f"accounting: {metrics.submitted} submitted of {txn_count}, {accounted} accounted for"
        )
    if capture.runner is not None:
        result = capture.sharded_result
        if result is None or not capture.runner.all_settled():
            return failures + ["stalled: sharded run ended with unsettled transactions"]
        violations = result.atomicity_violations()
        if violations:
            failures.append(f"atomicity: {len(violations)} violations, first {violations[0]}")
        return failures
    if metrics.stalled:
        failures.append("stalled: the drive loop stopped before every transaction finished")
    result, pipeline = capture.run_result, capture.pipeline
    if result is None or pipeline is None:
        return failures + ["capture: the drive hook or run_pipeline hook did not fire"]
    if len(set(result.fingerprints)) != 1:
        failures.append(f"replicas disagree on state fingerprint: {_distinct(result.fingerprints)}")
    if result.roots is not None and len(set(result.roots)) != 1:
        failures.append(f"replicas disagree on index root: {_distinct(result.roots)}")
    for peer in pipeline.peers:
        ledger = peer.state.ledger
        if ledger is not None:
            broken = ledger.verify_chain()
            if broken is not None:
                failures.append(f"ledger of replica {peer.node_id} breaks at height {broken}")
    return failures


def _distinct(values) -> str:
    return ", ".join(sorted({v.hex()[:12] for v in values}))


def observer_fingerprint(capture) -> bytes:
    """The observer replica's state fingerprint; for sharded runs, of all shard stores."""
    if capture.run_result is not None:
        return capture.run_result.fingerprints[capture.pipeline.observer_id]
    w = Writer()
    for shard in capture.runner.shards:
        w.u32(shard.shard_id).u32(len(shard.store))
        for key in sorted(shard.store):
            w.bytes(key).bytes(shard.store[key])
    return digest(w.getvalue())


def virtual_digest(workload, spec, sim_seed: int, metrics, capture, scratch: Path) -> str:
    """SHA-256 of the cell's ``run_row`` CSV bytes plus the observer fingerprint."""
    path = scratch / "row.csv"
    emit_csv([run_row(workload.cfg, spec, workload.arrival, sim_seed, metrics)], path)
    return hashlib.sha256(path.read_bytes() + observer_fingerprint(capture)).hexdigest()


def exact_counters(metrics, capture) -> Dict[str, object]:
    """Counts that must repeat exactly between runs of one (workload, seed)."""
    sim = capture.sim
    stores = [p.state for p in capture.pipeline.peers] if capture.pipeline is not None else []
    return {
        "simnet.delivered_by_kind": tuple(sorted(sim.delivered_counts.items())),
        "simnet.dropped": sim.dropped_count,
        "simnet.now": sim.now,
        "authstore.hash_ops": sum(s.meter.ops for s in stores),
        "authstore.hash_bytes": sum(s.meter.bytes for s in stores),
        "authstore.block_bytes": sum(s.ledger.block_bytes for s in stores if s.ledger is not None),
        "pipeline.committed": metrics.committed,
        "pipeline.aborted": metrics.aborted,
        "pipeline.dropped": metrics.dropped,
        "pipeline.latency_p50_us": metrics.latency_p50_us,
        "pipeline.latency_p99_us": metrics.latency_p99_us,
        "pipeline.virtual_tps": metrics.throughput_tps,
        "consensus.msgs_per_commit": metrics.messages_per_commit,
    }
