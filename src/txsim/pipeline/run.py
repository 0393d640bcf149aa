"""The flat entry point, and the run result that every cell reports.

``run_pipeline`` is the one way to run a flat (unsharded) cell.  It validates
the config, builds the pipeline class that ``PIPELINES`` names for the
concurrency mode, and hands it to ``drive_and_collect``, which runs the one
drive loop (``PipelineBase.drive``) and gathers the ``RunResult``.  A test
that needs a pipeline built with test-only options builds the class itself
and calls ``drive_and_collect`` too.

``RunResult`` is the surface ``harness.metrics_from_run`` reads.  The sharded
runner's ``ShardedResult`` is a ``RunResult`` as well, so one metrics path
measures every cell.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..authstore.kv import state_fingerprints
from ..consensus.base import protocol_messages
from ..core.types import ConcurrencyMode, DesignConfig, TxnOutcome, check_config
from ..workload import WorkloadSpec
from .base import Arrival, PipelineBase
from .eov import ExecuteOrderValidatePipeline
from .order_execute import OrderExecutePipeline
from .records import TxnRecord, mean_phase_timings
from .storage import StorageReplicatedPipeline

# the lifecycle that runs each concurrency mode
PIPELINES = {
    ConcurrencyMode.SERIAL: OrderExecutePipeline,
    ConcurrencyMode.ORDER_EXECUTE: OrderExecutePipeline,
    ConcurrencyMode.EXECUTE_ORDER_VALIDATE: ExecuteOrderValidatePipeline,
    ConcurrencyMode.CONCURRENT_OCC: StorageReplicatedPipeline,
    ConcurrencyMode.CONCURRENT_LOCKING: StorageReplicatedPipeline,
}


def run_span(records, now: int) -> int:
    """Virtual time from the first submission to the last commit; ``now`` without both."""
    submits = [r.submit_time for r in records if r.submit_time is not None]
    commits = [r.commit_time for r in records if r.commit_time is not None]
    return max(commits) - min(submits) if submits and commits else now


@dataclass
class RunResult:
    records: Dict[int, TxnRecord]
    stalled: bool
    span: int
    delivered_counts: Dict[str, int]
    fingerprints: List[bytes]
    roots: Optional[List[bytes]]
    storage: dict
    block_log: list = field(default_factory=list)
    sig_time_total: int = 0
    validate_time_total: int = 0
    trace: Optional[str] = None  # the simulator's trace TSV, when recorded
    final_state: Optional[dict] = None  # observer's committed kv map
    # a flat cell is one shard that never reconfigures
    shard_count: int = 1
    cross_shard_ratio: float = 0.0
    blocked_count: int = 0
    reconfig_interval: int = 0

    @property
    def submitted(self) -> int:
        return len(self.records)

    def outcome_counts(self) -> Counter:
        """How many records hold each outcome; every count below reads these."""
        return Counter(r.outcome for r in self.records.values())

    @property
    def committed(self) -> int:
        return self.outcome_counts()[TxnOutcome.COMMITTED]

    def abort_counts(self) -> Dict[str, int]:
        """``aborted_*`` name -> count, for the ``ABORTED_*`` outcomes that occurred."""
        return {
            o.name.lower(): n
            for o, n in self.outcome_counts().items()
            if o.name.startswith("ABORTED_")
        }

    @property
    def aborted(self) -> int:
        return sum(self.abort_counts().values())

    @property
    def pending(self) -> int:
        return self.outcome_counts()[TxnOutcome.PENDING]

    @property
    def dropped(self) -> int:
        """A count: the records settled ``DROPPED`` at the endorsement timeout."""
        return self.outcome_counts()[TxnOutcome.DROPPED]

    @property
    def abort_rate(self) -> float:
        settled = self.committed + self.aborted
        return self.aborted / settled if settled else 0.0

    def latencies(self) -> List[int]:
        return sorted(
            r.latency for r in self.records.values() if r.latency is not None
        )

    @property
    def throughput_tps(self) -> float:
        if self.committed == 0 or self.span <= 0:
            return 0.0
        return self.committed * 1_000_000 / self.span

    def phase_means(self):
        return mean_phase_timings(self.records.values())

    def consensus_messages(self) -> int:
        return protocol_messages(self.delivered_counts)

    @property
    def messages_per_commit(self) -> float:
        return self.consensus_messages() / self.committed if self.committed else 0.0


def drive_and_collect(pipeline: PipelineBase) -> RunResult:
    """Drive a built pipeline to completion or stall and gather its result."""
    stalled = pipeline.drive()
    peers, observer = pipeline.peers, pipeline.peers[pipeline.observer_id]
    roots = None
    if observer.state.index is not None:
        roots = [p.state.index_root() for p in peers]
    return RunResult(
        records=pipeline.records,
        stalled=stalled,
        span=run_span(pipeline.records.values(), pipeline.sim.now),
        delivered_counts=dict(pipeline.sim.delivered_counts),
        fingerprints=state_fingerprints([p.state.kv for p in peers]),
        roots=roots,
        storage=observer.state.storage_breakdown(),
        block_log=list(getattr(pipeline, "block_log", [])),
        sig_time_total=getattr(pipeline, "sig_time_total", 0),
        validate_time_total=getattr(pipeline, "validate_time_total", 0),
        trace=pipeline.sim.dump_trace() if pipeline.sim.trace is not None else None,
        final_state=dict(observer.state.kv.items()),
    )


def txn_report(result: RunResult) -> str:
    """One tab-separated line per transaction: id, phase times, outcome, cause."""
    lines = ["txn_id\texecute_us\torder_us\tvalidate_us\toutcome\tabort_cause"]
    for txn_id in sorted(result.records):
        r = result.records[txn_id]
        if r.outcome is TxnOutcome.DROPPED:
            outcome, cause = "dropped", "endorsement_timeout"
        elif r.outcome.name.startswith("ABORTED_"):
            outcome, cause = "aborted", r.outcome.name.lower().replace("aborted_", "")
        else:
            outcome, cause = r.outcome.name.lower(), ""
        lines.append(
            f"{txn_id}\t{r.execute_us}\t{r.order_us}\t{r.validate_us}\t{outcome}\t{cause}"
        )
    return "\n".join(lines) + "\n"


def run_pipeline(
    cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int = 0, trace: bool = False
) -> RunResult:
    """Run one flat cell through the lifecycle its concurrency mode names."""
    check_config(cfg)
    pipeline = PIPELINES[cfg.concurrency_mode](cfg, spec, arrival, seed, trace=trace)
    return drive_and_collect(pipeline)
