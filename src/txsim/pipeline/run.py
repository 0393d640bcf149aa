"""Pipeline selection plus the raw run result the harness aggregates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.types import ConcurrencyMode, DesignConfig, TxnOutcome, validate_config
from ..workload import WorkloadSpec
from .base import Arrival
from .eov import ExecuteOrderValidatePipeline
from .order_execute import OrderExecutePipeline
from .records import TxnRecord, mean_phase_timings
from .storage import StorageReplicatedPipeline


@dataclass
class RunResult:
    records: Dict[int, TxnRecord]
    dropped: set
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

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def committed(self) -> int:
        return sum(1 for r in self.records.values() if r.outcome is TxnOutcome.COMMITTED)

    def abort_counts(self) -> Dict[str, int]:
        out = {}
        for r in self.records.values():
            if r.outcome not in (TxnOutcome.PENDING, TxnOutcome.COMMITTED):
                out[r.outcome.name.lower()] = out.get(r.outcome.name.lower(), 0) + 1
        return out

    @property
    def aborted(self) -> int:
        return sum(self.abort_counts().values())

    @property
    def pending(self) -> int:
        return sum(
            1
            for tid, r in self.records.items()
            if r.outcome is TxnOutcome.PENDING and tid not in self.dropped
        )

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
        return sum(
            n
            for kind, n in self.delivered_counts.items()
            if (kind.startswith("raft:") or kind.startswith("pbft:") or kind.startswith("slog:") or kind.startswith("pb:"))
            and not kind.endswith("timer")
        )

    @property
    def messages_per_commit(self) -> float:
        return self.consensus_messages() / self.committed if self.committed else 0.0


def _collect(pipeline, stalled: bool) -> RunResult:
    records = pipeline.records
    submit_times = [r.submit_time for r in records.values() if r.submit_time is not None]
    end_times = [r.commit_time for r in records.values() if r.commit_time is not None]
    if submit_times and end_times:
        span = max(end_times) - min(submit_times)
    else:
        span = pipeline.sim.now
    roots = None
    if pipeline.peers and pipeline.peers[0].state.index is not None:
        roots = [p.state.index_root() for p in pipeline.peers]
    return RunResult(
        records=records,
        dropped=set(pipeline.dropped),
        stalled=stalled,
        span=span,
        delivered_counts=dict(pipeline.sim.delivered_counts),
        fingerprints=[p.state.kv.state_fingerprint() for p in pipeline.peers],
        roots=roots,
        storage=pipeline.peers[pipeline.observer_id].state.storage_breakdown(),
        block_log=list(getattr(pipeline, "block_log", [])),
        sig_time_total=getattr(pipeline, "sig_time_total", 0),
        validate_time_total=getattr(pipeline, "validate_time_total", 0),
        trace=pipeline.sim.dump_trace() if pipeline.sim.trace is not None else None,
        final_state=dict(pipeline.peers[pipeline.observer_id].state.kv.items()),
    )


def txn_report(result: RunResult) -> str:
    """One tab-separated line per transaction: id, phase times, outcome, cause."""
    lines = ["txn_id\texecute_us\torder_us\tvalidate_us\toutcome\tabort_cause"]
    for txn_id in sorted(result.records):
        r = result.records[txn_id]
        if txn_id in result.dropped:
            outcome, cause = "dropped", "endorsement_timeout"
        elif r.outcome is TxnOutcome.COMMITTED:
            outcome, cause = "committed", ""
        elif r.outcome is TxnOutcome.PENDING:
            outcome, cause = "pending", ""
        else:
            outcome, cause = "aborted", r.outcome.name.lower().replace("aborted_", "")
        lines.append(
            f"{txn_id}\t{r.execute_us}\t{r.order_us}\t{r.validate_us}\t{outcome}\t{cause}"
        )
    return "\n".join(lines) + "\n"


def _check(cfg: DesignConfig) -> None:
    violations = validate_config(cfg)
    if violations:
        raise ValueError("invalid design config: " + "; ".join(violations))


def run_order_execute(
    cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int = 0, trace: bool = False
) -> RunResult:
    _check(cfg)
    pipeline = OrderExecutePipeline(cfg, spec, arrival, seed, trace=trace)
    return _collect(pipeline, pipeline.drive())


def run_execute_order_validate(
    cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int = 0, trace: bool = False
) -> RunResult:
    _check(cfg)
    pipeline = ExecuteOrderValidatePipeline(cfg, spec, arrival, seed, trace=trace)
    return _collect(pipeline, pipeline.drive())


def run_storage_replicated(
    cfg: DesignConfig,
    spec: WorkloadSpec,
    arrival: Arrival,
    seed: int = 0,
    cc: Optional[ConcurrencyMode] = None,
    lock_timeout: Optional[int] = None,
    trace: bool = False,
) -> RunResult:
    _check(cfg)
    pipeline = StorageReplicatedPipeline(
        cfg, spec, arrival, seed, cc=cc, lock_timeout=lock_timeout, trace=trace
    )
    return _collect(pipeline, pipeline.drive())


def run_pipeline(
    cfg: DesignConfig, spec: WorkloadSpec, arrival: Arrival, seed: int = 0, trace: bool = False
) -> RunResult:
    """Dispatch on the configured concurrency mode / lifecycle."""
    mode = cfg.concurrency_mode
    if mode in (ConcurrencyMode.SERIAL, ConcurrencyMode.ORDER_EXECUTE):
        return run_order_execute(cfg, spec, arrival, seed, trace)
    if mode is ConcurrencyMode.EXECUTE_ORDER_VALIDATE:
        return run_execute_order_validate(cfg, spec, arrival, seed, trace)
    return run_storage_replicated(cfg, spec, arrival, seed, trace=trace)
