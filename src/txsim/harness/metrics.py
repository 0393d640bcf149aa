"""The measured surface of one run."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


def percentile(sorted_values, q: float):
    """Nearest-rank percentile over an already sorted list; 0 when empty."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class Metrics:
    submitted: int
    committed: int
    abort_counts: Dict[str, int]
    dropped: int
    pending: int
    span_us: int
    throughput_tps: float
    latency_p50_us: int
    latency_p95_us: int
    latency_p99_us: int
    mean_execute_us: float
    mean_order_us: float
    mean_validate_us: float
    messages_total: int
    messages_per_commit: float
    state_bytes: int
    block_bytes: int
    index_overhead_per_record: float
    stalled: bool
    shard_count: int = 1
    cross_shard_ratio: float = 0.0
    blocked_count: int = 0
    reconfig_interval: int = 0

    def __post_init__(self):
        accounted = self.committed + self.aborted + self.pending + self.dropped
        if accounted != self.submitted:
            raise ValueError(
                f"accounting identity broken: {self.submitted} submitted vs "
                f"{accounted} accounted for"
            )

    @property
    def aborted(self) -> int:
        return sum(self.abort_counts.values())

    @property
    def abort_rate(self) -> float:
        settled = self.committed + self.aborted
        return self.aborted / settled if settled else 0.0


def metrics_from_run(res) -> Metrics:
    """Aggregate a ``RunResult``, flat or sharded, into the metric surface."""
    lat = res.latencies()
    phases = res.phase_means()
    storage = res.storage
    return Metrics(
        submitted=res.submitted,
        committed=res.committed,
        abort_counts=res.abort_counts(),
        dropped=len(res.dropped),
        pending=res.pending,
        span_us=res.span,
        throughput_tps=res.throughput_tps,
        latency_p50_us=percentile(lat, 0.50),
        latency_p95_us=percentile(lat, 0.95),
        latency_p99_us=percentile(lat, 0.99),
        mean_execute_us=phases.execute,
        mean_order_us=phases.order,
        mean_validate_us=phases.validate_commit,
        messages_total=res.consensus_messages(),
        messages_per_commit=res.messages_per_commit,
        state_bytes=storage["state_bytes"],
        block_bytes=storage["block_bytes"],
        index_overhead_per_record=storage["index_overhead_per_record"],
        stalled=res.stalled,
        shard_count=res.shard_count,
        cross_shard_ratio=res.cross_shard_ratio,
        blocked_count=res.blocked_count,
        reconfig_interval=res.reconfig_interval,
    )
