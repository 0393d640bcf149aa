"""The measured surface of one run."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.types import TxnOutcome


def percentile(sorted_values, q: float):
    """Nearest-rank percentile over an already sorted list; 0 when empty."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


_ABORT_FIELDS = tuple(o.name.lower() for o in TxnOutcome if o.name.startswith("ABORTED_"))


@dataclass(frozen=True)
class Metrics:
    """The measured surface of one run; its fields are the CSV's metric columns, in order.

    Every field but ``shard_count`` (a flat cell is one shard) defaults to
    zero, so a cell that failed to run is
    ``Metrics(submitted=n, pending=n, stalled=True)``.
    There is one ``aborted_*`` count per ``ABORTED_*`` transaction outcome.
    """

    submitted: int = 0
    committed: int = 0
    aborted_rw: int = 0
    aborted_ww: int = 0
    aborted_inconsistent_read: int = 0
    aborted_blocked: int = 0
    aborted_application: int = 0
    dropped: int = 0
    pending: int = 0
    span_us: int = 0
    throughput_tps: float = 0.0
    latency_p50_us: int = 0
    latency_p95_us: int = 0
    latency_p99_us: int = 0
    mean_execute_us: float = 0.0
    mean_order_us: float = 0.0
    mean_validate_us: float = 0.0
    messages_total: int = 0
    messages_per_commit: float = 0.0
    state_bytes: int = 0
    block_bytes: int = 0
    index_overhead_per_record: float = 0.0
    shard_count: int = 1
    cross_shard_ratio: float = 0.0
    blocked_count: int = 0
    reconfig_interval: int = 0
    stalled: bool = False

    def __post_init__(self):
        accounted = self.committed + self.aborted + self.pending + self.dropped
        if accounted != self.submitted:
            raise ValueError(
                f"accounting identity broken: {self.submitted} submitted vs "
                f"{accounted} accounted for"
            )

    @property
    def aborted(self) -> int:
        return sum(getattr(self, name) for name in _ABORT_FIELDS)


def metrics_from_run(res) -> Metrics:
    """Aggregate a ``RunResult``, flat or sharded, into the metric surface."""
    lat = res.latencies()
    phases = res.phase_means()
    storage = res.storage
    return Metrics(
        submitted=res.submitted,
        committed=res.committed,
        **res.abort_counts(),
        dropped=res.dropped,  # a count, read from the records' outcomes
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
