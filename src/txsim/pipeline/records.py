"""Per-transaction runtime state and phase timing aggregation.

A ``Transaction`` is the request alone; its ``TxnRecord`` is the one home of
its lifecycle: times, phase durations, read versions and the outcome, which
settles once from ``PENDING`` to ``COMMITTED``, an ``ABORTED_*`` or ``DROPPED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.types import Transaction, TxnOutcome


@dataclass(frozen=True)
class PhaseTimings:
    execute: float
    order: float
    validate_commit: float


@dataclass
class TxnRecord:
    """The lifecycle of one transaction: mutable, settled at most once.

    Phase bounds differ by pipeline, and so do the ``mean_*_us`` columns.
    EOV: execute from submission to the last matching endorsement, order to
    the block's seal, validate from the seal to the end of the observer's
    validation (ordering delivery and the worker queue included).  OE and
    serial: execute to the end of the proposer's pre-execution, order until
    a peer is handed the block, validate the observer's apply cost only (no
    queueing).  Storage-based: execute until every read or latch is in, order
    to the decision, validate the constant ``exec_time_per_op``.  Sharded
    runs set no phase.
    """

    txn: Transaction
    submit_time: Optional[int] = None
    order_time: Optional[int] = None
    commit_time: Optional[int] = None
    outcome: TxnOutcome = TxnOutcome.PENDING
    execute_us: int = 0
    order_us: int = 0
    validate_us: int = 0
    executions: int = 0
    read_versions: Dict[bytes, int] = field(default_factory=dict)

    def mark_ordered(self, at: int) -> None:
        """The ordering layer handed the transaction on at ``at``."""
        self.order_time = at
        self.order_us = max(0, at - self.submit_time - self.execute_us)

    def settle(self, outcome: TxnOutcome, at: int) -> None:
        if self.outcome is not TxnOutcome.PENDING:
            return
        self.outcome = outcome
        if outcome is TxnOutcome.COMMITTED:
            self.commit_time = at

    @property
    def latency(self) -> Optional[int]:
        if self.commit_time is None or self.submit_time is None:
            return None
        return self.commit_time - self.submit_time


def mean_phase_timings(records) -> PhaseTimings:
    done = [r for r in records if r.outcome is TxnOutcome.COMMITTED]
    if not done:
        return PhaseTimings(0.0, 0.0, 0.0)
    n = len(done)
    return PhaseTimings(
        sum(r.execute_us for r in done) / n,
        sum(r.order_us for r in done) / n,
        sum(r.validate_us for r in done) / n,
    )


def latency_breakdown(unsaturated: PhaseTimings, saturated: PhaseTimings) -> dict:
    """Per-phase means under both loads, flagging the phase that grew most."""
    growth = {
        "execute": saturated.execute - unsaturated.execute,
        "order": saturated.order - unsaturated.order,
        "validate_commit": saturated.validate_commit - unsaturated.validate_commit,
    }
    bottleneck = max(growth, key=lambda k: (growth[k], k))
    return {
        "unsaturated": unsaturated,
        "saturated": saturated,
        "growth": growth,
        "bottleneck": bottleneck,
    }
