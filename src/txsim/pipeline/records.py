"""Per-transaction runtime state and phase timing aggregation.

A ``Transaction`` is the request alone, its read keys without versions; its
``TxnRecord`` is the one home of its lifecycle: four stamps, the versions its
execution read (set once, by EOV's endorsement or the storage pipeline's
reads) and the outcome, which settles once from ``PENDING`` to
``COMMITTED``, an ``ABORTED_*`` or ``DROPPED``.  Each phase spans two
adjacent stamps, the same in every pipeline, so a committed record's phases
sum to its latency: execute from submission until executed, order until the
ordering layer's decision, validate until the commit.
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


def _span(start: Optional[int], end: Optional[int]) -> int:
    """The time from stamp ``start`` to stamp ``end``; 0 while either is unset."""
    return 0 if start is None or end is None else end - start


@dataclass
class TxnRecord:
    """The lifecycle of one transaction: mutable, settled at most once.

    Its phases: ``execute_us`` from submission until executed (endorsed,
    pre-executed, or with every read or latch in); ``order_us`` until the
    ordering layer decided it (its block sealed or handed to the observer's
    worker, the serving peer's decision, a 2PC coordinator's first
    announcement); ``validate_us`` until the observer committed it.
    ``settle`` fills a skipped stamp with the next one set, or the settle
    time, so a record settled without ordering has zero-length later phases.
    """

    txn: Transaction
    submit_time: Optional[int] = None
    executed_time: Optional[int] = None
    order_time: Optional[int] = None
    commit_time: Optional[int] = None
    outcome: TxnOutcome = TxnOutcome.PENDING
    executions: int = 0
    read_versions: Dict[bytes, int] = field(default_factory=dict)

    execute_us = property(lambda r: _span(r.submit_time, r.executed_time))
    order_us = property(lambda r: _span(r.executed_time, r.order_time))
    validate_us = property(lambda r: _span(r.order_time, r.commit_time))

    def settle(self, outcome: TxnOutcome, at: int) -> None:
        if self.outcome is not TxnOutcome.PENDING:
            return
        self.outcome = outcome
        if self.order_time is None:
            self.order_time = at
        if self.executed_time is None:
            self.executed_time = self.order_time
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
