"""Back-of-the-envelope throughput forecast over the design space.

The replication model decides the band first (replicating whole transactions
caps concurrency), the failure model second (BFT's quadratic traffic and
per-message verification cost).  Tier 1 is slowest.  Designs with optimistic
or locking concurrency carry a variance flag: under high contention their
throughput can collapse, so the ordering is only checked at low contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.types import (
    ConcurrencyMode,
    DesignConfig,
    FailureModel,
    IndexKind,
    ReplicationApproach,
    ReplicationModel,
)

_TIERS = {
    (ReplicationModel.TRANSACTION_BASED, FailureModel.BFT): 1,
    (ReplicationModel.TRANSACTION_BASED, FailureModel.CFT): 2,
    (ReplicationModel.STORAGE_BASED, FailureModel.BFT): 3,
    (ReplicationModel.STORAGE_BASED, FailureModel.CFT): 4,
}

_HIGH_VARIANCE_MODES = {ConcurrencyMode.CONCURRENT_OCC, ConcurrencyMode.CONCURRENT_LOCKING}


@dataclass(frozen=True)
class ForecastBand:
    tier: int  # 1 (slowest) .. 4 (fastest)
    high_variance: bool

    @property
    def label(self) -> str:
        names = {
            1: "txn-based + BFT",
            2: "txn-based + CFT",
            3: "storage-based + BFT",
            4: "storage-based + CFT",
        }
        return names[self.tier]


def forecast_band(cfg: DesignConfig) -> ForecastBand:
    tier = _TIERS[(cfg.replication_model, cfg.failure_model)]
    return ForecastBand(tier=tier, high_variance=cfg.concurrency_mode in _HIGH_VARIANCE_MODES)


def corner_configs() -> List[DesignConfig]:
    """One archetype per (replication model x failure model) corner.

    Transaction-based corners are serial order-execute chains with a ledger;
    storage-based corners are optimistic databases without one.  All four
    share four nodes and the default cost model so only the two forecast
    factors differ.
    """
    return [
        DesignConfig(
            replication_model=model,
            replication_approach=ReplicationApproach.CONSENSUS,
            failure_model=failure,
            concurrency_mode=mode,
            ledger_enabled=ledger,
            index=IndexKind.PLAIN,
            node_count=4,
            tolerated_failures=1,
        )
        for model, mode, ledger in (
            (ReplicationModel.TRANSACTION_BASED, ConcurrencyMode.ORDER_EXECUTE, True),
            (ReplicationModel.STORAGE_BASED, ConcurrencyMode.CONCURRENT_OCC, False),
        )
        for failure in (FailureModel.BFT, FailureModel.CFT)
    ]


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    violations: Tuple[str, ...] = ()
    skipped: bool = False
    note: str = ""


def check_forecast_consistency(results, theta: float = 0.0) -> ConsistencyReport:
    """Do simulated peak throughputs respect the forecast ordering?

    ``results`` pairs each corner DesignConfig with its measured Metrics.
    Under high contention the high-variance corners make the ordering
    unreliable, so the check is skipped with a note instead of judged.
    """
    results = list(results)
    by_tier = {}
    for cfg, metrics in results:
        band = forecast_band(cfg)
        by_tier.setdefault(band.tier, []).append((cfg, band, metrics))
    missing = [t for t in (1, 2, 3, 4) if t not in by_tier]
    if missing:
        return ConsistencyReport(
            ok=False,
            violations=(
                f"sweep must cover all four corners; missing tiers {missing}",
            ),
        )
    if theta >= 0.8 and any(
        band.high_variance for entries in by_tier.values() for _, band, _ in entries
    ):
        return ConsistencyReport(
            ok=True,
            skipped=True,
            note=(
                "high-contention run with high-variance concurrency corners; "
                "tier ordering not required"
            ),
        )
    peaks = {t: max(m.throughput_tps for _, _, m in by_tier[t]) for t in by_tier}
    violations = []
    for slow, fast in ((1, 2), (2, 3), (3, 4)):
        if not peaks[slow] < peaks[fast]:
            violations.append(
                f"tier {slow} ({peaks[slow]:.1f} tps) not strictly below "
                f"tier {fast} ({peaks[fast]:.1f} tps)"
            )
    return ConsistencyReport(ok=not violations, violations=tuple(violations))
