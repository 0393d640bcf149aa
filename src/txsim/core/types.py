"""Domain types spanning the four design axes, plus config validation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple


class ReplicationModel(enum.Enum):
    TRANSACTION_BASED = "transaction_based"
    STORAGE_BASED = "storage_based"


class ReplicationApproach(enum.Enum):
    CONSENSUS = "consensus"
    SHARED_LOG = "shared_log"
    PRIMARY_BACKUP = "primary_backup"


class FailureModel(enum.Enum):
    CFT = "cft"
    BFT = "bft"


class ConcurrencyMode(enum.Enum):
    SERIAL = "serial"
    ORDER_EXECUTE = "order_execute"
    EXECUTE_ORDER_VALIDATE = "execute_order_validate"
    CONCURRENT_OCC = "concurrent_occ"
    CONCURRENT_LOCKING = "concurrent_locking"


class IndexKind(enum.Enum):
    PLAIN = "plain"
    MPT = "mpt"
    MBT = "mbt"


class ShardingMode(enum.Enum):
    NONE = "none"
    TRUSTED_2PC = "trusted_2pc"
    BFT_COORDINATED_2PC = "bft_coordinated_2pc"


# Modes whose lifecycle replicates whole transactions; the rest replicate
# individual storage operations under a trusted transaction manager.
TXN_BASED_MODES = frozenset(
    {
        ConcurrencyMode.SERIAL,
        ConcurrencyMode.ORDER_EXECUTE,
        ConcurrencyMode.EXECUTE_ORDER_VALIDATE,
    }
)
STORAGE_BASED_MODES = frozenset(
    {ConcurrencyMode.CONCURRENT_OCC, ConcurrencyMode.CONCURRENT_LOCKING}
)


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs, all in integer microsecond-like units.

    ``hash_time_per_byte`` may be fractional; hash costs are truncated to an
    integer after the multiply so event times stay integral.
    """

    net_latency_min: int = 200
    net_latency_mean: int = 500
    exec_time_per_op: int = 20
    hash_time_base: int = 2
    hash_time_per_byte: float = 1.0
    sig_verify_time: int = 100
    block_size_limit: int = 20
    block_timeout: int = 5000
    reconfig_pause: int = 50_000

    def hash_cost(self, ops: int, nbytes: int) -> int:
        """Virtual time to hash ``nbytes`` bytes in ``ops`` digest operations."""
        return ops * self.hash_time_base + int(nbytes * self.hash_time_per_byte)

    def net_delay(self, rng) -> int:
        """One latency draw: uniform over [min, 2*mean - min].

        ``randrange(lo, hi + 1)`` is the call ``randint(lo, hi)`` makes, so the
        draws are the same, one Python frame cheaper.
        """
        return rng.randrange(
            self.net_latency_min, 2 * self.net_latency_mean - self.net_latency_min + 1
        )

    def violations(self):
        out = []
        for name in (
            "net_latency_min",
            "net_latency_mean",
            "exec_time_per_op",
            "hash_time_base",
            "hash_time_per_byte",
            "sig_verify_time",
            "block_timeout",
            "reconfig_pause",
        ):
            if getattr(self, name) < 0:
                out.append(f"cost_model.{name} must be non-negative")
        if self.block_size_limit < 1:
            out.append("cost_model.block_size_limit must be >= 1")
        if self.net_latency_mean < self.net_latency_min:
            out.append("cost_model.net_latency_mean must be >= net_latency_min")
        return out


@dataclass(frozen=True)
class DesignConfig:
    """One point in the design space of distributed transactional systems."""

    replication_model: ReplicationModel = ReplicationModel.TRANSACTION_BASED
    replication_approach: ReplicationApproach = ReplicationApproach.CONSENSUS
    failure_model: FailureModel = FailureModel.CFT
    concurrency_mode: ConcurrencyMode = ConcurrencyMode.ORDER_EXECUTE
    ledger_enabled: bool = True
    index: IndexKind = IndexKind.PLAIN
    sharding_mode: ShardingMode = ShardingMode.NONE
    reconfiguration_interval: int = 0  # virtual time; 0 disables
    node_count: int = 5
    tolerated_failures: int = 2
    cost_model: CostModel = field(default_factory=CostModel)


def validate_config(cfg: DesignConfig):
    """Check every DesignConfig invariant; returns a list of violations (empty = ok)."""
    out = []
    n, f = cfg.node_count, cfg.tolerated_failures
    if n < 1:
        out.append("node_count must be positive")
    if f < 0:
        out.append("tolerated_failures must be >= 0")
    if cfg.failure_model is FailureModel.CFT and n < 2 * f + 1:
        out.append(f"N < 2f+1 (N={n}, f={f})")
    if cfg.failure_model is FailureModel.BFT and n < 3 * f + 1:
        out.append(f"N < 3f+1 (N={n}, f={f})")
    if (
        cfg.concurrency_mode in TXN_BASED_MODES
        and cfg.replication_model is not ReplicationModel.TRANSACTION_BASED
    ):
        out.append(
            "pipeline/model mismatch: "
            f"{cfg.concurrency_mode.value} requires transaction_based replication"
        )
    if (
        cfg.concurrency_mode in STORAGE_BASED_MODES
        and cfg.replication_model is not ReplicationModel.STORAGE_BASED
    ):
        out.append(
            "pipeline/model mismatch: "
            f"{cfg.concurrency_mode.value} requires storage_based replication"
        )
    if (
        cfg.concurrency_mode in TXN_BASED_MODES
        and cfg.replication_approach is ReplicationApproach.PRIMARY_BACKUP
    ):
        out.append(
            f"{cfg.concurrency_mode.value} supports consensus or shared_log ordering, "
            "not primary_backup"
        )
    if cfg.reconfiguration_interval < 0:
        out.append("reconfiguration_interval must be >= 0 (0 disables)")
    if cfg.reconfiguration_interval > 0 and cfg.sharding_mode is ShardingMode.NONE:
        out.append("reconfiguration requires a sharding mode")
    out.extend(cfg.cost_model.violations())
    return out


class InvalidConfig(ValueError):
    """A design config that ``validate_config`` rejects; ``violations`` says why."""

    def __init__(self, violations):
        super().__init__("invalid design config: " + "; ".join(violations))
        self.violations = violations


def check_config(cfg: DesignConfig) -> None:
    """Raise ``InvalidConfig`` when ``validate_config`` finds a violation."""
    violations = validate_config(cfg)
    if violations:
        raise InvalidConfig(violations)


class TxnOutcome(enum.Enum):
    PENDING = 0
    COMMITTED = 1
    ABORTED_RW = 2
    ABORTED_WW = 3
    ABORTED_INCONSISTENT_READ = 4
    ABORTED_BLOCKED = 5
    # not in the original abort taxonomy: a constraint violation inside the
    # transaction's own logic (e.g. insufficient funds), distinct from any
    # concurrency-caused abort
    ABORTED_APPLICATION = 6


TERMINAL_OUTCOMES = frozenset(o for o in TxnOutcome if o is not TxnOutcome.PENDING)

CONFLICT_ABORTS = frozenset(
    {
        TxnOutcome.ABORTED_RW,
        TxnOutcome.ABORTED_WW,
        TxnOutcome.ABORTED_INCONSISTENT_READ,
        TxnOutcome.ABORTED_BLOCKED,
    }
)


@dataclass(frozen=True)
class Transaction:
    """A read/write set over keys; immutable, updates go through ``evolve``.

    ``read_set`` holds (key, version-read) pairs; versions are None until an
    execution phase captures them.  ``write_set`` holds (key, value-bytes).
    """

    id: int
    read_set: Tuple[Tuple[bytes, Optional[int]], ...] = ()
    write_set: Tuple[Tuple[bytes, bytes], ...] = ()
    op_count: int = 0
    submit_time: Optional[int] = None
    order_time: Optional[int] = None
    commit_time: Optional[int] = None
    outcome: TxnOutcome = TxnOutcome.PENDING
    app_abort: bool = False

    def __post_init__(self):
        keys = {k for k, _ in self.read_set} | {k for k, _ in self.write_set}
        if self.op_count == 0 and keys:
            object.__setattr__(self, "op_count", len(keys))

    def keys_touched(self):
        return {k for k, _ in self.read_set} | {k for k, _ in self.write_set}

    def evolve(self, **changes) -> "Transaction":
        """Copy with updates; refuses outcome changes away from a terminal state."""
        if "outcome" in changes and self.outcome is not TxnOutcome.PENDING:
            if changes["outcome"] is not self.outcome:
                raise ValueError(f"outcome already terminal: {self.outcome}")
        txn = replace(self, **changes)
        ts = [t for t in (txn.submit_time, txn.order_time, txn.commit_time) if t is not None]
        if ts != sorted(ts):
            raise ValueError("phase timestamps must be monotone: submit <= order <= commit")
        return txn


@dataclass(frozen=True)
class Block:
    """An ordered batch of transactions chained to its parent by digest."""

    height: int
    parent_digest: bytes
    txn_list: Tuple[Transaction, ...] = ()
    proposer: int = 0
    state_root: Optional[bytes] = None
