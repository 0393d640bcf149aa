"""Workload specification and its file forms (key-value sections or JSON)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..core.configio import from_fields, read_fields


class WorkloadKind(enum.Enum):
    YCSB_UPDATE = "ycsb_update"
    YCSB_QUERY = "ycsb_query"
    YCSB_MIXED = "ycsb_mixed"
    SMALLBANK = "smallbank"


SMALLBANK_PROCEDURES = (
    "balance",
    "deposit_checking",
    "transact_savings",
    "write_check",
    "send_payment",
    "amalgamate",
)


@dataclass(frozen=True)
class WorkloadSpec:
    kind: WorkloadKind = WorkloadKind.YCSB_UPDATE
    record_count: int = 1000
    record_size_bytes: int = 1000
    theta: float = 0.0
    ops_per_txn: int = 1
    txn_count: int = 1000
    seed: int = 0
    read_fraction: float = 0.5  # ycsb_mixed only
    constant_total_bytes: int = 0  # when set, record size = total / ops_per_txn
    smallbank_mix: tuple = ()  # ((procedure, weight), ...); empty = uniform

    def __post_init__(self):
        if self.record_count < 1 or self.txn_count < 1:
            raise ValueError("record_count and txn_count must be positive")
        if self.kind is WorkloadKind.SMALLBANK and self.record_count < 2:
            # a transfer moves money between two distinct customers
            raise ValueError("smallbank needs record_count >= 2")
        if not 1 <= self.ops_per_txn <= 10:
            raise ValueError("ops_per_txn must be in 1..10")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError("theta must be a finite number >= 0")
        if self.constant_total_bytes < 0:
            raise ValueError("constant_total_bytes must be >= 0")
        if self.record_size_bytes < 1 and self.constant_total_bytes == 0:
            raise ValueError("record_size_bytes must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        unknown = {name for name, _ in self.smallbank_mix} - set(SMALLBANK_PROCEDURES)
        if unknown:
            raise ValueError(f"unknown smallbank procedures: {sorted(unknown)}")
        weights = [w for _, w in self.smallbank_mix]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError("smallbank_mix weights must be finite and >= 0")
        if weights and sum(weights) == 0:
            raise ValueError("smallbank_mix weights must not all be 0")

    @property
    def effective_record_size(self) -> int:
        if self.constant_total_bytes:
            return max(1, self.constant_total_bytes // self.ops_per_txn)
        return self.record_size_bytes


def workload_from_text(text: str) -> WorkloadSpec:
    """Parse a ``[workload]`` section or its JSON object into a ``WorkloadSpec``."""
    return from_fields(WorkloadSpec, read_fields(text, "workload"))


def workload_from_file(path) -> WorkloadSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return workload_from_text(fh.read())
