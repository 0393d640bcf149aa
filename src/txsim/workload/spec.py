"""Workload specification and its file forms (key-value sections or JSON)."""

from __future__ import annotations

import configparser
import enum
import json
from dataclasses import dataclass


class WorkloadKind(enum.Enum):
    YCSB_UPDATE = "ycsb_update"
    YCSB_QUERY = "ycsb_query"
    YCSB_MIXED = "ycsb_mixed"
    SMALLBANK = "smallbank"


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
        if not 1 <= self.ops_per_txn <= 10:
            raise ValueError("ops_per_txn must be in 1..10")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.record_size_bytes < 1 and self.constant_total_bytes == 0:
            raise ValueError("record_size_bytes must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")

    @property
    def effective_record_size(self) -> int:
        if self.constant_total_bytes:
            return max(1, self.constant_total_bytes // self.ops_per_txn)
        return self.record_size_bytes


_INT_FIELDS = {
    "record_count",
    "record_size_bytes",
    "ops_per_txn",
    "txn_count",
    "seed",
    "constant_total_bytes",
}
_FLOAT_FIELDS = {"theta", "read_fraction"}


def _build_spec(data: dict) -> WorkloadSpec:
    kwargs = {}
    for key, raw in data.items():
        if key == "kind":
            kwargs[key] = WorkloadKind(str(raw).strip().lower())
        elif key in _INT_FIELDS:
            kwargs[key] = int(raw)
        elif key in _FLOAT_FIELDS:
            kwargs[key] = float(raw)
        elif key == "smallbank_mix":
            if isinstance(raw, str):
                pairs = [p.split(":") for p in raw.split(",") if p.strip()]
                kwargs[key] = tuple((name.strip(), float(w)) for name, w in pairs)
            else:
                kwargs[key] = tuple((str(n), float(w)) for n, w in raw)
        else:
            raise ValueError(f"unknown workload field: {key}")
    return WorkloadSpec(**kwargs)


def workload_from_text(text: str) -> WorkloadSpec:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _build_spec(json.loads(text))
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section("workload"):
        raise ValueError("workload file needs a [workload] section")
    return _build_spec(dict(parser["workload"]))


def workload_from_file(path) -> WorkloadSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return workload_from_text(fh.read())
