"""Synthetic workloads: YCSB-style key-value streams and a Smallbank OLTP profile."""

from .zipf import ZipfianSampler
from .spec import WorkloadKind, WorkloadSpec, workload_from_file, workload_from_text
from .ycsb import gen_ycsb, scramble_rank, ycsb_key
from .smallbank import SMALLBANK_PROCEDURES, gen_smallbank
from .gen import dump_stream, generate, initial_state, initial_state_key

__all__ = [
    "SMALLBANK_PROCEDURES",
    "WorkloadKind",
    "WorkloadSpec",
    "ZipfianSampler",
    "dump_stream",
    "gen_smallbank",
    "gen_ycsb",
    "generate",
    "initial_state",
    "initial_state_key",
    "scramble_rank",
    "workload_from_file",
    "workload_from_text",
    "ycsb_key",
]
