"""Dispatch over workload kinds, plus the line-based stream dump."""

from __future__ import annotations

from typing import List

from ..core.types import Transaction
from .spec import WorkloadKind, WorkloadSpec
from .smallbank import gen_smallbank, smallbank_initial_state
from .ycsb import gen_ycsb, ycsb_initial_state


def generate(spec: WorkloadSpec) -> List[Transaction]:
    if spec.kind is WorkloadKind.SMALLBANK:
        return gen_smallbank(spec)
    return gen_ycsb(spec)


def initial_state_key(spec: WorkloadSpec) -> tuple:
    """All that ``initial_state`` reads of ``spec``: equal keys, equal records.

    The seed, theta, the transaction shape and count do not enter, so
    every cell of a sweep over them preloads the same records.
    """
    return (spec.kind is WorkloadKind.SMALLBANK, spec.record_count, spec.effective_record_size)


def initial_state(spec: WorkloadSpec) -> List[tuple]:
    """Pre-population writes: every record exists before the stream starts."""
    smallbank, record_count, record_size = initial_state_key(spec)
    if smallbank:
        return smallbank_initial_state(record_count)
    return ycsb_initial_state(record_count, record_size)


def dump_stream(txns) -> str:
    """One line per transaction: id, reads, writes; for cross-run diffing."""
    lines = []
    for txn in txns:
        reads = ",".join(k.decode("latin-1") for k in txn.read_keys)
        writes = ",".join(
            f"{k.decode('latin-1')}={len(v)}B" for k, v in txn.write_set
        )
        flag = "\tapp_abort" if txn.app_abort else ""
        lines.append(f"{txn.id}\tR[{reads}]\tW[{writes}]{flag}")
    return "\n".join(lines) + ("\n" if lines else "")
