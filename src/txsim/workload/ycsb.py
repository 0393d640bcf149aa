"""YCSB-style key-value transaction streams.

Keys are drawn by Zipfian rank and pushed through a fixed multiplicative
permutation of the key space, so the hottest ranks scatter instead of
clustering in one range partition.  Update transactions read each key and
write it back (read-modify-write); query transactions only read.
"""

from __future__ import annotations

import math
from typing import List

from ..core.rng import seeded_rng
from ..core.types import Transaction
from .spec import WorkloadKind, WorkloadSpec
from .zipf import ZipfianSampler

_SCRAMBLE = 0x9E3779B97F4A7C15  # fixed odd constant
_MASK64 = (1 << 64) - 1


def _scramble_multiplier(n: int) -> int:
    c = _SCRAMBLE % n or 1
    while math.gcd(c, n) != 1:
        c += 1
    return c


def rank_scrambler(n: int):
    """``scramble_rank`` for one record count, with its multiplier computed once."""
    c = _scramble_multiplier(n)
    return lambda rank: ((rank - 1) * c) % n


def scramble_rank(rank: int, n: int) -> int:
    """Bijective rank -> key-index map over [0, n)."""
    return rank_scrambler(n)(rank)


def ycsb_key(index: int) -> bytes:
    """16-byte key for a record index, nibbles spread by multiplicative mixing.

    The first half is a bijection of the index (odd multiplier mod 2^64), so
    distinct indexes always give distinct keys.
    """
    hi = (index * _SCRAMBLE) & _MASK64
    lo = ((index + 1) * 0xC2B2AE3D27D4EB4F) & _MASK64
    return hi.to_bytes(8, "big") + lo.to_bytes(8, "big")


def make_value(txn_id: int, op: int, size: int) -> bytes:
    prefix = txn_id.to_bytes(8, "big") + op.to_bytes(4, "big") + b"val!"
    if size <= len(prefix):
        return prefix[:size]
    return prefix + b"\x00" * (size - len(prefix))


def gen_ycsb(spec: WorkloadSpec) -> List[Transaction]:
    if spec.kind not in (
        WorkloadKind.YCSB_UPDATE,
        WorkloadKind.YCSB_QUERY,
        WorkloadKind.YCSB_MIXED,
    ):
        raise ValueError(f"not a YCSB workload: {spec.kind}")
    rng = seeded_rng(spec.seed, "workload")
    sampler = ZipfianSampler(spec.record_count, spec.theta)
    size = spec.effective_record_size
    ops = min(spec.ops_per_txn, spec.record_count)
    scramble = rank_scrambler(spec.record_count)
    txns = []
    for txn_id in range(1, spec.txn_count + 1):
        indexes = []
        chosen = set()
        while len(indexes) < ops:
            idx = scramble(sampler.sample(rng))
            if idx not in chosen:
                chosen.add(idx)
                indexes.append(idx)
        if spec.kind is WorkloadKind.YCSB_UPDATE:
            is_update = True
        elif spec.kind is WorkloadKind.YCSB_QUERY:
            is_update = False
        else:
            is_update = rng.random() >= spec.read_fraction
        keys = [ycsb_key(i) for i in indexes]
        read_set = tuple((k, None) for k in keys)
        write_set = (
            tuple((k, make_value(txn_id, i, size)) for i, k in enumerate(keys))
            if is_update
            else ()
        )
        txns.append(Transaction(id=txn_id, read_set=read_set, write_set=write_set))
    return txns


def ycsb_initial_state(record_count: int, record_size: int) -> List[tuple]:
    return [(ycsb_key(i), make_value(0, i, record_size)) for i in range(record_count)]
