"""YCSB-style key-value transaction streams.

Keys are drawn by Zipfian rank and pushed through a fixed multiplicative
permutation of the key space, so the hottest ranks scatter instead of
clustering in one range partition.  Update transactions read each key and
write it back (read-modify-write); query transactions only read.

A stream is built in one pass over one draw path (``ZipfianSampler.drawer``),
with the same draws in the same order for a given spec.  Within one
``gen_ycsb`` call each record's key is built once, and the zero padding of
every value once; nothing is kept between calls.
"""

from __future__ import annotations

import math
from typing import Callable, List

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


def scramble_rank(rank: int, n: int) -> int:
    """Bijective rank -> key-index map over [0, n)."""
    return ((rank - 1) * _scramble_multiplier(n)) % n


def ycsb_key(index: int) -> bytes:
    """16-byte key for a record index, nibbles spread by multiplicative mixing.

    The first half is a bijection of the index (odd multiplier mod 2^64), so
    distinct indexes always give distinct keys.
    """
    hi = (index * _SCRAMBLE) & _MASK64
    lo = ((index + 1) * 0xC2B2AE3D27D4EB4F) & _MASK64
    return hi.to_bytes(8, "big") + lo.to_bytes(8, "big")


def value_maker(size: int) -> Callable[[int, int], bytes]:
    """``(txn_id, op) -> value`` of ``size`` bytes, its zero padding built once.

    A value is the 8-byte transaction id, the 4-byte op number and ``val!``,
    zero-padded to ``size`` or cut to it when ``size`` < 16.
    """
    pad = b"\x00" * (size - 16)

    def value(txn_id: int, op: int) -> bytes:
        return (txn_id.to_bytes(8, "big") + op.to_bytes(4, "big") + b"val!" + pad)[:size]

    return value


def gen_ycsb(spec: WorkloadSpec) -> List[Transaction]:
    if spec.kind not in (
        WorkloadKind.YCSB_UPDATE,
        WorkloadKind.YCSB_QUERY,
        WorkloadKind.YCSB_MIXED,
    ):
        raise ValueError(f"not a YCSB workload: {spec.kind}")
    rng = seeded_rng(spec.seed, "workload")
    draw = ZipfianSampler(spec.record_count, spec.theta).drawer(rng)
    n = spec.record_count
    c = _scramble_multiplier(n)
    ops = min(spec.ops_per_txn, n)
    value = value_maker(spec.effective_record_size)
    always_update = spec.kind is WorkloadKind.YCSB_UPDATE
    mixed = spec.kind is WorkloadKind.YCSB_MIXED
    random, read_fraction = rng.random, spec.read_fraction
    keys = {}  # record index -> its key, built on first use
    txns = []
    for txn_id in range(1, spec.txn_count + 1):
        read_keys = []
        while len(read_keys) < ops:
            idx = (draw() - 1) * c % n
            key = keys.get(idx)
            if key is None:
                key = keys[idx] = ycsb_key(idx)
            if key not in read_keys:
                read_keys.append(key)
        if always_update or (mixed and random() >= read_fraction):
            write_set = tuple([(key, value(txn_id, op)) for op, key in enumerate(read_keys)])
        else:
            write_set = ()
        txns.append(Transaction(txn_id, tuple(read_keys), write_set, ops))
    return txns


def ycsb_initial_state(record_count: int, record_size: int) -> List[tuple]:
    value = value_maker(record_size)
    return [(ycsb_key(i), value(0, i)) for i in range(record_count)]
