"""Smallbank-style OLTP stream: six procedures over checking/savings accounts.

Transactions here are read/write sets, not programs, so procedure logic runs
at generation time against a reference state evolved serially; a constraint
violation (insufficient funds) yields a transaction with an empty write set
flagged as an application abort, distinct from any concurrency abort.
Balances are integer cents.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.rng import seeded_rng
from ..core.types import Transaction
from .spec import SMALLBANK_PROCEDURES, WorkloadKind, WorkloadSpec
from .zipf import ZipfianSampler

INITIAL_CHECKING = 1_000_00  # cents
INITIAL_SAVINGS = 1_000_00


def checking_key(cust: int) -> bytes:
    return b"chk%012d" % cust


def savings_key(cust: int) -> bytes:
    return b"sav%012d" % cust


def encode_balance(cents: int) -> bytes:
    # write_check may overdraft checking below zero when savings covers it
    return cents.to_bytes(8, "big", signed=True)


def decode_balance(value: bytes) -> int:
    return int.from_bytes(value, "big", signed=True)


class _RefState:
    """Reference balances evolved as if the stream committed serially."""

    def __init__(self, customers: int):
        self.checking = {c: INITIAL_CHECKING for c in range(customers)}
        self.savings = {c: INITIAL_SAVINGS for c in range(customers)}

    def total(self) -> int:
        return sum(self.checking.values()) + sum(self.savings.values())


def smallbank_initial_state(customers: int) -> List[tuple]:
    out = []
    for c in range(customers):
        out.append((checking_key(c), encode_balance(INITIAL_CHECKING)))
        out.append((savings_key(c), encode_balance(INITIAL_SAVINGS)))
    return out


def gen_smallbank(spec: WorkloadSpec) -> List[Transaction]:
    if spec.kind is not WorkloadKind.SMALLBANK:
        raise ValueError(f"not a smallbank workload: {spec.kind}")
    rng = seeded_rng(spec.seed, "workload")
    sampler = ZipfianSampler(spec.record_count, spec.theta)
    state = _RefState(spec.record_count)
    if spec.smallbank_mix:
        names = [name for name, _ in spec.smallbank_mix]
        weights = [w for _, w in spec.smallbank_mix]
    else:
        names = list(SMALLBANK_PROCEDURES)
        weights = [1.0] * len(names)

    txns = []
    for txn_id in range(1, spec.txn_count + 1):
        proc = rng.choices(names, weights=weights, k=1)[0]
        cust = sampler.sample(rng) - 1
        reads: List[Tuple[bytes, None]] = []
        writes: List[Tuple[bytes, bytes]] = []
        aborted = False

        if proc == "balance":
            reads = [(checking_key(cust), None), (savings_key(cust), None)]
        elif proc == "deposit_checking":
            amount = rng.randint(0, 500_00)
            reads = [(checking_key(cust), None)]
            new = state.checking[cust] + amount
            writes = [(checking_key(cust), encode_balance(new))]
            state.checking[cust] = new
        elif proc == "transact_savings":
            amount = rng.randint(-500_00, 500_00)
            reads = [(savings_key(cust), None)]
            new = state.savings[cust] + amount
            if new < 0:
                aborted = True
            else:
                writes = [(savings_key(cust), encode_balance(new))]
                state.savings[cust] = new
        elif proc == "write_check":
            amount = rng.randint(1, 800_00)
            reads = [(checking_key(cust), None), (savings_key(cust), None)]
            if state.checking[cust] + state.savings[cust] < amount:
                aborted = True
            else:
                new = state.checking[cust] - amount
                writes = [(checking_key(cust), encode_balance(new))]
                state.checking[cust] = new
        elif proc == "send_payment":
            dst = sampler.sample(rng) - 1
            if dst == cust:
                dst = (cust + 1) % spec.record_count
            amount = rng.randint(1, 300_00)
            reads = [(checking_key(cust), None), (checking_key(dst), None)]
            if state.checking[cust] < amount:
                aborted = True
            else:
                src_new = state.checking[cust] - amount
                dst_new = state.checking[dst] + amount
                writes = [
                    (checking_key(cust), encode_balance(src_new)),
                    (checking_key(dst), encode_balance(dst_new)),
                ]
                state.checking[cust] = src_new
                state.checking[dst] = dst_new
        else:  # amalgamate
            dst = sampler.sample(rng) - 1
            if dst == cust:
                dst = (cust + 1) % spec.record_count
            reads = [
                (checking_key(cust), None),
                (savings_key(cust), None),
                (checking_key(dst), None),
            ]
            moved = state.checking[cust] + state.savings[cust]
            dst_new = state.checking[dst] + moved
            writes = [
                (checking_key(cust), encode_balance(0)),
                (savings_key(cust), encode_balance(0)),
                (checking_key(dst), encode_balance(dst_new)),
            ]
            state.checking[cust] = 0
            state.savings[cust] = 0
            state.checking[dst] = dst_new

        txns.append(
            Transaction(
                id=txn_id,
                read_set=tuple(reads),
                write_set=tuple(writes),
                app_abort=aborted,
            )
        )
    return txns
