"""Smallbank-style OLTP stream: six procedures over checking/savings accounts.

Transactions here are read/write sets, not programs, so procedure logic runs
at generation time against reference balances evolved serially; a constraint
violation (insufficient funds) yields a transaction with an empty write set
flagged as an application abort, distinct from any concurrency abort.
Balances are integer cents.

A stream is built in one pass with the same draws, in the same order, as
``Random.choices`` and ``Random.randint`` would make: the procedure pick
bisects cumulative weights computed once (``procedure_picker``), amounts come
from ``core.rng.int_drawer``, the simulator's one uniform integer drawer,
and customers from ``ZipfianSampler.drawer``.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from typing import Callable, List, Sequence

from ..core.rng import int_drawer, seeded_rng
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


def smallbank_initial_state(customers: int) -> List[tuple]:
    out = []
    for c in range(customers):
        out.append((checking_key(c), encode_balance(INITIAL_CHECKING)))
        out.append((savings_key(c), encode_balance(INITIAL_SAVINGS)))
    return out


def procedure_picker(rng, names: Sequence[str], weights: Sequence[float]) -> Callable[[], str]:
    """``rng.choices(names, weights=weights, k=1)[0]`` per call; the weights are summed once."""
    cum_weights = list(accumulate(weights))
    total, hi, random = cum_weights[-1] + 0.0, len(cum_weights) - 1, rng.random
    return lambda: names[bisect(cum_weights, random() * total, 0, hi)]


def gen_smallbank(spec: WorkloadSpec) -> List[Transaction]:
    if spec.kind is not WorkloadKind.SMALLBANK:
        raise ValueError(f"not a smallbank workload: {spec.kind}")
    rng = seeded_rng(spec.seed, "workload")
    customer = ZipfianSampler(spec.record_count, spec.theta).drawer(rng)
    if spec.smallbank_mix:
        names = [name for name, _ in spec.smallbank_mix]
        weights = [w for _, w in spec.smallbank_mix]
    else:
        names = list(SMALLBANK_PROCEDURES)
        weights = [1.0] * len(names)
    pick = procedure_picker(rng, names, weights)
    deposit = int_drawer(rng, 0, 500_00)
    transact = int_drawer(rng, -500_00, 500_00)
    check = int_drawer(rng, 1, 800_00)
    payment = int_drawer(rng, 1, 300_00)
    # reference balances, evolved as if the stream committed serially
    checking = [INITIAL_CHECKING] * spec.record_count
    savings = [INITIAL_SAVINGS] * spec.record_count

    txns = []
    for txn_id in range(1, spec.txn_count + 1):
        proc = pick()
        cust = customer() - 1
        chk = checking_key(cust)
        writes = ()
        aborted = False

        if proc == "balance":
            reads = (chk, savings_key(cust))
        elif proc == "deposit_checking":
            new = checking[cust] + deposit()
            reads = (chk,)
            writes = ((chk, encode_balance(new)),)
            checking[cust] = new
        elif proc == "transact_savings":
            sav = savings_key(cust)
            new = savings[cust] + transact()
            reads = (sav,)
            if new < 0:
                aborted = True
            else:
                writes = ((sav, encode_balance(new)),)
                savings[cust] = new
        elif proc == "write_check":
            amount = check()
            reads = (chk, savings_key(cust))
            if checking[cust] + savings[cust] < amount:
                aborted = True
            else:
                new = checking[cust] - amount
                writes = ((chk, encode_balance(new)),)
                checking[cust] = new
        elif proc == "send_payment":
            dst = customer() - 1
            if dst == cust:
                dst = (cust + 1) % spec.record_count
            dst_chk = checking_key(dst)
            amount = payment()
            reads = (chk, dst_chk)
            if checking[cust] < amount:
                aborted = True
            else:
                src_new = checking[cust] - amount
                dst_new = checking[dst] + amount
                writes = (
                    (chk, encode_balance(src_new)),
                    (dst_chk, encode_balance(dst_new)),
                )
                checking[cust] = src_new
                checking[dst] = dst_new
        else:  # amalgamate
            dst = customer() - 1
            if dst == cust:
                dst = (cust + 1) % spec.record_count
            sav = savings_key(cust)
            dst_chk = checking_key(dst)
            reads = (chk, sav, dst_chk)
            dst_new = checking[dst] + checking[cust] + savings[cust]
            writes = (
                (chk, encode_balance(0)),
                (sav, encode_balance(0)),
                (dst_chk, encode_balance(dst_new)),
            )
            checking[cust] = 0
            savings[cust] = 0
            checking[dst] = dst_new

        txns.append(Transaction(txn_id, reads, writes, len(reads), app_abort=aborted))
    return txns
