"""Optimistic validation: the one pure decision function both modes share.

OCC mode rejects write-write overlap with concurrently validated transactions
via the intent table, then stale reads (write checks run first, mirroring
systems whose aborts are dominated by write-write conflicts).  EOV mode
passes no write keys and no intents, which leaves only the stale-read check
of its read versions against the store at commit.
"""

from __future__ import annotations

from typing import Dict

from ..core.types import TxnOutcome


def occ_validate(
    read_versions: Dict[bytes, int],
    write_keys,
    store,
    intents: Dict[bytes, int],
) -> TxnOutcome:
    """Decide Commit / AbortedRW / AbortedWW purely from captured versions.

    ``read_versions`` maps key -> version observed at simulation/read time;
    ``store`` answers ``version(key)``; ``intents`` maps key -> the highest
    version already claimed by a validated-but-unapplied writer.
    """

    def current(key: bytes) -> int:
        return max(store.version(key), intents.get(key, 0))

    for key in write_keys:
        observed = read_versions.get(key)
        if observed is not None and current(key) != observed:
            return TxnOutcome.ABORTED_WW
    write_set = set(write_keys)
    for key, observed in read_versions.items():
        if key in write_set:
            continue  # already judged as a write-write conflict above
        if current(key) != observed:
            return TxnOutcome.ABORTED_RW
    return TxnOutcome.COMMITTED
