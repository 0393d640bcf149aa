"""Per-node state: versioned KV plus the configured authenticated index.

Commits flow through ``apply_batch``, which keeps KV and index in lockstep
and reports the digest work done so the caller can charge virtual time.
The initial records go in once through ``load``, which is set-up and
meters nothing.
"""

from __future__ import annotations

from typing import Optional

from ..core.types import IndexKind
from .kv import VersionedKV
from .ledger import LedgerStore
from .mbt import MerkleBucketTree
from .meter import HashMeter
from .mpt import MerklePatriciaTrie, TransitionMemo


class StateStore:
    def __init__(self, index: IndexKind, ledger_enabled: bool):
        self.kv = VersionedKV()
        self.index_kind = index
        if index is IndexKind.MPT:
            self.index = MerklePatriciaTrie()
        elif index is IndexKind.MBT:
            self.index = MerkleBucketTree()
        else:
            self.index = None
        # the index meters its own hash work; a plain store has none to meter
        self.meter = HashMeter() if self.index is None else self.index.meter
        self.ledger: Optional[LedgerStore] = LedgerStore() if ledger_enabled else None

    def get(self, key: bytes):
        return self.kv.get(key)

    def version(self, key: bytes) -> int:
        return self.kv.version(key)

    def apply_batch(self, writes) -> tuple:
        """Commit writes; returns (new versions, hash ops, hash bytes)."""
        snap = self.meter.snapshot()
        versions = self.kv.put_batch(writes)
        if self.index is not None:
            # the index sees the deduplicated batch, matching what committed
            self.index.put_batch(
                [(k, self.kv.get(k)[0]) for k in versions]
            )
        ops, nbytes = self.meter.delta_since(snap)
        return versions, ops, nbytes

    def load(self, writes) -> None:
        """Pre-populate an empty store with ``writes``; set-up, so nothing is metered.

        KV and index end up as after ``apply_batch(writes)``.  An MPT is built
        bottom-up in one pass (``MerklePatriciaTrie.load``), so no node is
        hashed twice and none is stored only to be freed again.
        """
        if len(self.kv):
            raise ValueError("load needs an empty store")
        versions = self.kv.put_batch(writes)
        if self.index is not None:
            records = [(k, self.kv.get(k)[0]) for k in versions]
            if self.index_kind is IndexKind.MPT:
                self.index.load(records)
            else:
                self.index.put_batch(records)
        self.meter.ops = self.meter.bytes = 0

    def fork(self, memo: TransitionMemo) -> "StateStore":
        """A replica of this store: equal contents, independent from here on.

        The fork is a fresh store of this one's index kind and ledger
        setting.  It owns its MBT containers (every store's MBT has the same
        geometry, so copied bucket and level lists make it equal), a zeroed
        meter and an empty ledger.  It shares only immutable objects with
        this store (KV records, trie nodes, value bytes, bucket entries), so
        no record is hashed or copied: the KV is a ``VersionedKV.fork``.
        An MPT fork copies nothing: trie nodes hold their children, so the
        fork takes this store's root node and a put copies only the path it
        rewrites; a replaced node is freed once no root or memo entry reaches
        it.  An MPT fork also joins a transition memo, so a batch that every
        replica applies at the same root is computed once.  Only stores that
        apply batches may share a memo (``MerklePatriciaTrie.share``), so
        this store, kept pristine to fork from, stays out of ``memo``.  Other
        indexes ignore ``memo``.
        """
        index = self.index
        twin = StateStore(self.index_kind, self.ledger is not None)
        if self.index_kind is IndexKind.MBT:
            twin.index.buckets = [list(bucket) for bucket in index.buckets]
            twin.index.levels = [list(level) for level in index.levels]
        elif index is not None:
            index.share(twin.index, memo)
        twin.kv = self.kv.fork()
        return twin

    def index_root(self) -> bytes:
        if self.index is None:
            raise ValueError("index_root requires an authenticated index (mpt or mbt)")
        return self.index.root

    def storage_breakdown(self) -> dict:
        records = len(self.kv)
        state_bytes = self.kv.raw_bytes()
        if self.index_kind is IndexKind.MPT:
            index_bytes = max(0, self.index.reachable_bytes() - state_bytes)
        elif self.index_kind is IndexKind.MBT:
            index_bytes = self.index.index_bytes()
        else:
            index_bytes = 0
        return {
            "records": records,
            "state_bytes": state_bytes,
            "block_bytes": self.ledger.block_bytes if self.ledger else 0,
            "index_overhead_bytes": index_bytes,
            "index_overhead_per_record": index_bytes / records if records else 0.0,
        }
