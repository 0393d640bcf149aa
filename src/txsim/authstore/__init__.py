"""State storage: versioned KV, authenticated indexes, hash-chained ledger."""

from .kv import VersionedKV
from .mpt import EMPTY_ROOT, MerklePatriciaTrie, MptProof, TransitionMemo
from .mbt import MerkleBucketTree, MbtProof
from .ledger import GENESIS_PARENT, LedgerStore
from .meter import HashMeter
from .state import StateStore

__all__ = [
    "EMPTY_ROOT",
    "GENESIS_PARENT",
    "HashMeter",
    "LedgerStore",
    "MbtProof",
    "MerkleBucketTree",
    "MerklePatriciaTrie",
    "MptProof",
    "StateStore",
    "TransitionMemo",
    "VersionedKV",
]
