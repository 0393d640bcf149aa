"""Merkle bucket tree: fixed-size authenticated index.

Records hash into ``BUCKET_COUNT`` buckets; above them sits a Merkle tree of
fanout ``FANOUT``, so the depth is capped at ceil(log_FANOUT(BUCKET_COUNT)) = 5
regardless of how many records exist.  One write touches a single
bucket-to-root path: depth + 1 digest recomputations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import List, Optional, Tuple

from ..core.encoding import Writer, digest
from .meter import HashMeter

BUCKET_COUNT = 1000
FANOUT = 4


def _bucket_digest_bytes(entries) -> bytes:
    w = Writer()
    for key, value in entries:
        w.bytes(key).bytes(value)
    return w.getvalue()


@cache
def _empty_levels() -> List[List[bytes]]:
    """The digest levels of a tree with every bucket empty, built on first use."""
    levels = [[digest(b"")] * BUCKET_COUNT]
    while len(levels[-1]) > 1:
        below = levels[-1]
        parents = []
        for i in range(0, len(below), FANOUT):
            parents.append(digest(b"".join(below[i : i + FANOUT])))
        levels.append(parents)
    return levels


@dataclass
class MbtProof:
    bucket_index: int
    position: int  # the record's index inside its (sorted) bucket
    entries: Tuple[Tuple[bytes, bytes], ...]
    # one (position_in_group, sibling digests) pair per tree level, bottom up
    path: Tuple[Tuple[int, Tuple[Optional[bytes], ...]], ...]
    bucket_count: int
    fanout: int

    @property
    def path_length(self) -> int:
        """Tree depth plus the record's position inside its bucket."""
        return len(self.path) + self.position


class MerkleBucketTree:
    def __init__(self):
        self.meter = HashMeter()
        self.buckets: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(BUCKET_COUNT)]
        self.levels = [list(level) for level in _empty_levels()]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def bucket_of(self, key: bytes) -> int:
        return int.from_bytes(digest(key), "big") % BUCKET_COUNT

    def get(self, key: bytes) -> Optional[bytes]:
        for k, v in self.buckets[self.bucket_of(key)]:
            if k == key:
                return v
        return None

    def put(self, key: bytes, value: bytes) -> bytes:
        idx = self.bucket_of(key)
        bucket = self.buckets[idx]
        for i, (k, _) in enumerate(bucket):
            if k == key:
                bucket[i] = (key, value)
                break
        else:
            bucket.append((key, value))
            bucket.sort(key=lambda kv: kv[0])
        self._recompute_path(idx)
        return self.root

    def put_batch(self, writes) -> bytes:
        for key, value in writes:
            self.put(key, value)
        return self.root

    def _recompute_path(self, bucket_index: int) -> None:
        data = _bucket_digest_bytes(self.buckets[bucket_index])
        self.levels[0][bucket_index] = digest(data)
        self.meter.count(len(data))
        idx = bucket_index
        for level in range(1, len(self.levels)):
            idx //= FANOUT
            start = idx * FANOUT
            children = self.levels[level - 1][start : start + FANOUT]
            joined = b"".join(children)
            self.levels[level][idx] = digest(joined)
            self.meter.count(len(joined))

    # -- proofs -------------------------------------------------------------------

    def prove(self, key: bytes) -> MbtProof:
        if self.get(key) is None:
            raise KeyError(f"no committed value for {key!r}")
        bucket_index = self.bucket_of(key)
        bucket = self.buckets[bucket_index]
        position = next(i for i, (k, _) in enumerate(bucket) if k == key)
        path = []
        idx = bucket_index
        for level in range(1, len(self.levels)):
            pos = idx % FANOUT
            start = (idx // FANOUT) * FANOUT
            group = self.levels[level - 1][start : start + FANOUT]
            siblings = tuple(d for i, d in enumerate(group) if i != pos)
            path.append((pos, siblings))
            idx //= FANOUT
        return MbtProof(
            bucket_index=bucket_index,
            position=position,
            entries=tuple(bucket),
            path=tuple(path),
            bucket_count=BUCKET_COUNT,
            fanout=FANOUT,
        )

    def index_bytes(self) -> int:
        """Digest-tree storage on top of the raw records."""
        return sum(len(level) for level in self.levels) * 32


def verify(root: bytes, key: bytes, value: bytes, proof: MbtProof) -> bool:
    """Pure check of (key, value) against ``root`` using only the proof."""
    if proof.bucket_count < 1 or proof.fanout < 2:
        return False
    if int.from_bytes(digest(key), "big") % proof.bucket_count != proof.bucket_index:
        return False
    if not (0 <= proof.position < len(proof.entries)):
        return False
    if proof.entries[proof.position] != (key, value):
        return False
    current = digest(_bucket_digest_bytes(proof.entries))
    for pos, siblings in proof.path:
        if pos > len(siblings):
            return False
        group = list(siblings[:pos]) + [current] + list(siblings[pos:])
        current = digest(b"".join(group))
    return current == root
