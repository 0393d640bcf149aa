"""Versioned key-value store: the committed state beneath every pipeline."""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_LEN = struct.Struct(">I")
_VERSION = struct.Struct(">Q")


class VersionedKV:
    """Map of key -> (value, version); versions count committed writes per key.

    Writes land only through ``put_batch`` at commit points, so readers never
    observe uncommitted values.  A batch is atomic and last-write-wins inside
    itself: each touched key's version moves by exactly one.
    Reads see ``_data``, which this store writes, over ``_base``, a read-only
    dict that ``fork`` shares with twins.  Values are the bytes given, not copies.
    """

    def __init__(self):
        self._data: Dict[bytes, Tuple[bytes, int]] = {}
        self._base: Dict[bytes, Tuple[bytes, int]] = {}

    def get(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        return self._data.get(key) or self._base.get(key)

    def version(self, key: bytes) -> int:
        entry = self._data.get(key) or self._base.get(key)
        return entry[1] if entry else 0

    def put_batch(self, writes: Iterable[Tuple[bytes, bytes]]) -> Dict[bytes, int]:
        """Apply writes atomically; returns the new version per touched key."""
        last = {}
        for key, value in writes:
            last[key] = value
        versions = {}
        for key, value in last.items():
            version = self.version(key) + 1
            self._data[key] = (value, version)
            versions[key] = version
        return versions

    def fork(self) -> "VersionedKV":
        """An equal store over a shared base, into which this store's records move
        (in O(1) when it has no base yet, as a pristine store has not)."""
        if self._data:
            self._base = {**self._base, **self._data} if self._base else self._data
            self._data = {}
        twin = VersionedKV()
        twin._base = self._base
        return twin

    def items(self):
        """Every (key, (value, version)) record, each key once."""
        data = self._data
        yield from data.items()
        yield from (item for item in self._base.items() if item[0] not in data)

    def __len__(self) -> int:
        return len(self._data) + sum(key not in self._data for key in self._base)

    def raw_bytes(self) -> int:
        return sum(len(k) + len(v) for k, (v, _) in self.items())

    def state_fingerprint(self) -> bytes:
        """Order-independent digest of the committed contents, for node comparison.

        SHA-256 over each record's canonical encoding, the bytes of
        ``Writer().bytes(key).bytes(value).u64(version)``, in key order.  The
        records are hashed as they are encoded, so no buffer of the whole
        state is built.
        """
        h, data, base = hashlib.sha256(), self._data, self._base
        for key in sorted(key for key, _ in self.items()):
            value, version = data.get(key) or base[key]
            h.update(b"".join((_LEN.pack(len(key)), key, _LEN.pack(len(value)), value,
                               _VERSION.pack(version))))
        return h.digest()


def state_fingerprints(stores: Sequence[VersionedKV]) -> List[bytes]:
    """Each store's ``state_fingerprint``; stores equal to the first reuse its digest."""
    first = stores[0]
    shared, own = first.state_fingerprint(), (first._data, first._base)
    return [shared if (kv._data, kv._base) == own else kv.state_fingerprint() for kv in stores]
