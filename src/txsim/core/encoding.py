"""Canonical byte encoding and the digest used for every hash in the system.

Encoding rules: fields are written in declared order, integers are big-endian
and fixed-width, variable-length byte strings are length-prefixed with a
32-bit count.  This makes every encoder injective on its domain and trivially
portable, which is all the hash layer needs.  Decoders refuse a flag byte
other than 0 or 1 and trailing bytes, so what they accept re-encodes to itself.

A transaction encodes its request only: id, read keys, writes, op count and
the application-abort flag.  Read versions and lifecycle stamps live on the
pipeline's ``TxnRecord``.
"""

from __future__ import annotations

import hashlib
import struct

DIGEST_SIZE = 32


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``; the one hash used for ledger links and index nodes."""
    return hashlib.sha256(data).digest()


class Writer:
    """Appends canonically encoded fields to a growing byte buffer."""

    def __init__(self):
        self._parts = []

    def u8(self, v: int) -> "Writer":
        self._parts.append(struct.pack(">B", v))
        return self

    def u32(self, v: int) -> "Writer":
        self._parts.append(struct.pack(">I", v))
        return self

    def u64(self, v: int) -> "Writer":
        self._parts.append(struct.pack(">Q", v))
        return self

    def raw(self, b: bytes) -> "Writer":
        # fixed-width field; caller guarantees the width
        self._parts.append(b)
        return self

    def bytes(self, b: bytes) -> "Writer":
        self._parts.append(struct.pack(">I", len(b)))
        self._parts.append(b)
        return self

    def opt_raw(self, b, width: int) -> "Writer":
        if b is None:
            return self.u8(0)
        assert len(b) == width
        return self.u8(1).raw(b)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Reads fields back in the same order the Writer emitted them."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError("truncated encoding")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def flag(self) -> bool:
        b = self.u8()
        if b > 1:
            raise ValueError(f"flag byte must be 0 or 1, not {b}")
        return b == 1

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def bytes(self) -> bytes:
        return self._take(self.u32())

    def opt_raw(self, width: int):
        return self.raw(width) if self.flag() else None

    def done(self) -> bool:
        return self._pos == len(self._data)


def encode_transaction(txn) -> bytes:
    w = Writer()
    w.u64(txn.id)
    w.u32(len(txn.read_keys))
    for key in txn.read_keys:
        w.bytes(key)
    w.u32(len(txn.write_set))
    for key, value in txn.write_set:
        w.bytes(key)
        w.bytes(value)
    w.u32(txn.op_count)
    w.u8(1 if txn.app_abort else 0)
    return w.getvalue()


def decode_transaction(data: bytes):
    from .types import Transaction

    r = Reader(data)
    txn_id = r.u64()
    read_keys = tuple(r.bytes() for _ in range(r.u32()))
    write_set = tuple((r.bytes(), r.bytes()) for _ in range(r.u32()))
    op_count = r.u32()
    app_abort = r.flag()
    if not r.done():
        raise ValueError("trailing bytes after transaction")
    return Transaction(
        id=txn_id,
        read_keys=read_keys,
        write_set=write_set,
        op_count=op_count,
        app_abort=app_abort,
    )


def encode_block(block) -> bytes:
    w = Writer()
    w.u64(block.height)
    w.raw(block.parent_digest)
    w.u64(block.proposer)
    w.opt_raw(block.state_root, DIGEST_SIZE)
    w.u32(len(block.txn_list))
    for txn in block.txn_list:
        w.bytes(encode_transaction(txn))
    return w.getvalue()


def decode_block(data: bytes):
    from .types import Block

    r = Reader(data)
    height = r.u64()
    parent_digest = r.raw(DIGEST_SIZE)
    proposer = r.u64()
    state_root = r.opt_raw(DIGEST_SIZE)
    txn_list = tuple(decode_transaction(r.bytes()) for _ in range(r.u32()))
    if not r.done():
        raise ValueError("trailing bytes after block")
    return Block(
        height=height,
        parent_digest=parent_digest,
        txn_list=txn_list,
        proposer=proposer,
        state_root=state_root,
    )
