"""Merkle Patricia Trie: nibble-keyed authenticated index.

Three node kinds (branch, extension, leaf) over 4-bit key steps.  A nibble
path is ``bytes`` (``key_nibbles``), one byte per nibble, held as-is by
leaves, extensions and encodings; a leaf holds the value it was given.  A stored
node (``LeafNode``, ``ExtensionNode``, ``BranchNode``) is immutable, holds
its child nodes and carries the digest of its canonical encoding, computed
and metered once when the node is created; so the root digest is determined
solely by the key-value set.  A put creates a new node for every node on
its path and shares the rest with the trie it replaced (path copying): a
replaced node is freed as soon as no root and no memo entry reaches it.
The trie holds only its root node, so twins share one node graph.  Proofs
and size accounting rebuild the encodings of the nodes they visit; since
the encoding is canonical, the rebuilt bytes are the ones that were
digested.  The access path from root to leaf doubles as the membership
proof, which ``verify`` checks from the encoded bytes alone, decoded into
the digest-valued ``Leaf``, ``Extension`` and ``Branch``.

``put`` and ``put_batch`` model per-write hashing, and the hash work they
meter is what pipelines charge as virtual time.  ``load`` fills an empty
trie bottom-up from the sorted keys, creating each final node once; it is
meant for set-up, whose hash work the state store does not meter.

A batch applied at a root is a pure function of the two: the new root and
the hash work metered.  Tries that ``share`` a ``TransitionMemo`` (replicas
applying the same batches) compute each such transition once, and the
others take its new root node.  A trie that has diverged stands at a
different root, so it misses and computes.

The node encoding is this package's own (branch children are stored sparse,
prefixed by a presence bitmap); it is canonical and injective but not wire
compatible with any production system.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..core.encoding import DIGEST_SIZE, Reader, digest
from .meter import HashMeter

EMPTY_ROOT = digest(b"")  # documented constant for the empty trie

_LEAF, _EXTENSION, _BRANCH = 0, 1, 2

# the hex digits of a key are its nibbles, high nibble first
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def key_nibbles(key: bytes) -> bytes:
    return key.hex().encode().translate(_HEX_TO_NIBBLE)


# The canonical encoding, one routine per node kind: a tag byte, then the
# fields in declared order.  Nibble paths and values are length-prefixed;
# branch children are sparse, behind a 16-bit presence bitmap stored as a u32.
_pack = struct.pack
_NO_VALUE = _pack(">B", 0)
_SLOT_BITS = tuple(1 << i for i in range(16))  # presence-bitmap bit of each branch slot
_digest_of = attrgetter("digest")


def _encode_leaf(suffix: bytes, value: bytes) -> bytes:
    return b"".join((_pack(">BI", _LEAF, len(suffix)), suffix, _pack(">I", len(value)), value))


def _encode_extension(path: bytes, child: bytes) -> bytes:
    return b"".join((_pack(">BI", _EXTENSION, len(path)), path, child))


def _encode_branch(slots: tuple, child_digests, value: Optional[bytes]) -> bytes:
    """``slots``: the 16 children, None where empty; ``child_digests``: theirs, in slot order."""
    tail = _NO_VALUE if value is None else _pack(">BI", 1, len(value)) + value
    head = _pack(">BI", _BRANCH, sum(compress(_SLOT_BITS, slots)))
    return b"".join((head, *child_digests, tail))


class Leaf(NamedTuple):
    suffix: bytes
    value: bytes


class Extension(NamedTuple):
    path: bytes  # at least one nibble
    child: bytes


class Branch(NamedTuple):
    children: Tuple[Optional[bytes], ...]  # 16 slots of child digests
    value: Optional[bytes]


Node = Union[Leaf, Extension, Branch]


def decode_node(data: bytes) -> Node:
    r = Reader(data)
    tag = r.u8()
    if tag == _LEAF:
        return Leaf(r.raw(r.u32()), r.bytes())
    if tag == _EXTENSION:
        return Extension(r.raw(r.u32()), r.raw(DIGEST_SIZE))
    if tag == _BRANCH:
        mask = r.u32()
        children: List[Optional[bytes]] = [None] * 16
        for i in range(16):
            if mask & (1 << i):
                children[i] = r.raw(DIGEST_SIZE)
        value = r.bytes() if r.u8() else None
        return Branch(tuple(children), value)
    raise ValueError(f"unknown node tag {tag}")


# Stored nodes: immutable once ``MerklePatriciaTrie._store`` has set their digest.
class LeafNode:
    __slots__ = ("suffix", "value", "digest")

    def __init__(self, suffix: bytes, value: bytes):
        self.suffix, self.value = suffix, value

    def encode(self) -> bytes:
        return _encode_leaf(self.suffix, self.value)


class ExtensionNode:
    __slots__ = ("path", "child", "digest")

    def __init__(self, path: bytes, child: "StoredNode"):
        self.path, self.child = path, child

    def encode(self) -> bytes:
        return _encode_extension(self.path, self.child.digest)


class BranchNode:
    __slots__ = ("children", "value", "digest")

    def __init__(self, children: tuple, value: Optional[bytes]):
        self.children, self.value = children, value  # 16 slots of child nodes

    def encode(self) -> bytes:
        children = self.children
        return _encode_branch(children, map(_digest_of, filter(None, children)), self.value)


StoredNode = Union[LeafNode, ExtensionNode, BranchNode]


@dataclass
class MptProof:
    """Encoded nodes along the access path, root first."""

    nodes: Tuple[bytes, ...]


def _step(node, nibbles: bytes) -> tuple:
    """Follow ``nibbles`` one node down, through a stored or a digest-valued node.

    Returns (None, child, the nibbles left), the child being a node or a
    digest as ``node`` holds it, or (the key's value or None, None, ()).
    """
    if isinstance(node, (LeafNode, Leaf)):
        return (node.value if node.suffix == nibbles else None), None, ()
    if isinstance(node, (ExtensionNode, Extension)):
        if nibbles[: len(node.path)] != node.path:
            return None, None, ()
        return None, node.child, nibbles[len(node.path) :]
    if not nibbles:
        return node.value, None, ()
    return None, node.children[nibbles[0]], nibbles[1:]


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class TransitionMemo:
    """Batch transitions computed by one trie and taken by the tries sharing it.

    ``sharers`` counts the tries that apply batches through the memo, and
    ``entries`` maps (root digest, batch) to [new root node, hash ops, hash
    bytes, sharers yet to take it].  An entry is dropped once every sharer
    has taken it, so it holds only transitions some sharer has yet to apply.
    """

    __slots__ = ("sharers", "entries")

    def __init__(self):
        self.sharers = 0
        self.entries: Dict[tuple, list] = {}


class MerklePatriciaTrie:
    def __init__(self):
        self._root: Optional[StoredNode] = None  # None for the empty trie
        self.meter = HashMeter()
        self.memo: Optional[TransitionMemo] = None

    @property
    def root(self) -> bytes:
        return EMPTY_ROOT if self._root is None else self._root.digest

    def share(self, twin: "MerklePatriciaTrie", memo: TransitionMemo) -> None:
        """Make ``twin`` an equal trie, and a sharer of ``memo``; nothing is copied.

        The twin takes this trie's root node, so the two share one node
        graph until a put copies the path it rewrites.  The memo rule: every
        sharer must apply the memo's batches, since an entry is dropped only
        once each sharer has taken it.  This trie stays out of ``memo``: it
        is kept pristine to be forked, as ``PipelineBase.preload`` keeps it.
        """
        twin._root = self._root
        memo.sharers += 1
        twin.memo = memo

    def _store(self, node: StoredNode) -> StoredNode:
        """Seal a new node: digest its encoding and meter the hash work."""
        enc = node.encode()
        self.meter.count(len(enc))
        node.digest = digest(enc)
        return node

    # -- queries ---------------------------------------------------------------

    def _access_path(self, key: bytes) -> Tuple[List[StoredNode], Optional[bytes]]:
        """The nodes on ``key``'s path, root first, and its value (None if absent)."""
        path: List[StoredNode] = []
        value, node, nibbles = None, self._root, key_nibbles(key)
        while node is not None:
            path.append(node)
            value, node, nibbles = _step(node, nibbles)
        return path, value

    def get(self, key: bytes) -> Optional[bytes]:
        return self._access_path(key)[1]

    def put(self, key: bytes, value: bytes) -> bytes:
        self._root = self._insert(self._root, key_nibbles(key), value)
        return self._root.digest

    def put_batch(self, writes) -> bytes:
        memo = self.memo
        if memo is None:
            for key, value in writes:
                self.put(key, value)
            return self.root
        step = (self.root, tuple(writes))
        entry = memo.entries.get(step)
        meter = self.meter
        if entry is None:
            ops, nbytes = meter.ops, meter.bytes
            for key, value in writes:
                self.put(key, value)
            if memo.sharers > 1:  # a lone sharer would never take the entry
                memo.entries[step] = [
                    self._root, meter.ops - ops, meter.bytes - nbytes, memo.sharers - 1
                ]
            return self.root
        self._root, ops, nbytes, left = entry
        meter.ops += ops
        meter.bytes += nbytes
        entry[3] = left - 1
        if left == 1:
            del memo.entries[step]
        return self.root

    def load(self, writes) -> bytes:
        """Fill an empty trie with ``writes`` (last write wins); returns the root.

        The result equals ``put_batch(writes)`` on an empty trie: the same
        root, nodes and proofs, but each node is encoded and hashed only once.
        """
        if self._root is not None:
            raise ValueError("load needs an empty trie")
        items = sorted({key_nibbles(key): value for key, value in writes}.items())
        if items:
            self._root = self._build(items, 0, len(items), 0)
        return self.root

    def _build(self, items, lo: int, hi: int, depth: int) -> StoredNode:
        """Create the subtrie of the sorted ``items[lo:hi]``, which share ``depth`` nibbles."""
        first, value = items[lo]
        if hi - lo == 1:
            return self._store(LeafNode(first[depth:], value))
        # in sorted order, the first and last paths share what all of them share
        common = _common_prefix(first[depth:], items[hi - 1][0][depth:])
        end = depth + common
        branch_value = None
        if len(first) == end:  # a key ends here; it sorts first
            branch_value = value
            lo += 1
        children: List[Optional[StoredNode]] = [None] * 16
        while lo < hi:
            nibble = items[lo][0][end]
            group_end = lo + 1
            while group_end < hi and items[group_end][0][end] == nibble:
                group_end += 1
            children[nibble] = self._build(items, lo, group_end, end + 1)
            lo = group_end
        return self._branch_under(first[depth:end], children, branch_value)

    def _branch_under(self, prefix, children: list, value: Optional[bytes]) -> StoredNode:
        """A new branch of ``children`` and ``value``, under an extension of ``prefix`` if any."""
        out = self._store(BranchNode(tuple(children), value))
        return self._store(ExtensionNode(prefix, out)) if prefix else out

    # -- insertion ---------------------------------------------------------------

    def _insert(self, node: Optional[StoredNode], nibbles: bytes, value: bytes):
        if node is None:
            return self._store(LeafNode(nibbles, value))
        if type(node) is LeafNode:
            return self._insert_at_leaf(node, nibbles, value)
        if type(node) is ExtensionNode:
            return self._insert_at_extension(node, nibbles, value)
        return self._insert_at_branch(node, nibbles, value)

    def _insert_at_leaf(self, node: LeafNode, nibbles, value: bytes) -> StoredNode:
        if node.suffix == nibbles:
            return self._store(LeafNode(nibbles, value))
        common = _common_prefix(node.suffix, nibbles)
        children: List[Optional[StoredNode]] = [None] * 16
        branch_value = None
        for suffix, val in ((node.suffix[common:], node.value), (nibbles[common:], value)):
            if suffix:
                children[suffix[0]] = self._store(LeafNode(suffix[1:], val))
            else:
                branch_value = val
        return self._branch_under(nibbles[:common], children, branch_value)

    def _insert_at_extension(self, node: ExtensionNode, nibbles, value: bytes) -> StoredNode:
        common = _common_prefix(node.path, nibbles)
        if common == len(node.path):
            child = self._insert(node.child, nibbles[common:], value)
            return self._store(ExtensionNode(node.path, child))
        # the extension splits at `common`
        children: List[Optional[StoredNode]] = [None] * 16
        branch_value = None
        ext_rest = node.path[common:]
        if len(ext_rest) == 1:
            children[ext_rest[0]] = node.child
        else:
            children[ext_rest[0]] = self._store(ExtensionNode(ext_rest[1:], node.child))
        new_rest = nibbles[common:]
        if new_rest:
            children[new_rest[0]] = self._store(LeafNode(new_rest[1:], value))
        else:
            branch_value = value
        return self._branch_under(nibbles[:common], children, branch_value)

    def _insert_at_branch(self, node: BranchNode, nibbles, value: bytes) -> StoredNode:
        if not nibbles:
            return self._store(BranchNode(node.children, value))
        children = list(node.children)
        head = nibbles[0]
        children[head] = self._insert(children[head], nibbles[1:], value)
        return self._store(BranchNode(tuple(children), node.value))

    # -- proofs --------------------------------------------------------------------

    def prove(self, key: bytes) -> MptProof:
        path, value = self._access_path(key)
        if value is None:
            raise KeyError(f"no committed value for {key!r}")
        return MptProof(tuple(node.encode() for node in path))

    # -- size accounting ---------------------------------------------------------------

    def reachable_bytes(self) -> int:
        """Total encoded size of the nodes reachable from the current root."""
        total = 0
        stack = [] if self._root is None else [self._root]
        while stack:
            node = stack.pop()
            total += len(node.encode())
            if type(node) is ExtensionNode:
                stack.append(node.child)
            elif type(node) is BranchNode:
                stack.extend(filter(None, node.children))
        return total


def verify(root: bytes, key: bytes, value: bytes, proof: MptProof) -> bool:
    """Pure check that (key, value) is committed under ``root``; no store access."""
    expected, nibbles = root, key_nibbles(key)
    for i, enc in enumerate(proof.nodes):
        if digest(enc) != expected:
            return False
        try:
            node = decode_node(enc)
        except (ValueError, IndexError):
            return False
        found, expected, nibbles = _step(node, nibbles)
        if expected is None:  # the walk ends here, so the proof must too
            return i == len(proof.nodes) - 1 and found == value
    return False
