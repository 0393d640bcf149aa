"""Merkle Patricia Trie: nibble-keyed authenticated index.

Three node kinds (branch, extension, leaf) over 4-bit key steps.  Nodes are
immutable, and the store keeps each one decoded, keyed by the digest of its
canonical encoding, so the root digest is determined solely by the key-value
set.  A node is encoded once when it is stored, to digest it and to meter the
hash work; lookups and inserts then read the decoded node directly.  Proofs
and size accounting rebuild the encodings of the nodes they visit; since the
encoding is canonical, the rebuilt bytes are the ones that were digested.
The access path from root to leaf doubles as the membership proof, and
``verify`` checks it from the encoded bytes alone.

``put`` and ``put_batch`` model per-write hashing: each insert re-stores
every node on its path, and the hash work they meter is what pipelines
charge as virtual time.  ``load`` fills an empty trie in bulk instead: it
sorts the keys' nibble paths and builds the trie bottom-up, storing each
final node exactly once.  It is meant for set-up, whose hash work the state
store does not meter.

The store holds exactly the nodes reachable from the root.  Nodes are
content-addressed, so one node can have several parents (two leaves with
the same suffix and value, say); each stored digest therefore keeps a
reference count, the number of its parents in the store plus one if it is
the root.  When a put moves the root, the old root is released, and every
node whose count reaches 0 is freed, recursively.  A branch that an insert
rewrites keeps all but one of its children, so the new branch at first
borrows the old one's references to the children it kept: when the old
branch is freed the loan just changes hands, and only if the old branch
survives (it has another parent) does the new one count its kept children.

A batch applied at a root is a pure function of the two: the nodes stored
and freed, in order, the counts that change, the new root and the hash work
metered.  Tries that ``share`` a ``TransitionMemo`` (replicas applying the
same batches) compute each such transition once; the others replay it into
their own node store; only tries that apply batches may share a memo.  A
trie that has diverged stands at a different root, so it misses and
computes.

The node encoding is this package's own (branch children are stored sparse,
prefixed by a presence bitmap); it is canonical and injective but not wire
compatible with any production system.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..core.encoding import DIGEST_SIZE, Reader, digest
from .meter import HashMeter

EMPTY_ROOT = digest(b"")  # documented constant for the empty trie

_LEAF, _EXTENSION, _BRANCH = 0, 1, 2

# the hex digits of a key are its nibbles, high nibble first
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def key_nibbles(key: bytes) -> Tuple[int, ...]:
    return tuple(key.hex().encode().translate(_HEX_TO_NIBBLE))


def _decode_nibbles(r: Reader) -> Tuple[int, ...]:
    return tuple(r.raw(r.u32()))


class Leaf(NamedTuple):
    suffix: Tuple[int, ...]
    value: bytes


class Extension(NamedTuple):
    path: Tuple[int, ...]  # at least one nibble
    child: bytes


class Branch(NamedTuple):
    children: Tuple[Optional[bytes], ...]  # 16 slots of child digests
    value: Optional[bytes]


Node = Union[Leaf, Extension, Branch]

_pack = struct.pack
_NO_VALUE = _pack(">B", 0)
_SLOT_BITS = tuple(1 << i for i in range(16))  # presence-bitmap bit of each branch slot


def encode_node(node: Node) -> bytes:
    """Canonical encoding: a tag byte, then the fields in declared order.

    Nibble paths and values are length-prefixed; branch children are sparse,
    behind a 16-bit presence bitmap stored as a u32.
    """
    if isinstance(node, Leaf):
        suffix, value = node
        return b"".join(
            (_pack(">BI", _LEAF, len(suffix)), bytes(suffix), _pack(">I", len(value)), value)
        )
    if isinstance(node, Extension):
        path, child = node
        return b"".join((_pack(">BI", _EXTENSION, len(path)), bytes(path), child))
    children = node.children  # child digests are non-empty, so only None is falsy
    value = node.value
    tail = _NO_VALUE if value is None else _pack(">BI", 1, len(value)) + value
    head = _pack(">BI", _BRANCH, sum(compress(_SLOT_BITS, children)))
    return b"".join((head, *filter(None, children), tail))


def decode_node(data: bytes) -> Node:
    r = Reader(data)
    tag = r.u8()
    if tag == _LEAF:
        suffix = _decode_nibbles(r)
        return Leaf(suffix, r.bytes())
    if tag == _EXTENSION:
        path = _decode_nibbles(r)
        return Extension(path, r.raw(DIGEST_SIZE))
    if tag == _BRANCH:
        mask = r.u32()
        children: List[Optional[bytes]] = [None] * 16
        for i in range(16):
            if mask & (1 << i):
                children[i] = r.raw(DIGEST_SIZE)
        value = r.bytes() if r.u8() else None
        return Branch(tuple(children), value)
    raise ValueError(f"unknown node tag {tag}")


@dataclass
class MptProof:
    """Encoded nodes along the access path, root first."""

    nodes: Tuple[bytes, ...]

    @property
    def path_length(self) -> int:
        return len(self.nodes)


def _children(node: Node) -> tuple:
    """The digests a node points at; a branch may name one digest twice."""
    if type(node) is Branch:
        return tuple(filter(None, node.children))  # child digests are non-empty
    if type(node) is Extension:
        return (node.child,)
    return ()


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class TransitionMemo:
    """Batch transitions computed by one trie and replayed by the tries sharing it.

    ``sharers`` counts the tries that apply batches through the memo, and
    ``entries`` maps (root, batch) to [new root, the step's ``StoreChanges``,
    hash ops, hash bytes, sharers yet to take it].  An entry is dropped once
    every sharer has taken it, so only transitions some sharer has still to
    apply are held.
    """

    __slots__ = ("sharers", "entries")

    def __init__(self, sharers: int = 0):
        self.sharers = sharers
        self.entries: Dict[tuple, list] = {}


class StoreChanges:
    """What one step did to a node store, recorded so that a replay ends equal.

    ``freed``: digests that were stored before the step and were freed, in
    order; ``added``: the nodes stored by the step that it did not free, in
    the order they were last stored; ``touched``: digests whose count the
    step changed, so ``counts`` (set when the step ends) holds their final
    counts.  Dropping a node that the step both stored and freed, and
    replaying deletions before insertions, leaves the dict order unchanged.
    """

    __slots__ = ("freed", "added", "touched", "counts")

    def __init__(self):
        self.freed: List[bytes] = []
        self.added: Dict[bytes, Node] = {}
        self.touched: set = set()
        self.counts: Dict[bytes, int] = {}


class MerklePatriciaTrie:
    def __init__(self, meter: Optional[HashMeter] = None):
        self._nodes: Dict[bytes, Node] = {}  # digest of the encoding -> node
        self._refs: Dict[bytes, int] = {}  # digest -> parents in the store, +1 for the root
        self.root = EMPTY_ROOT
        self.meter = meter or HashMeter()
        self.memo: Optional[TransitionMemo] = None
        # during a put: lender -> (borrower, the child the borrower replaced, its new child)
        self._lent: Dict[bytes, tuple] = {}
        self._changes: Optional[StoreChanges] = None  # while a transition is recorded

    def share(self, twin: "MerklePatriciaTrie", memo: Optional[TransitionMemo] = None) -> None:
        """Make ``twin`` an equal trie with its own node store, and a sharer of ``memo``.

        The memo rule: every sharer must apply the memo's batches, since an
        entry is dropped only once each sharer has taken it.  By default
        ``twin`` joins this trie's memo, which the first share creates with
        this trie counted in, so this trie must apply batches too.  A trie
        kept pristine only to be forked passes its twins a fresh ``memo``
        and stays out of it.
        """
        twin._nodes = dict(self._nodes)
        twin._refs = dict(self._refs)
        twin.root = self.root
        if memo is None:
            if self.memo is None:
                self.memo = TransitionMemo(sharers=1)
            memo = self.memo
        memo.sharers += 1
        twin.memo = memo

    # -- node store ------------------------------------------------------------

    def _store(self, node: Node, edit: Optional[tuple] = None) -> bytes:
        """Store ``node``; returns its digest.

        ``edit`` is (lender, old child, new child) for a branch rewritten
        from the branch ``lender`` by replacing one child (None for none):
        the new branch counts only its new child and borrows the rest.
        """
        # the encoding is needed only for the digest and the metered length
        enc = encode_node(node)
        d = digest(enc)
        self.meter.count(len(enc))
        nodes = self._nodes
        if d in nodes:
            return d
        nodes[d] = node
        refs = self._refs
        refs[d] = 0
        if edit is not None:
            lender, old_child, new_child = edit
            self._lent[lender] = (d, old_child, new_child)
            counted = () if new_child is None else (new_child,)
        elif type(node) is Leaf:
            counted = ()
        else:
            counted = _children(node)
        for child in counted:
            refs[child] += 1
        changes = self._changes
        if changes is not None:
            changes.added[d] = node
            changes.touched.add(d)
            changes.touched.update(counted)
        return d

    def _set_root(self, root: bytes) -> None:
        """End a put: move the root, free what only the old root held, settle the loans."""
        old, self.root = self.root, root
        refs, nodes, lent, changes = self._refs, self._nodes, self._lent, self._changes
        touched = None if changes is None else changes.touched
        stack = []
        if root != old:
            refs[root] += 1
            if old != EMPTY_ROOT:
                stack.append(old)
        while stack:
            d = stack.pop()
            left = refs[d] - 1
            if left:
                refs[d] = left
                if touched is not None:
                    touched.add(d)
                continue
            del refs[d]
            node = nodes.pop(d)
            if changes is not None and changes.added.pop(d, None) is None:
                changes.freed.append(d)
            loan = lent.pop(d, None)
            if loan is None:
                stack.extend(_children(node))
            elif loan[1] is not None:
                stack.append(loan[1])  # the borrower holds every other child now
        # a lender that survives keeps its references; its borrower counts its own
        for borrower, _, new_child in lent.values():
            kept = list(_children(nodes[borrower]))
            if new_child is not None:
                kept.remove(new_child)
            for child in kept:
                refs[child] += 1
            if touched is not None:
                touched.update(kept)
        lent.clear()
        if touched is not None:
            touched.add(root)

    # -- queries ---------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        if self.root == EMPTY_ROOT:
            return None
        node_digest = self.root
        nibbles = key_nibbles(key)
        while True:
            node = self._nodes[node_digest]
            if isinstance(node, Leaf):
                return node.value if node.suffix == nibbles else None
            if isinstance(node, Extension):
                if nibbles[: len(node.path)] != node.path:
                    return None
                nibbles = nibbles[len(node.path) :]
                node_digest = node.child
            else:
                if not nibbles:
                    return node.value
                child = node.children[nibbles[0]]
                if child is None:
                    return None
                node_digest = child
                nibbles = nibbles[1:]

    def put(self, key: bytes, value: bytes) -> bytes:
        nibbles = key_nibbles(key)
        if self.root == EMPTY_ROOT:
            self._set_root(self._store(Leaf(nibbles, value)))
        else:
            self._set_root(self._insert(self.root, nibbles, value))
        return self.root

    def put_batch(self, writes) -> bytes:
        memo = self.memo
        if memo is None:
            for key, value in writes:
                self.put(key, value)
            return self.root
        step = (self.root, tuple(writes))
        entry = memo.entries.get(step)
        nodes, refs = self._nodes, self._refs
        if entry is None:
            meter = self.meter
            ops, nbytes = meter.ops, meter.bytes
            self._changes = changes = StoreChanges()
            for key, value in writes:
                self.put(key, value)
            self._changes = None
            changes.counts = {d: refs[d] for d in changes.touched if d in refs}
            changes.touched = None
            memo.entries[step] = [
                self.root, changes, meter.ops - ops, meter.bytes - nbytes, memo.sharers - 1
            ]
            return self.root
        root, changes, ops, nbytes, left = entry
        for d in changes.freed:
            del nodes[d], refs[d]
        nodes.update(changes.added)
        refs.update(changes.counts)
        self.meter.ops += ops
        self.meter.bytes += nbytes
        self.root = root
        if left == 1:
            del memo.entries[step]
        else:
            entry[4] = left - 1
        return root

    def load(self, writes) -> bytes:
        """Fill an empty trie with ``writes`` (last write wins); returns the root.

        The result equals ``put_batch(writes)`` on an empty trie: the same
        root, nodes and proofs, but each node is encoded and hashed only once.
        """
        if self.root != EMPTY_ROOT:
            raise ValueError("load needs an empty trie")
        items = sorted({key_nibbles(key): value for key, value in writes}.items())
        if items:
            self._set_root(self._build(items, 0, len(items), 0))
        return self.root

    def _build(self, items, lo: int, hi: int, depth: int) -> bytes:
        """Store the subtrie of the sorted ``items[lo:hi]``, which share ``depth`` nibbles."""
        first, value = items[lo]
        if hi - lo == 1:
            return self._store(Leaf(first[depth:], value))
        # in sorted order, the first and last paths share what all of them share
        common = _common_prefix(first[depth:], items[hi - 1][0][depth:])
        end = depth + common
        branch_value = None
        if len(first) == end:  # a key ends here; it sorts first
            branch_value = value
            lo += 1
        children: List[Optional[bytes]] = [None] * 16
        while lo < hi:
            nibble = items[lo][0][end]
            group_end = lo + 1
            while group_end < hi and items[group_end][0][end] == nibble:
                group_end += 1
            children[nibble] = self._build(items, lo, group_end, end + 1)
            lo = group_end
        out = self._store(Branch(tuple(children), branch_value))
        if common:
            out = self._store(Extension(first[depth:end], out))
        return out

    # -- insertion ---------------------------------------------------------------

    def _insert(self, node_digest: bytes, nibbles: Tuple[int, ...], value: bytes) -> bytes:
        node = self._nodes[node_digest]
        if isinstance(node, Leaf):
            return self._insert_at_leaf(node, nibbles, value)
        if isinstance(node, Extension):
            return self._insert_at_extension(node, nibbles, value)
        return self._insert_at_branch(node_digest, node, nibbles, value)

    def _insert_at_leaf(self, node: Leaf, nibbles, value: bytes) -> bytes:
        if node.suffix == nibbles:
            return self._store(Leaf(nibbles, value))
        common = _common_prefix(node.suffix, nibbles)
        children: List[Optional[bytes]] = [None] * 16
        branch_value = None
        for suffix, val in ((node.suffix[common:], node.value), (nibbles[common:], value)):
            if suffix:
                children[suffix[0]] = self._store(Leaf(suffix[1:], val))
            else:
                branch_value = val
        out = self._store(Branch(tuple(children), branch_value))
        if common:
            out = self._store(Extension(nibbles[:common], out))
        return out

    def _insert_at_extension(self, node: Extension, nibbles, value: bytes) -> bytes:
        common = _common_prefix(node.path, nibbles)
        if common == len(node.path):
            child = self._insert(node.child, nibbles[common:], value)
            return self._store(Extension(node.path, child))
        # the extension splits at `common`
        children: List[Optional[bytes]] = [None] * 16
        branch_value = None
        ext_rest = node.path[common:]
        if len(ext_rest) == 1:
            children[ext_rest[0]] = node.child
        else:
            children[ext_rest[0]] = self._store(Extension(ext_rest[1:], node.child))
        new_rest = nibbles[common:]
        if new_rest:
            children[new_rest[0]] = self._store(Leaf(new_rest[1:], value))
        else:
            branch_value = value
        out = self._store(Branch(tuple(children), branch_value))
        if common:
            out = self._store(Extension(nibbles[:common], out))
        return out

    def _insert_at_branch(self, node_digest: bytes, node: Branch, nibbles, value: bytes) -> bytes:
        if not nibbles:
            return self._store(Branch(node.children, value), (node_digest, None, None))
        children = list(node.children)
        head, rest = nibbles[0], nibbles[1:]
        old = children[head]
        if old is None:
            children[head] = self._store(Leaf(rest, value))
        else:
            children[head] = self._insert(old, rest, value)
        return self._store(Branch(tuple(children), node.value), (node_digest, old, children[head]))

    # -- proofs --------------------------------------------------------------------

    def prove(self, key: bytes) -> MptProof:
        if self.get(key) is None:
            raise KeyError(f"no committed value for {key!r}")
        path: List[bytes] = []
        node_digest = self.root
        nibbles = key_nibbles(key)
        while True:
            node = self._nodes[node_digest]
            path.append(encode_node(node))
            if isinstance(node, Leaf):
                return MptProof(tuple(path))
            if isinstance(node, Extension):
                nibbles = nibbles[len(node.path) :]
                node_digest = node.child
            else:
                if not nibbles:
                    return MptProof(tuple(path))
                node_digest = node.children[nibbles[0]]
                nibbles = nibbles[1:]

    # -- size accounting ---------------------------------------------------------------

    def reachable_bytes(self) -> int:
        """Total encoded size of the nodes reachable from the current root."""
        if self.root == EMPTY_ROOT:
            return 0
        total = 0
        stack = [self.root]
        while stack:
            node = self._nodes[stack.pop()]
            total += len(encode_node(node))
            if isinstance(node, Extension):
                stack.append(node.child)
            elif isinstance(node, Branch):
                stack.extend(c for c in node.children if c is not None)
        return total

    def max_path_nibbles(self) -> int:
        """Deepest root-to-leaf path measured in nibble steps."""
        if self.root == EMPTY_ROOT:
            return 0
        best = 0
        stack = [(self.root, 0)]
        while stack:
            d, depth = stack.pop()
            node = self._nodes[d]
            if isinstance(node, Leaf):
                best = max(best, depth + len(node.suffix))
            elif isinstance(node, Extension):
                stack.append((node.child, depth + len(node.path)))
            else:
                best = max(best, depth)
                for child in node.children:
                    if child is not None:
                        stack.append((child, depth + 1))
        return best


def verify(root: bytes, key: bytes, value: bytes, proof: MptProof) -> bool:
    """Pure check that (key, value) is committed under ``root``; no store access."""
    if not proof.nodes:
        return False
    expected = root
    nibbles = key_nibbles(key)
    for i, enc in enumerate(proof.nodes):
        if digest(enc) != expected:
            return False
        try:
            node = decode_node(enc)
        except (ValueError, IndexError):
            return False
        last = i == len(proof.nodes) - 1
        if isinstance(node, Leaf):
            return last and node.suffix == nibbles and node.value == value
        if isinstance(node, Extension):
            if last or nibbles[: len(node.path)] != node.path:
                return False
            nibbles = nibbles[len(node.path) :]
            expected = node.child
        else:
            if not nibbles:
                return last and node.value == value
            if last:
                return False
            child = node.children[nibbles[0]]
            if child is None:
                return False
            expected = child
            nibbles = nibbles[1:]
    return False
