"""Reference MPT node encoder and node-store walk for the MPT tests."""

from __future__ import annotations

from txsim.authstore.mpt import EMPTY_ROOT, Branch, Extension, Leaf
from txsim.core.encoding import Writer


def _encode_nibbles(w: Writer, nibbles) -> None:
    w.u32(len(nibbles))
    w.raw(bytes(nibbles))


def reference_encode_node(node) -> bytes:
    """The node encoder as it was before it packed its bytes in one pass.

    One ``Writer`` call per field, kept verbatim as the model that
    ``txsim.authstore.mpt.encode_node`` must match byte for byte.
    """
    w = Writer()
    if isinstance(node, Leaf):
        w.u8(0)
        _encode_nibbles(w, node.suffix)
        w.bytes(node.value)
    elif isinstance(node, Extension):
        w.u8(1)
        _encode_nibbles(w, node.path)
        w.raw(node.child)
    else:
        w.u8(2)
        mask = 0
        for i, child in enumerate(node.children):
            if child is not None:
                mask |= 1 << i
        w.u32(mask)
        for child in node.children:
            if child is not None:
                w.raw(child)
        if node.value is None:
            w.u8(0)
        else:
            w.u8(1)
            w.bytes(node.value)
    return w.getvalue()


def reachable_digests(trie) -> set:
    """Digests of the nodes reachable from the trie's root, found by walking it."""
    seen, stack = set(), [] if trie.root == EMPTY_ROOT else [trie.root]
    while stack:
        d = stack.pop()
        if d not in seen:
            seen.add(d)
            node = trie._nodes[d]
            if isinstance(node, Extension):
                stack.append(node.child)
            elif isinstance(node, Branch):
                stack.extend(c for c in node.children if c is not None)
    return seen


def reference_counts(trie) -> dict:
    """Each reachable digest's parents among the reachable nodes, plus one for the root."""
    counts = dict.fromkeys(reachable_digests(trie), 0)
    if trie.root != EMPTY_ROOT:
        counts[trie.root] += 1
    for d in counts:
        node = trie._nodes[d]
        if isinstance(node, Extension):
            counts[node.child] += 1
        elif isinstance(node, Branch):
            for c in node.children:
                if c is not None:
                    counts[c] += 1
    return counts
