"""Reference MPT node encoders, node-graph walks and round-trip check for the MPT tests."""

from __future__ import annotations

from txsim.authstore.mpt import (
    Branch,
    BranchNode,
    Extension,
    ExtensionNode,
    Leaf,
    LeafNode,
    _encode_branch,
    _encode_extension,
    _encode_leaf,
    decode_node,
)
from txsim.core.encoding import Writer, digest


def _encode_nibbles(w: Writer, nibbles) -> None:
    w.u32(len(nibbles))
    w.raw(bytes(nibbles))


def encode_node(node) -> bytes:
    """Canonical encoding of a digest-valued node through the trie's own
    encoders: the bytes of its stored node's ``encode``."""
    if isinstance(node, Leaf):
        return _encode_leaf(*node)
    if isinstance(node, Extension):
        return _encode_extension(*node)
    children = node.children  # child digests are non-empty, so only None is falsy
    return _encode_branch(children, filter(None, children), node.value)


def reference_encode_node(node) -> bytes:
    """The node encoder as it was before it packed its bytes in one pass.

    One ``Writer`` call per field, kept verbatim as the model that
    ``encode_node`` must match byte for byte.
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


def reachable_nodes(trie) -> list:
    """The stored nodes reachable from the trie's root, each object once, found by walking it."""
    seen, nodes, stack = set(), [], [] if trie._root is None else [trie._root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            if isinstance(node, ExtensionNode):
                stack.append(node.child)
            elif isinstance(node, BranchNode):
                stack.extend(c for c in node.children if c is not None)
    return nodes


def max_path_nibbles(trie) -> int:
    """Deepest root-to-leaf path of the trie, measured in nibble steps."""
    best = 0
    stack = [] if trie._root is None else [(trie._root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, LeafNode):
            best = max(best, depth + len(node.suffix))
        elif isinstance(node, ExtensionNode):
            stack.append((node.child, depth + len(node.path)))
        else:
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in node.children if child is not None)
    return best


def reachable_digests(trie) -> set:
    """Digests of the nodes reachable from the trie's root."""
    return {node.digest for node in reachable_nodes(trie)}


def digest_valued(node):
    """The digest-valued node (what ``decode_node`` returns) equal to a stored node."""
    if isinstance(node, LeafNode):
        return Leaf(node.suffix, node.value)
    if isinstance(node, ExtensionNode):
        return Extension(node.path, node.child.digest)
    return Branch(tuple(c and c.digest for c in node.children), node.value)


def assert_stored_round_trip(node) -> None:
    """A stored node carries its encoding's digest, and that encoding is the
    reference encoding of its digest-valued twin, which it decodes back to."""
    enc = node.encode()
    assert digest(enc) == node.digest
    twin = digest_valued(node)
    assert type(decode_node(enc)) is type(twin) and decode_node(enc) == twin
    assert encode_node(twin) == reference_encode_node(twin) == enc
