"""Append-only hash-chained block store with byte accounting."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.encoding import encode_block, digest
from ..core.types import Block

GENESIS_PARENT = bytes(32)  # parent digest expected of the first block


class LedgerError(ValueError):
    pass


class LedgerStore:
    def __init__(self):
        self.blocks: List[Block] = []
        self.tip_digest = GENESIS_PARENT
        self.block_bytes = 0

    def __len__(self) -> int:
        return len(self.blocks)

    def append(self, block: Block, enc: Optional[bytes] = None) -> Tuple[bytes, int]:
        """Persist a block; returns (digest, encoded size).

        The block must extend the current tip: its parent digest is checked,
        and its height must be exactly one above the stored chain.  ``enc``,
        when given, must be ``encode_block(block)``: a replica that decoded
        the block from its ordered bytes passes those bytes, and the ledger
        digests them instead of encoding the block again.  ``verify_chain``
        still re-encodes every block from its fields.
        """
        if block.parent_digest != self.tip_digest:
            raise LedgerError(
                f"parent digest mismatch at height {block.height}: chain tip is "
                f"{self.tip_digest.hex()[:12]}, block claims {block.parent_digest.hex()[:12]}"
            )
        expected_height = self.blocks[-1].height + 1 if self.blocks else 0
        if block.height != expected_height:
            raise LedgerError(f"height {block.height} does not extend {expected_height - 1}")
        if enc is None:
            enc = encode_block(block)
        self.blocks.append(block)
        self.tip_digest = digest(enc)
        self.block_bytes += len(enc)
        return self.tip_digest, len(enc)

    def verify_chain(self) -> Optional[int]:
        """Walk the chain recomputing digests; returns the first broken height, or None."""
        parent = GENESIS_PARENT
        for block in self.blocks:
            if block.parent_digest != parent:
                return block.height
            parent = digest(encode_block(block))
        if self.blocks and parent != self.tip_digest:
            return self.blocks[-1].height  # the tip itself was tampered with
        return None
