"""Quorum arithmetic for crash and Byzantine failure models."""

from __future__ import annotations

from ..core.types import FailureModel


class QuorumError(ValueError):
    pass


def bft_f_for(n: int) -> int:
    """Largest f a BFT group of n replicas can tolerate (n >= 3f+1)."""
    return max(0, (n - 1) // 3)


def quorum_size(n: int, model: FailureModel) -> int:
    """Commit quorum: majority for CFT, 2f+1 of exactly 3f+1 for BFT.

    BFT group sizes not of the 3f+1 form are rejected here; protocol code
    that must run at other sizes uses the generalized n - floor((n-1)/3).
    """
    if n < 1:
        raise QuorumError("replica group must be non-empty")
    if model is FailureModel.CFT:
        return n // 2 + 1
    f, rem = divmod(n - 1, 3)
    if rem != 0:
        raise QuorumError(f"BFT group size {n} is not of the form 3f+1")
    return 2 * f + 1

