"""Deterministic component-scoped random streams.

Every randomized piece of the simulator (workload keys, network latency,
election timeouts, ...) draws from its own stream derived from
``(seed, label)``.  Streams are independent, so adding or reordering draws in
one component never perturbs another, and the same seed reproduces the same
run bit for bit.  Every uniform integer draw goes through ``int_drawer``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable


def seeded_rng(seed: int, label: str = "") -> random.Random:
    """Random stream for one component, derived from the run seed and a label."""
    material = hashlib.sha256(
        (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big") + label.encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(material, "big"))


def int_drawer(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """``rng.randint(lo, hi)`` per call: the same ``getrandbits`` rejection loop, in one frame."""
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")  # the loop would never end
    getrandbits, n = rng.getrandbits, hi - lo + 1
    k = n.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    return draw
