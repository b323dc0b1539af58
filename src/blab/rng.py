"""Seedable randomness helpers.

All randomness in this package flows through Philox, a counter-based
generator with a published algorithm, so runs are reproducible across
machines from a single 64-bit seed. Derived seeds are positional
(seed, index) pairs rather than sequential draws, which lets interrupted
runs resume without replaying earlier stages.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator keyed by (seed, stream); independent streams per key."""
    return np.random.Generator(np.random.Philox(key=[seed & MASK64, stream & MASK64]))


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable positional sub-seed: hash of the master seed and index path."""
    h = hashlib.sha256()
    h.update(struct.pack("<Q", master_seed & MASK64))
    for idx in indices:
        h.update(struct.pack("<Q", idx & MASK64))
    return int.from_bytes(h.digest()[:8], "little")
