"""Deterministic named random streams derived from one u64 root seed.

Every source of randomness in the package (data synthesis, dropout masks,
transform sampling, weight init, batch order) pulls from its own named
stream so that consuming extra draws in one place never shifts another.
"""

from __future__ import annotations

import zlib

import numpy as np

def named_stream(root_seed: int, name: str) -> np.random.Generator:
    """Independent Generator for (root_seed, name); stable across runs."""
    if not 0 <= int(root_seed) < 2**64:
        raise ValueError(f"root seed must fit in u64, got {root_seed}")
    tag = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=(tag,))
    return np.random.Generator(np.random.PCG64(ss))
