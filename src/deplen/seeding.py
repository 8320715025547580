"""Deterministic per-sentence RNG streams.

Every random draw in the pipeline flows from a single global seed; each
sentence (and each named sub-stream) gets its own generator derived by
stable hashing, so results do not depend on scheduling order.
"""

import hashlib

import numpy as np

__all__ = ["derive_rng"]


def derive_rng(seed: int, *keys) -> "np.random.Generator":
    """Generator for the stream identified by (seed, *keys).

    Keys are stringified, so any hashable identifiers (sentence ids,
    strategy names, draw ordinals) work. Each one's `\\` and `|` are escaped
    before the `|` join, so ("a|b",) and ("a", "b") name different streams.
    The stream is `np.random.default_rng` of the first 16 bytes of the
    SHA-256 of the join's UTF-8, read as a little-endian 128-bit integer.
    """
    material = "|".join(str(k).replace("\\", "\\\\").replace("|", "\\|") for k in (seed, *keys))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    # SeedSequence splits an int seed into little-endian 32-bit words and
    # pads them with zeros to four, so these words seed the same stream as
    # int.from_bytes(digest[:16], "little"), without the conversion.
    return np.random.Generator(np.random.PCG64(np.frombuffer(digest[:16], dtype="<u4")))
