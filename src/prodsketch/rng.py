"""SplitMix64 word generation, the seed-expansion primitive used everywhere.

All randomness in this package (hash coefficients, synthetic streams) is
derived from 64-bit master seeds through the SplitMix64 finalizer, in
counter mode: word ``t`` of seed ``s`` is ``mix64(s + (t+1)*GAMMA)``.
Counter mode makes every derived word addressable by index, so seed
expansion is splittable and replay is bit-exact on any platform.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Tuple arity: a seed counter gives a dimension 8 bits (hashing), and
# streams are generated up to the same arity.
MAX_DIMS = 256

# Weyl increment and finalizer constants of SplitMix64 (Steele et al.).
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def word_at(seed: int, index: int) -> int:
    """Word ``index`` (0-based) of the counter-mode stream under ``seed``."""
    return mix64((seed + ((index + 1) * GAMMA)) & MASK64)


def words_at(seed: int | np.ndarray, indices: np.ndarray, out=None) -> np.ndarray:
    """Vectorized :func:`word_at`; ``seed`` is an int or a uint64 array broadcast to ``indices``.

    Mixes in place in ``out``, a uint64 array of the result's shape (it may be ``indices``).
    """
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(indices, dtype=np.uint64), np.uint64(1), out=out)
        z *= np.uint64(GAMMA)
        z += np.uint64(seed & MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z
