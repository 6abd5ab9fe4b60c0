"""Deterministic 64-bit random number generator.

SplitMix64 (Steele, Lea & Flood's splittable generator finalizer) gives
bit-identical streams on every platform, which the forest trainer needs
so that (data, hyperparameters, seed) fully determine the model. Not
intended for cryptographic use.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix of each element of a uint64 array.

    Every constant is an np.uint64, so numpy 1.24's value-based casting
    and NEP 50 both keep the arithmetic in uint64, where array products
    wrap mod 2**64 without a warning.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK - (_MASK % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from [0, n), partial Fisher-Yates order."""
        if k > n:
            raise ValueError("k must not exceed n")
        pool = np.arange(n)
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k].copy()

    def bootstrap_indices(self, n: int, draws: int) -> np.ndarray:
        """draws indices from [0, n) with replacement.

        Equal to `draws` calls of randint(n), values and state after. The
        stream is counter-based, its i-th next output being
        mix(state + i * golden), so each block of outputs is one array
        expression; the rejected ones are dropped in order and the block
        is refilled from the stream.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        limit = np.uint64(_MASK - (_MASK % n))
        blocks = [np.zeros(0, dtype=np.uint64)]
        need = draws
        while need > 0:
            step = np.arange(1, need + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
            u = _mix_array(np.uint64(self._state) + step)
            self._state = (self._state + need * _GOLDEN) & _MASK
            u = u[u < limit]
            blocks.append(u % np.uint64(n))
            need -= u.size
        return np.concatenate(blocks).astype(np.int64)

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child stream; deterministic in (seed, index)."""
        return SplitMix64(_mix((self._state + _GOLDEN * (index + 1)) & _MASK))
