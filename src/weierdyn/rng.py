"""Counter-based deterministic random streams.

Sampling jobs here must be reproducible bit-for-bit across runs, Python
versions, and process pools, and each sample must be drawable without
consuming state from its neighbors.  A splitmix64 chain keyed by the
sample's coordinates gives exactly that: stream(seed, radius_index, i)
yields the same doubles no matter which worker evaluates it or in what
order.
"""

from __future__ import annotations

from functools import lru_cache

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class SplitMix:
    """splitmix64 stream whose state is derived by folding integer keys."""

    def __init__(self, *keys: int):
        s = 0
        for k in keys:
            s = _mix((s + _GAMMA) ^ (k & _MASK))
        self._state = s

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_signed(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0


@lru_cache(maxsize=64)
def _folded(keys: tuple) -> int:
    """SplitMix(*keys)'s state, kept for the key prefixes that recur."""
    return SplitMix(*keys)._state


def unit_disc_point(*keys: int) -> complex:
    """Deterministic uniform point of the closed unit disc for this key tuple.

    Rejection sampling from the square; the stream is private to the keys, so
    the draw count of one sample never shifts another.  The bits are those
    of SplitMix(*keys).uniform_signed() pairs: the fold of every key but the
    last is memoized, and the rest of the stream runs inline.
    """
    s = _mix((_folded(keys[:-1]) + _GAMMA) ^ (keys[-1] & _MASK)) if keys else 0
    while True:
        # 2.0 * ((u >> 11) * 2**-53) - 1.0, with the exact doubling folded in
        s = (s + _GAMMA) & _MASK
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        x = ((z ^ (z >> 31)) >> 11) * 2.0 ** -52 - 1.0
        s = (s + _GAMMA) & _MASK
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        y = ((z ^ (z >> 31)) >> 11) * 2.0 ** -52 - 1.0
        if x * x + y * y <= 1.0:
            return complex(x, y)
