"""Counter-based deterministic random streams.

Sampling jobs here must be reproducible bit-for-bit across runs, Python
versions, and process pools, and each sample must be drawable without
consuming state from its neighbors.  A splitmix64 chain keyed by the
sample's coordinates gives exactly that: stream(seed, radius_index, i)
yields the same doubles no matter which worker evaluates it or in what
order.

unit_disc_points runs many such streams at once, one per last key, as numpy
uint64 arithmetic: array adds and products wrap modulo 2**64 exactly as the
masked Python-int arithmetic of SplitMix does, so every point has the bits
of its own scalar stream.  unit_disc_point is the one-point view of it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = ["SplitMix", "unit_disc_point", "unit_disc_points"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(x):
    """splitmix64's output function, on a Python int or a uint64 array."""
    x = x & _MASK
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


def _disc_points(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of the first point inside the closed unit
    disc that each splitmix64 stream of state (a uint64 array) draws from the
    square, a pair of uniform_signed() values at a time.  Each round draws
    only for the streams still rejecting."""
    x = np.empty(state.size)
    y = np.empty(state.size)
    todo = np.arange(state.size)
    while todo.size:
        # 2.0 * ((u >> 11) * 2**-53) - 1.0, with the exact doubling folded in;
        # u >> 11 < 2**53 converts to float64 exactly
        state = state + _GAMMA
        a = (_mix(state) >> 11) * 2.0 ** -52 - 1.0
        state = state + _GAMMA
        b = (_mix(state) >> 11) * 2.0 ** -52 - 1.0
        ok = a * a + b * b <= 1.0
        done = todo[ok]
        x[done], y[done] = a[ok], b[ok]
        todo, state = todo[~ok], state[~ok]
    return x, y


def unit_disc_points(prefix: Sequence[int], last: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """unit_disc_point(*prefix, k) for each k of last, as the arrays of its
    real and imaginary parts: the fold of prefix is memoized, and the streams
    of all last keys run together."""
    start = (_folded(tuple(prefix)) + _GAMMA) & _MASK
    keys = np.array([k & _MASK for k in last], dtype=np.uint64)
    return _disc_points(_mix(np.uint64(start) ^ keys))


def unit_disc_point(*keys: int) -> complex:
    """Deterministic uniform point of the closed unit disc for this key tuple.

    Rejection sampling from the square; the stream is private to the keys, so
    the draw count of one sample never shifts another.  The bits are those
    of SplitMix(*keys).uniform_signed() pairs.
    """
    if keys:
        x, y = unit_disc_points(keys[:-1], keys[-1:])
    else:
        x, y = _disc_points(np.zeros(1, dtype=np.uint64))
    return complex(x[0], y[0])
