"""Seeded, platform-stable random number generation.

The generator is counter-based splitmix64: draw k is a fixed integer mix
of ``seed + (k+1) * GAMMA``. The word stream is therefore a pure function
of (seed, number of words consumed), identical on every platform. Uniform
and Bernoulli draws are exact functions of the word stream; normal draws
apply Box-Muller on top and are stable up to libm rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, check_ranges

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53
# Box-Muller runs over this many word pairs at a time, so a large draw
# holds its output and one block's temporaries, not temporaries the size
# of the whole draw
_NORMAL_PAIRS = 8192


def _mix64(state: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 array ops wrap mod 2^64
    z = (state ^ (state >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class RngState:
    """Deterministic random stream owned by one logical consumer.

    Parallel consumers must not share a state; derive one stream per
    consumer with :meth:`split`.
    """

    def __init__(self, seed: int):
        check_ranges(seed=seed)
        self.seed = int(seed)
        self.counter = 0

    def split(self, stream_id: int) -> "RngState":
        """Independent stream for a parallel consumer (seed XOR stream id)."""
        return RngState((self.seed ^ int(stream_id)) & _MASK64)

    def _words_at(self, start: int, n: int) -> np.ndarray:
        """Words start .. start+n-1 of the stream; the counter is left as
        it is."""
        lo = (start + 1) & _MASK64
        idx = (np.arange(n, dtype=np.uint64) + np.uint64(lo)) * _GAMMA
        return _mix64(np.uint64(self.seed) + idx)

    def _words(self, n: int) -> np.ndarray:
        w = self._words_at(self.counter, n)
        self.counter += n
        return w

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * _INV53

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal doubles via Box-Muller.

        The draw consumes 2 * pairs words, pairs = ceil(n / 2): pair j
        takes u1 from word j and u2 from word pairs + j, and gives output
        j (r cos theta) and pairs + j (r sin theta); the last is dropped
        when n is odd. Pairs are formed in blocks of _NORMAL_PAIRS.
        """
        pairs = (n + 1) // 2
        start = self.counter
        self.counter += 2 * pairs
        out = np.empty(2 * pairs)
        for j in range(0, pairs, _NORMAL_PAIRS):
            m = min(_NORMAL_PAIRS, pairs - j)
            w1 = self._words_at(start + j, m)
            w2 = self._words_at(start + pairs + j, m)
            u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53  # (0, 1]
            u2 = (w2 >> np.uint64(11)).astype(np.float64) * _INV53
            r = np.sqrt(-2.0 * np.log(u1))
            theta = (2.0 * math.pi) * u2
            out[j:j + m] = r * np.cos(theta)
            out[pairs + j:pairs + j + m] = r * np.sin(theta)
        return out[:n]

    def bernoulli(self, p: float, n: int) -> np.ndarray:
        """n boolean draws, each True with probability p."""
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"Bernoulli probability must lie in [0, 1], got {p}")
        return self.uniform(n) < p

    def randint_below(self, bound: int, n: int) -> np.ndarray:
        """n integers uniform on [0, bound)."""
        if bound <= 0:
            raise ConfigError(f"randint bound must be positive, got {bound}")
        # floor of uniform*bound; the minimum guards the pathological round-up
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)
