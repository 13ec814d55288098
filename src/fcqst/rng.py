"""Deterministic, counter-based random streams.

Every stochastic routine in the package (Monte Carlo noise trials, optimizer
restarts) draws from the generator defined here rather than from a platform
RNG, so results are bit-reproducible from a seed and portable across
languages.

Construction of one 64-bit word, for stream key ``k`` and draw index ``i``::

    s = mix64(k XOR (GOLDEN * (i + 1) mod 2^64))
    s = xorshift64star(xorshift64star(s))

``mix64`` is the splitmix64 finalizer (Steele, Lea, Flood 2014) and
``xorshift64star`` is Marsaglia's 64-bit shift-register generator with the
M32 multiplier 2685821657736338717.  Because the draw index enters through
the key, any draw can be produced independently of the others, which is what
makes per-trial substreams and vectorized bulk generation possible.

Uniform doubles use the top 53 bits mapped to (0, 1]; Gaussian variates come
from the Box-Muller transform applied to consecutive index pairs.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_XSMULT = np.uint64(2685821657736338717)


def _mix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))
        x = x * _MIX1
        x = x ^ (x >> np.uint64(27))
        x = x * _MIX2
        return x ^ (x >> np.uint64(31))


def _xorshift64star(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(12))
        x = x ^ ((x << np.uint64(25)) & np.uint64(0xFFFFFFFFFFFFFFFF))
        x = x ^ (x >> np.uint64(27))
        return x * _XSMULT


def derive_key(seed: int, *indices: int) -> int:
    """Fold a seed and substream indices into a 64-bit stream key."""
    with np.errstate(over="ignore"):
        k = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        for idx in indices:
            k = _mix64(k ^ (_GOLDEN * np.uint64((idx + 1) & 0xFFFFFFFFFFFFFFFF)))
    return int(k)


def raw_words(key: int, start: int, count: int) -> np.ndarray:
    """The ``count`` 64-bit words of stream ``key`` beginning at draw ``start``."""
    with np.errstate(over="ignore"):
        idx = np.arange(start, start + count, dtype=np.uint64)
        s = np.uint64(key) ^ (_GOLDEN * (idx + np.uint64(1)))
        return _xorshift64star(_xorshift64star(_mix64(s)))


def uniforms(key: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in (0, 1] (safe as Box-Muller log arguments)."""
    w = raw_words(key, start, count)
    return 1.0 - (w >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def normals(key: int, start: int, count: int) -> np.ndarray:
    """Standard Gaussian draws ``start .. start+count-1`` of stream ``key``.

    Draw ``2j`` and ``2j+1`` form a Box-Muller pair built from uniform draws
    with the same indices, so an arbitrary slice of the stream can be
    generated without producing its prefix.
    """
    lo = (start // 2) * 2
    hi = ((start + count + 1) // 2) * 2
    u = uniforms(key, lo, hi - lo)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(hi - lo, dtype=np.float64)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[start - lo: start - lo + count]


class KeyedStream:
    """Sequential view of one stream: remembers how many draws were consumed."""

    def __init__(self, key: int):
        self.key = int(key)
        self._normal_pos = 0
        self._uniform_pos = 0

    @classmethod
    def from_seed(cls, seed: int, *indices: int) -> "KeyedStream":
        return cls(derive_key(seed, *indices))

    def normal(self, size: int = 1) -> np.ndarray:
        out = normals(self.key, self._normal_pos, size)
        self._normal_pos += size
        return out

    def uniform(self, size: int = 1) -> np.ndarray:
        # uniform and normal positions are tracked separately; draw the two
        # kinds from streams with different keys (see from_seed's indices).
        out = uniforms(self.key, (1 << 32) + self._uniform_pos, size)
        self._uniform_pos += size
        return out
