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

import operator

import numpy as np

# Python ints: they stay uint64 in array arithmetic and exact in derive_key
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_XSMULT = 2685821657736338717
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer of x in place; ``tmp`` is scratch of x's shape."""
    # uint64 array arithmetic wraps mod 2^64 by design
    np.right_shift(x, 30, out=tmp)
    x ^= tmp
    x *= _MIX1
    np.right_shift(x, 27, out=tmp)
    x ^= tmp
    x *= _MIX2
    np.right_shift(x, 31, out=tmp)
    x ^= tmp


def _xorshift64star(x: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift64* step of x in place; the left shift drops bits past 2^64."""
    np.right_shift(x, 12, out=tmp)
    x ^= tmp
    np.left_shift(x, 25, out=tmp)
    x ^= tmp
    np.right_shift(x, 27, out=tmp)
    x ^= tmp
    x *= _XSMULT


def _mix64_int(x: int) -> int:
    """``_mix64`` of one word as a Python int (a derived key needs no array)."""
    x ^= x >> 30
    x = x * _MIX1 & _MASK
    x ^= x >> 27
    x = x * _MIX2 & _MASK
    return x ^ (x >> 31)


def derive_key(seed: int, *indices: int) -> int:
    """Fold a seed and substream indices, Python or numpy integers, into a 64-bit stream key."""
    k = _mix64_int(operator.index(seed) & _MASK)
    for idx in indices:
        k = _mix64_int(k ^ (_GOLDEN * (operator.index(idx) + 1) & _MASK))
    return k


def raw_words(key: int, start: int, count: int) -> np.ndarray:
    """The ``count`` 64-bit words of stream ``key`` beginning at draw ``start``."""
    s = np.arange(start, start + count, dtype=np.uint64)
    tmp = np.empty_like(s)
    s += 1
    s *= _GOLDEN
    s ^= key
    _mix64(s, tmp)
    _xorshift64star(s, tmp)
    _xorshift64star(s, tmp)
    return s


def uniforms(key: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in (0, 1] (safe as Box-Muller log arguments)."""
    w = raw_words(key, start, count)
    w >>= 11
    u = w.view(np.float64)
    np.multiply(w, 2.0 ** -53, out=u)  # exact: the top 53 bits scaled by a power of 2
    np.subtract(1.0, u, out=u)
    return u


def normals(key: int, start: int, count: int) -> np.ndarray:
    """Standard Gaussian draws ``start .. start+count-1`` of stream ``key``.

    Draw ``2j`` and ``2j+1`` form a Box-Muller pair built from uniform draws
    with the same indices, so an arbitrary slice of the stream can be
    generated without producing its prefix.  The pair (r cos, r sin)
    overwrites its two uniforms; the transcendental functions read and
    write contiguous arrays only.
    """
    lo = (start // 2) * 2
    hi = ((start + count + 1) // 2) * 2
    z = uniforms(key, lo, hi - lo)
    u1, u2 = z[0::2], z[1::2]
    angle = (2.0 * np.pi) * u2
    r = np.log(u1)
    r *= -2.0
    np.sqrt(r, out=r)
    sin = np.sin(angle)
    np.cos(angle, out=angle)
    np.multiply(r, sin, out=u2)
    np.multiply(r, angle, out=u1)
    return z[start - lo: start - lo + count]


class KeyedStream:
    """Sequential view of one stream: remembers how many draws were consumed."""

    def __init__(self, key: int):
        self.key = int(key)
        self._uniform_pos = 0

    @classmethod
    def from_seed(cls, seed: int, *indices: int) -> "KeyedStream":
        return cls(derive_key(seed, *indices))

    def uniform(self, size: int = 1) -> np.ndarray:
        # the view reads from draw 2^32 of its stream on; seeded searches
        # depend on that offset, so it stays.
        out = uniforms(self.key, (1 << 32) + self._uniform_pos, size)
        self._uniform_pos += size
        return out
