"""Deterministic random streams shared by every randomized routine.

All randomness is produced by SplitMix64 (Steele, Lea & Vigna's splittable
generator) evaluated in counter form: draw ``i`` of the stream keyed by
``seed`` is ``mix64(seed + (i + 1) * GAMMA)``, a pure function of
``(seed, i)``.  This gives three properties the library relies on:

* the same seed yields the same bits on every platform and numpy version,
  since only integer arithmetic modulo 2**64 is involved;
* any sub-range of a stream can be generated without generating its prefix,
  which lets block workers and retry loops address disjoint counter ranges;
* child streams for indexed sub-tasks come from `derive_seed`, with index 0
  mapping to the parent seed itself so a single-block run consumes exactly
  the stream the unblocked code path would.

Standard normals use the plain (trigonometric) Box-Muller transform on
consecutive uniform pairs rather than a rejection method, so the number of
draws consumed is a deterministic function of the output count.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_DERIVE_STEP = 0xD1B54A32D192ED03
_MASK = 0xFFFFFFFFFFFFFFFF

_TWO_POW_NEG53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer; uint64 arithmetic wraps mod 2**64 by construction.
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def raw_stream(seed: int, start: int, count: int) -> np.ndarray:
    """uint64 values ``start .. start+count-1`` of the stream keyed by seed."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    ctr = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) & _MASK)
    return _mix64(np.uint64(seed & _MASK) + ctr * np.uint64(_GAMMA))


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """i.i.d. uniforms on (0, 1]; 53-bit resolution, never exactly zero."""
    bits = raw_stream(seed, start, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * _TWO_POW_NEG53


def normals(seed: int, start: int, count: int) -> np.ndarray:
    """i.i.d. standard normals via Box-Muller on uniform pairs.

    Consumes ``2 * ceil(count / 2)`` uniform draws beginning at ``start``,
    so ``normals(seed, s, n)`` equals ``normals(seed, 0, s + n)[s:]`` for an
    even ``s``; an odd ``s`` pairs different uniforms and gives other values.
    """
    if count == 0:
        return np.empty(0)
    pairs = (count + 1) // 2
    u = uniforms(seed, start, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def normal_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """rows x cols standard-normal matrix filled in row-major draw order."""
    return normals(seed, 0, rows * cols).reshape(rows, cols)


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated child seed for sub-stream ``index``.

    Index 0 returns the parent seed unchanged, which makes single-block runs
    bit-identical to the unblocked code path keyed directly by ``seed``.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    if index == 0:
        return seed & _MASK
    z = (seed + index * _DERIVE_STEP) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return (z ^ (z >> 31)) & _MASK


class CounterStream:
    """Sequential view of one stream; tracks the uniform-draw counter.

    Convenience for code that draws several variable-sized batches from a
    single seed (e.g. the synthetic-data generator).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.offset = 0

    def uniforms(self, count: int) -> np.ndarray:
        out = uniforms(self.seed, self.offset, count)
        self.offset += count
        return out

    def normals(self, count: int) -> np.ndarray:
        out = normals(self.seed, self.offset, count)
        self.offset += 2 * ((count + 1) // 2)
        return out
