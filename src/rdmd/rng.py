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

One in-place kernel serves every draw: it works through the stream in
cache-sized chunks with preallocated buffers, in the operation order of the
textbook formulas, so the values do not depend on the chunking.
`normal_columns_into` uses the sub-range addressing to draw a column block
of a normal matrix without the rest of it.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_DERIVE_STEP = 0xD1B54A32D192ED03
_MASK = 0xFFFFFFFFFFFFFFFF

_TWO_POW_NEG53 = 2.0 ** -53


# Uniform pairs per chunk of the stream kernel. One chunk's scratch (three
# 512 KB buffers and the counter ramp) is small enough to stay in a core's
# cache, so each elementwise pass over it reads and writes cache, not memory.
_CHUNK_PAIRS = 1 << 15
_CHUNK = 2 * _CHUNK_PAIRS


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of the uint64 array z, in place; tmp is scratch
    of z's shape. uint64 arithmetic wraps mod 2**64 by construction."""
    for shift, multiplier in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if multiplier is not None:
            z *= np.uint64(multiplier)
    return z


def _raw_into(seed: int, start: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """z[:] = values start .. start+len(z)-1 of the stream keyed by seed,
    for len(z) <= _CHUNK; tmp is uint64 scratch of z's length."""
    np.add(np.arange(z.size, dtype=np.uint64), np.uint64((start + 1) & _MASK), out=z)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    return _mix64(z, tmp)


def _uniforms_into(seed, start, u, z, tmp) -> np.ndarray:
    """u[:] = uniforms(seed, start, len(u)) for len(u) <= _CHUNK, through
    the uint64 scratch z and tmp of u's length."""
    bits = _raw_into(seed, start, z, tmp)
    bits >>= np.uint64(11)
    np.add(bits, 1.0, out=u)  # exact: bits + 1 <= 2**53
    u *= _TWO_POW_NEG53
    return u


def _chunks(count: int, size: int):
    for offset in range(0, count, size):
        yield offset, min(size, count - offset)


def raw_stream(seed: int, start: int, count: int) -> np.ndarray:
    """uint64 values ``start .. start+count-1`` of the stream keyed by seed."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty(count, dtype=np.uint64)
    tmp = np.empty(min(count, _CHUNK), dtype=np.uint64)
    for offset, size in _chunks(count, _CHUNK):
        _raw_into(seed, start + offset, out[offset : offset + size], tmp[:size])
    return out


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """i.i.d. uniforms on (0, 1]; 53-bit resolution, never exactly zero."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty(count)
    z = np.empty(min(count, _CHUNK), dtype=np.uint64)
    tmp = np.empty_like(z)
    for offset, size in _chunks(count, _CHUNK):
        _uniforms_into(seed, start + offset, out[offset : offset + size], z[:size], tmp[:size])
    return out


def _normals_into(seed: int, start: int, out: np.ndarray, skip: int = 0) -> np.ndarray:
    """out[:] = Box-Muller normals of the uniform pairs (start, start+1),
    (start+2, start+3), ..., less the first `skip` (0 or 1) of them.

    Works through the pairs in chunks of _CHUNK_PAIRS with the operations of
    the textbook form, so every value is bit-identical to it: radius
    sqrt(-2 log u_even), angle 2 pi u_odd, value pair radius * (cos, sin).
    """
    total = out.size + skip
    pairs = (total + 1) // 2
    width = 2 * min(pairs, _CHUNK_PAIRS)
    z = np.empty(width, dtype=np.uint64)
    tmp = np.empty(width, dtype=np.uint64)
    u = np.empty(width)
    # radius, angle and the chunk's values reuse the uint64 scratch, which is
    # dead once the uniforms are formed
    values = z.view(np.float64)
    polar = tmp.view(np.float64)
    for first, count in _chunks(pairs, _CHUNK_PAIRS):
        w = 2 * count
        uu = _uniforms_into(seed, start + 2 * first, u[:w], z[:w], tmp[:w])
        radius, angle = polar[:count], polar[count:w]
        np.log(uu[0::2], out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        np.multiply(uu[1::2], 2.0 * np.pi, out=angle)
        cos = uu[:count]  # the uniforms are consumed
        np.cos(angle, out=cos)
        np.sin(angle, out=angle)
        np.multiply(radius, cos, out=values[0:w:2])
        np.multiply(radius, angle, out=values[1:w:2])
        # value 2 * first + j of the pairing lands at out[2 * first + j - skip]
        lo = max(0, skip - 2 * first)
        dst = 2 * first + lo - skip
        size = min(w, out.size - dst + lo) - lo
        out[dst : dst + size] = values[lo : lo + size]
    return out


def normals(seed: int, start: int, count: int) -> np.ndarray:
    """i.i.d. standard normals via Box-Muller on uniform pairs.

    Consumes ``2 * ceil(count / 2)`` uniform draws beginning at ``start``,
    so ``normals(seed, s, n)`` equals ``normals(seed, 0, s + n)[s:]`` for an
    even ``s``; an odd ``s`` pairs different uniforms and gives other values.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _normals_into(seed, start, np.empty(count))


def normal_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """rows x cols standard-normal matrix filled in row-major draw order."""
    return normals(seed, 0, rows * cols).reshape(rows, cols)


def normal_columns_into(out: np.ndarray, cols: int, first_col: int, seed: int) -> np.ndarray:
    """out[:] = normal_matrix(out.shape[0], cols, seed)[:, first_col:first_col
    + out.shape[1]], drawing only those entries.

    Row i is draws i*cols + first_col onward of the whole matrix's stream,
    whose Box-Muller pairs start at even draws; a row that starts at an odd
    draw is generated from the draw before and drops its first value.
    """
    rows, width = out.shape
    if first_col < 0 or first_col + width > cols:
        raise ValueError(f"columns {first_col}..{first_col + width} outside [0, {cols}]")
    for i in range(rows):
        draw = i * cols + first_col
        _normals_into(seed, draw - (draw & 1), out[i], skip=draw & 1)
    return out


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated child seed for sub-stream ``index``.

    Index 0 returns the parent seed unchanged, which makes single-block runs
    bit-identical to the unblocked code path keyed directly by ``seed``.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    if index == 0:
        return seed & _MASK
    z = np.array([(seed + index * _DERIVE_STEP) & _MASK], dtype=np.uint64)
    return int(_mix64(z, np.empty_like(z))[0])


class CounterStream:
    """Sequential view of one stream; tracks the uniform-draw counter.

    Convenience for code that draws several variable-sized batches from a
    single seed (e.g. the synthetic-data generator).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.offset = 0

    def normals(self, count: int) -> np.ndarray:
        out = normals(self.seed, self.offset, count)
        self.offset += 2 * ((count + 1) // 2)
        return out
