"""Deterministic random streams shared by every randomized routine.

All randomness is produced by SplitMix64 (Steele, Lea & Vigna's splittable
generator) evaluated in counter form: draw ``i`` of the stream keyed by
``seed`` is ``mix64(seed + (i + 1) * GAMMA)``, a pure function of
``(seed, i)``.  This gives three properties the library relies on:

* the same seed yields the same integer stream and the same uniforms on
  every platform and numpy version, since only integer arithmetic modulo
  2**64 and exact conversions are involved;
* any sub-range of a stream can be generated without generating its prefix,
  which lets workers draw disjoint counter ranges of one stream at once
  (`rdmd synth` adds its noise one row chunk of its output at a time on
  every CPU through `parallel_map`, a chunk starting at any draw, and
  `normal_columns_into` draws a column block of a normal matrix alone);
* child streams for indexed sub-tasks come from `derive_seed`, with index 0
  mapping to the parent seed itself so a single-block run consumes exactly
  the stream the unblocked code path would.

Standard normals use the Box-Muller transform on consecutive uniform pairs,
in half-angle form (one `tan` per pair, no `sin` or `cos`), rather than a
rejection method, so the number of draws consumed is a deterministic
function of the output count. Their bits also depend on numpy's `log`,
`sqrt` and `tan`: a SIMD `tan` and the C library's differ in about 0.5 % of
values, by at most 1 ulp, so two hosts may differ in the last bit.

One in-place kernel serves every draw: it works through the stream in
cache-sized chunks with preallocated buffers, in one fixed operation order,
so on one host the values do not depend on the chunking, nor on how a draw
is split between workers, and reruns are bit-identical.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_DERIVE_STEP = 0xD1B54A32D192ED03
_MASK = 0xFFFFFFFFFFFFFFFF

_TWO_POW_NEG53 = 2.0 ** -53


# Uniform pairs per chunk of the stream kernel. One chunk's scratch (three
# 512 KB buffers) is small enough to stay in a core's cache, so each
# elementwise pass over it reads and writes cache, not memory: a 1e7-draw
# `normals` takes about 17 ns per draw (2-core Xeon, numpy 2.4, SIMD `tan`),
# against 39-48 ns when each pair took a `sin` and a `cos`, which numpy runs
# through the C library.
_CHUNK_PAIRS = 1 << 15
_CHUNK = 2 * _CHUNK_PAIRS

# i * GAMMA mod 2**64 for i < 8192 (64 KB): the counter part of every
# 8192-draw piece of the stream, to which `_raw_into` adds the piece's
# offset. A ramp as long as a chunk was as fast and raised a `cdmd` run's
# peak RSS by its 512 KB.
_RAMP = np.arange(1 << 13, dtype=np.uint64)
_RAMP *= np.uint64(_GAMMA)
_RAMP.flags.writeable = False


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
    for len(z) <= _CHUNK; tmp is uint64 scratch of z's length. The input of
    draw start + i, seed + (start + i + 1) * GAMMA, is a `_RAMP` entry plus
    the offset of its piece."""
    for lo in range(0, z.size, _RAMP.size):
        piece = z[lo : lo + _RAMP.size]
        offset = ((start + lo + 1) * _GAMMA + seed) & _MASK
        np.add(_RAMP[: piece.size], np.uint64(offset), out=piece)
    return _mix64(z, tmp)


def _uniforms_into(seed, start, u, z, tmp) -> np.ndarray:
    """u[:] = uniforms(seed, start, len(u)) for len(u) <= _CHUNK, through
    the uint64 scratch z and tmp of u's length."""
    bits = _raw_into(seed, start, z, tmp)
    bits >>= np.uint64(11)
    # exact: bits + 1 <= 2**53, and the int64 view of bits < 2**53 is bits
    np.add(bits.view(np.int64), 1.0, out=u)
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


def _normals_into(
    seed: int, start: int, out: np.ndarray, skip: int = 0, scale: float | None = None
) -> np.ndarray:
    """out[:] = Box-Muller normals of the uniform pairs (start, start+1),
    (start+2, start+3), ..., less the first `skip` (0 or 1) of them; with a
    `scale`, out += scale * those normals instead.

    The pair of (u_even, u_odd) is r * (cos 2 pi u_odd, sin 2 pi u_odd) with
    r = sqrt(-2 log u_even), in half-angle form: with t = tan(pi u_odd) and
    a = r / (1 + t^2), the values are (1 - t^2) a and 2 t a. That is the
    trigonometric pair up to rounding, for one `tan` in place of a `sin`
    and a `cos`; at u_odd = 1/2, where t is about 1.6e16, it is (-r, ~0).
    Works through the pairs in chunks of _CHUNK_PAIRS, each step one
    elementwise operation in a fixed order, so every value is bit-identical
    to the unchunked formula in that order.
    """
    total = out.size + skip
    pairs = (total + 1) // 2
    width = 2 * min(pairs, _CHUNK_PAIRS)
    z = np.empty(width, dtype=np.uint64)
    tmp = np.empty(width, dtype=np.uint64)
    u = np.empty(width)
    # r and t, then the chunk's values, reuse the uint64 scratch, which is
    # dead once the uniforms are formed; t^2 and a reuse the uniforms
    values = z.view(np.float64)
    polar = tmp.view(np.float64)
    for first, count in _chunks(pairs, _CHUNK_PAIRS):
        w = 2 * count
        uu = _uniforms_into(seed, start + 2 * first, u[:w], z[:w], tmp[:w])
        radius, t = polar[:count], polar[count:w]
        np.log(uu[0::2], out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        np.multiply(uu[1::2], np.pi, out=t)
        np.tan(t, out=t)  # contiguous, so numpy's SIMD loop where it has one
        sq, weight = uu[:count], uu[count:w]  # the uniforms are consumed
        np.multiply(t, t, out=sq)
        np.add(sq, 1.0, out=weight)
        np.divide(radius, weight, out=weight)
        np.subtract(1.0, sq, out=sq)
        np.multiply(sq, weight, out=values[0:w:2])
        t += t
        np.multiply(t, weight, out=values[1:w:2])
        # value 2 * first + j of the pairing lands at out[2 * first + j - skip]
        lo = max(0, skip - 2 * first)
        dst = 2 * first + lo - skip
        size = min(w, out.size - dst + lo) - lo
        chunk = values[lo : lo + size]
        if scale is None:
            out[dst : dst + size] = chunk
        else:  # scaled and added while the chunk is still in cache
            chunk *= scale
            out[dst : dst + size] += chunk
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


def add_normals_into(out: np.ndarray, scale: float, seed: int, start: int) -> np.ndarray:
    """out += scale * normals(seed, 0, start + out.size)[start:] for a 1-D
    out, in place and with the bits of that expression: draws start onward
    of the stream that starts at draw 0, the serial kernel of one range. An
    odd start is drawn from its Box-Muller pair, which starts one draw
    earlier, less that draw (`_normals_into`'s skip)."""
    return _normals_into(seed, start - (start & 1), out, skip=start & 1, scale=scale)


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


# (pid, executor) of `parallel_map`, created on its first parallel call. A
# forked child makes its own: the parent's threads do not exist in it.
_pool = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask, or the CPU count
    where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _make_pool(workers: int):
    # Imported here, not at module level: only synth's walks run in
    # parallel, and the import costs a decompose run about 7 ms.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="rdmd-rng")


def parallel_map(fn, jobs) -> list:
    """[fn(job) for job in jobs], run on a pool of threads, one per CPU in
    the process's affinity mask.

    The pool is created by the first call that has two jobs and two CPUs,
    and kept for the process; with one job or one CPU the jobs run in the
    caller. numpy's ufuncs release the interpreter lock, so jobs of a few
    large array operations run on every CPU. Every job has ended when this
    returns or raises; the exception of the first failed job, in job order,
    is raised.
    """
    global _pool
    jobs = list(jobs)
    workers = _worker_count()
    if workers < 2 or len(jobs) < 2:
        return [fn(job) for job in jobs]
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            _pool = (os.getpid(), _make_pool(workers))
        pool = _pool[1]
    from concurrent.futures import wait

    futures = [pool.submit(fn, job) for job in jobs]
    wait(futures)
    return [f.result() for f in futures]


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
