"""Row blocks of a snapshot matrix, and the one walk over them.

Every pass the library makes over an n-row snapshot matrix X reads it as b
contiguous row blocks from a source: `partition_rows` splits the n rows,
`ArrayRowBlockSource` hands out views of an in-memory matrix, and
`datasets.SmsRowBlockSource` views of a mapped SMS file. Each DMD
variant's one entry point, the truncated SVD and the compressions take a
matrix or a source through `as_source`, which runs a matrix as its own
one-block source. A source hands out block i with `read_block(i)`, in any
order and repeatedly, drops the pages of any of its rows with
`release_rows(start, count)`, and takes back the block it holds with
`release_block()`. Its `passes` counts the walks made over it, and its
`sq_norm`, 0.0 on a new source, is set by the first.

Each pass is one `row_chunks` walk: it reads each block once and hands it
out in chunks, releasing each chunk's rows once it is used. A source's
first walk, whichever method's pass it is, is also the one check of X: it
names the first NaN or Inf of X by its row and sums ||X||_F^2 into
`sq_norm` (`frobenius_sq` of each chunk), the norm every method's sketch
identity reads, so several methods run on one source check and sum X once.
`row_spans` cuts this and every other row walk of the library into chunks
of at most 32 MiB and 4096 rows: 4096 rows up to 1024 float64 columns,
fewer beyond. The randomized range finder makes q + 1 passes for q power
iterations, the projected deterministic decomposition two (the Gram
matrix, then U_k with U_k^T X) where the Gram resolves its k directions
and three where its truncated SVD needs a Rayleigh-Ritz pass between them,
or one on a short one-block X (a walk, then LAPACK's SVD of the block),
the compressed one two (S X with ||X||_F^2, and the exact-style basis),
and the CLI's reconstruction-error pass one where it runs; the CLI reports
the count as `passes_over_x`. An SMS file source also releases the block
it holds when another block is read, and each method releases the last one
after its last pass, before the mode lift (`dmd._pipeline`, right after
the frame), so a run of any method and any block count holds one chunk of
file pages and its one n x l or n x k basis at any width (one block where
blocks are copied), and no file pages while the modes are lifted. The
block count changes the answer only at the level of rounding.

That basis (the range finder's last sketch Y and its Q, the truncated
SVD's U_k, the exact-style modes' basis) is an `empty_basis`: its pages
are an anonymous map of its own, so the mode lift, `sketch.apply_q` for
every variant, hands each chunk of it back (`release_basis_rows`) once
those rows of the modes are written, and the modes take its place instead
of being added to it. The range finder's power iterations write no basis:
each forms its sketch one chunk at a time. A run's resident set is the
imports, one chunk (at most 32 MiB), the basis and the m x l blocks.

The library's one rule for NaN and Inf lives here too, beside the first
walk's check: `_non_finite_error` names the first NaN or Inf of a buffer
by its row, or says that a product of the finite input overflowed, which
`_require_finite` raises for buffers formed from X; `_require_finite_rows`
is the writers' check of what they write, and `_require_finite_entries`
names the first bad entry of a vector (eigenvalues, amplitudes, spectra).
"""

from __future__ import annotations

import mmap

import numpy as np

from . import memguard
from .errors import InvalidBlockCount, NonFiniteInput, ShapeMismatch

# The one chunk rule of every row walk (`row_spans`): a chunk is at most
# `_CHUNK_BYTES` of rows and at most `_CHUNK_ROWS` rows, so up to 1024
# float64 columns it is 4096 rows (6.6 MB at 201 columns), at 10001 columns
# 419 rows (33.5 MB), and a row wider than the budget is a chunk of its own.
_CHUNK_BYTES = 32 << 20
_CHUNK_ROWS = 4096


def row_spans(n: int, row_bytes: int) -> list[slice]:
    """The consecutive slices of n rows of `row_bytes` bytes each, each of
    max(1, min(`_CHUNK_ROWS`, `_CHUNK_BYTES` // row_bytes)) rows but the
    last; the first is the longest, so it sizes a buffer for any of them."""
    step = max(1, min(_CHUNK_ROWS, _CHUNK_BYTES // row_bytes))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def frobenius_sq(a: np.ndarray) -> float:
    """||a||_F^2 as one dot product in the array's memory order, so a C- or
    Fortran-ordered matrix is not copied. A sum that overflows is inf,
    without a warning; the caller decides whether that is an error."""
    flat = a.ravel(order="K")
    with np.errstate(over="ignore"):
        return float(np.dot(flat, flat))


# The NonFiniteInput message where X is finite but a product of it is not
_OVERFLOWED = "a product of the finite input overflowed"


def _non_finite_error(a, first_row: int = 0) -> NonFiniteInput:
    """The error for a NaN or Inf in a buffer formed from the in-memory `a`:
    names the first entry of `a` that is NaN or Inf, scanning it a chunk
    at a time (`row_spans`), or, with `row` None, says that a product of
    the finite `a` overflowed. Rows are counted from `first_row`, the row
    of a larger matrix that `a` starts at."""
    for span in row_spans(a.shape[0], a.shape[1] * 8):
        finite = np.isfinite(a[span])
        if not finite.all():
            bad = np.argwhere(~finite)
            row, col = span.start + int(bad[0, 0]), int(bad[0, 1])
            return NonFiniteInput(
                f"row {first_row + row}, column {col} is {a[row, col]}", row=first_row + row
            )
    return NonFiniteInput(_OVERFLOWED)


def _require_finite(*buffers) -> None:
    """Raise NonFiniteInput saying that a product of the finite input
    overflowed when one of `buffers` (arrays or scalars formed from X)
    holds NaN or Inf. Every caller's first pass over X has named any NaN or
    Inf of X itself, so X is not read again."""
    if not all(np.isfinite(b).all() for b in buffers):
        raise NonFiniteInput(_OVERFLOWED)


def _require_finite_entries(label: str, values: np.ndarray) -> None:
    """NonFiniteInput naming the first NaN or Inf of the 1-D `values` as
    `label`, its index and its value, e.g. "eigenvalue 1 is (nan+0j)"."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteInput(f"{label} {bad[0]} is {values[bad[0]]}")


def _require_finite_rows(block: np.ndarray, start: int) -> None:
    """The writers' check of what they write: NonFiniteInput naming the
    first NaN or Inf of `block` by its row, counted from `start`."""
    err = _non_finite_error(block, start)
    if err.row is not None:
        raise NonFiniteInput(f"refusing to write non-finite values: {err}", row=err.row)


# MADV_DONTNEED drops a map's pages: a private anonymous map's go back to
# the system (zeros if touched again), a shared file map's are read back
# from the file. Where the platform lacks it, a basis is numpy's, and
# `datasets.SmsRowBlockSource` copies its blocks unless there is only one
_CAN_RELEASE = hasattr(mmap, "MADV_DONTNEED") and hasattr(mmap, "MAP_PRIVATE")


def empty_basis(n: int, c: int) -> np.ndarray:
    """An uninitialised Fortran-ordered n x c float64 array whose pages are
    a private anonymous map of its own, unmapped when the last view of it
    goes, so that `release_basis_rows` can hand rows of it back before
    that; numpy's array where the platform cannot release pages. The memory
    cap is charged all of it (`memguard.note`)."""
    memguard.note(n * c * 8)
    if not _CAN_RELEASE:
        return np.empty((c, n)).T
    pages = mmap.mmap(-1, n * c * 8, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype=np.float64).reshape(c, n).T


def release_basis_rows(a: np.ndarray, start: int, stop: int) -> None:
    """Hand back the pages of rows start..stop of every column of `a`, an
    `empty_basis` array its owner has finished with below row `stop`: the
    page a column's row `start` shares with the rows above it goes too, the
    one its row `stop` shares with the rows below stays, and so does a
    column's first page where it holds the previous column's last rows.
    Those rows read as zeros afterwards. A no-op for any other array, and
    where the platform cannot release pages."""
    root = a
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not (isinstance(root.base, memoryview) and isinstance(root.base.obj, mmap.mmap)
            and a.strides[0] == 8):
        return
    page, stop = mmap.PAGESIZE, min(stop, a.shape[0])
    first = a.__array_interface__["data"][0] - root.__array_interface__["data"][0]
    for j in range(a.shape[1]):
        column = first + j * a.strides[1]
        lo = max(-(-column // page), (column + start * 8) // page) * page
        hi = (column + stop * 8) // page * page
        if hi > lo:
            root.base.obj.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be nonempty, got shape {a.shape}")
    return a


def partition_rows(n: int, b: int) -> list[tuple[int, int]]:
    """Balanced contiguous partition of n rows into b (start, count) ranges.

    The first n % b blocks get ceil(n/b) rows, the remaining floor(n/b); the
    ranges are disjoint, ordered, and cover [0, n) exactly.
    """
    if not 1 <= b <= n:
        raise InvalidBlockCount(f"block count {b} outside [1, {n}]")
    base, extra = divmod(n, b)
    ranges = []
    start = 0
    for i in range(b):
        count = base + (1 if i < extra else 0)
        ranges.append((start, count))
        start += count
    return ranges


class ArrayRowBlockSource:
    """Row-block view over an in-memory matrix: its single-block run is the
    in-memory path of every method. Blocks are views in the matrix's own
    memory order, so a Fortran-ordered matrix is not copied."""

    def __init__(self, x, block_count: int):
        self._x = _as_matrix(x)
        self.shape = self._x.shape
        self.rows, self.cols = self.shape
        self.block_count = block_count
        self.block_ranges = partition_rows(self.rows, block_count)
        self.passes = 0  # `row_chunks` walks
        self.sq_norm = 0.0  # ||X||_F^2, summed by the first walk

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        return self._x[start : start + count]

    def release_rows(self, start: int, count: int) -> None:
        """Nothing to release: the matrix stays the caller's."""

    def release_block(self) -> None:
        """Nothing to release: the matrix stays the caller's."""


def as_source(x):
    """x itself where it is a row-block source (it has `block_ranges`), else
    the one-block source of the in-memory matrix x."""
    return x if hasattr(x, "block_ranges") else ArrayRowBlockSource(x, 1)


def row_chunks(source):
    """Yield (start, rows) for the consecutive chunks of the matrix X whose
    row blocks `source` hands out, start being the chunk's first row in X:
    each block is read once and cut into views by `row_spans` of its rows
    at X's width, so a one-block file and its in-memory matrix walk the
    same chunks. A chunk's rows are released (`source.release_rows`) when
    the next chunk is asked for, and the walk drops a block before it reads
    the next, so a consumer that deletes its chunk before asking for the
    next holds one chunk of a mapped file's pages, or one copied block. The
    walk adds one to `source.passes` when its first chunk is asked for.

    The source's first walk (`passes` 0 as it starts) is the one check of
    X: before it hands out a chunk X_i it adds ||X_i||_F^2 to
    `source.sq_norm` and, where that is not finite, raises NonFiniteInput
    naming the chunk's first NaN or Inf by its row in X. An overflowed norm
    of finite rows passes, so that a NaN in a later chunk is still named;
    a reader of the non-finite sq_norm rejects it. Later walks, those of
    other methods on the same source included, read X as checked."""
    first = source.passes == 0
    source.passes += 1
    for i, (start, count) in enumerate(source.block_ranges):
        block = source.read_block(i)
        for span in row_spans(count, source.cols * 8):
            rows = block[span]
            if first:
                part = frobenius_sq(rows)
                if not np.isfinite(part):
                    error = _non_finite_error(rows, start + span.start)
                    if error.row is not None:
                        raise error
                source.sq_norm += part
            yield start + span.start, rows
            del rows  # so that the block goes before the next is read
            source.release_rows(start + span.start, span.stop - span.start)
        del block
