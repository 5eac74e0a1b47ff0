"""Row blocks of a snapshot matrix.

The randomized range finder (`sketch.blocked_randomized_qb`) reads X as b
contiguous row blocks from a source: `partition_rows` splits the n rows,
`ArrayRowBlockSource` hands out views of an in-memory matrix, and
`datasets.SmsRowBlockSource` views of a mapped SMS file. A source hands out
block i with `read_block(i)`, in any order and repeatedly, drops the pages
of any of its rows with `release_rows(start, count)`, and takes back the
block it holds with `release_block()`.

Every product of the sketch with X is one pass over the blocks, 2q + 2
passes for q power iterations, and the block count changes the answer only
at the level of rounding. Each pass, and the CLI's reconstruction-error
pass where it runs, is one `row_chunks` walk: it reads each block once and
hands it out in `_CHUNK_ROWS`-row chunks, releasing each chunk's rows once
it is used. An SMS file source also releases the block it holds when
another block is read, and the finder releases the last one after its last
pass, so a run of any block count holds one chunk of file pages and the
one n x l sketch basis while it sketches (one block where blocks are
copied), and no block-sized buffer while the modes are lifted.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBlockCount
from .linalg import _CHUNK_ROWS, _as_matrix


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
    in-memory randomized path. Blocks are views in the matrix's own memory
    order, so a Fortran-ordered matrix is not copied."""

    def __init__(self, x, block_count: int):
        self._x = _as_matrix(x)
        self.rows, self.cols = self._x.shape
        self.block_count = block_count
        self.block_ranges = partition_rows(self.rows, block_count)

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        return self._x[start : start + count]

    def release_rows(self, start: int, count: int) -> None:
        """Nothing to release: the matrix stays the caller's."""

    def release_block(self) -> None:
        """Nothing to release: the matrix stays the caller's."""


def row_chunks(source):
    """Yield (start, rows) for the consecutive `_CHUNK_ROWS`-row chunks of
    the matrix X whose row blocks `source` hands out, start being the
    chunk's first row in X. Each block is read once and cut into views; a
    chunk's rows are released (`source.release_rows`) when the next chunk
    is asked for, and the walk drops a block before it reads the next. A
    consumer that deletes its chunk before asking for the next therefore
    holds one chunk of a mapped file's pages, or one copied block."""
    for i, (start, count) in enumerate(source.block_ranges):
        block = source.read_block(i)
        for lo in range(0, count, _CHUNK_ROWS):
            rows = min(_CHUNK_ROWS, count - lo)
            yield start + lo, block[lo : lo + rows]
            source.release_rows(start + lo, rows)
        del block
