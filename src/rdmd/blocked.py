"""Two-stage blocked QB factorization for row-streamed matrices.

The input is consumed as b contiguous row blocks: each block gets its own
randomized QB with a per-block derived seed, the small projections B_i are
stacked into K ((b*l) x m), and a second QB of K merges them. The assembled
basis Q = diag(Q_1, ..., Q_b) @ Q_hat is orthonormal as a product of
orthonormal factors; peak working memory stays at one row block plus K.

Each block is read from the source exactly once and held in memory for the
duration of its own QB (the power iterations run in-core), which is what
keeps both the pass count and the memory footprint at one block. The same
pass sums ||X||_F^2, from which the reconstruction error follows without
reading the blocks again (see `DmdResult.sketch`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import memguard
from .errors import InvalidBlockCount, NonFiniteInput, RankOutOfRange
from .linalg import _lift, frobenius_sq
from .rng import derive_seed
from .sketch import SketchConfig, randomized_qb


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


@dataclass(frozen=True)
class BlockedQB:
    """Blocked factorization: x ~ diag(*block_bases) @ merge_basis @ b;
    data_sq_norm is ||x||_F^2, summed over the blocks as they were read."""

    block_bases: list
    merge_basis: np.ndarray
    b: np.ndarray
    block_ranges: list
    data_sq_norm: float

    @property
    def block_count(self) -> int:
        return len(self.block_bases)

    @property
    def sketch_size(self) -> int:
        return self.merge_basis.shape[1]


def blocked_randomized_qb(source, cfg: SketchConfig) -> BlockedQB:
    """Blocked QB over a row-block source.

    Block i runs `randomized_qb` with seed derive_seed(cfg.seed, i); the
    merge stage uses derive_seed(cfg.seed, b). With b = 1 the merge stage is
    skipped (merge basis = identity), so a single-block run is the unblocked
    factorization, bit for bit. `randomized_qb`'s sketch-size check is the
    one rule, so a block narrower than the sketch is a hard error rather
    than a silent rank reduction. With b > 1 an error of a block's QB names
    the block, and a NonFiniteInput also the global row; with b = 1 it is
    raised as `randomized_qb` raised it.
    """
    l = cfg.sketch_size
    b = source.block_count
    m = source.cols
    bases = []
    projections = []
    data_sq_norm = 0.0
    for i in range(b):
        block = source.read_block(i)
        try:
            qb = randomized_qb(block, replace(cfg, seed=derive_seed(cfg.seed, i)))
        except (NonFiniteInput, RankOutOfRange) as exc:
            if b == 1:
                raise
            if isinstance(exc, NonFiniteInput) and exc.row is not None:
                row = source.block_ranges[i][0] + exc.row
                raise NonFiniteInput(f"block {i}: {exc}; global row {row}", row=row) from exc
            raise type(exc)(f"block {i}: {exc}") from exc
        bases.append(qb.q)
        projections.append(qb.b)
        data_sq_norm += frobenius_sq(block)
        del block

    if b == 1:
        return BlockedQB(
            block_bases=bases,
            merge_basis=np.eye(l),
            b=projections[0],
            block_ranges=list(source.block_ranges),
            data_sq_norm=data_sq_norm,
        )

    memguard.note(b * l * m * 8)
    stacked = np.vstack(projections)
    merged = randomized_qb(stacked, replace(cfg, seed=derive_seed(cfg.seed, b)))
    return BlockedQB(
        block_bases=bases,
        merge_basis=merged.q,
        b=merged.b,
        block_ranges=list(source.block_ranges),
        data_sq_norm=data_sq_norm,
    )


def assemble_q(result: BlockedQB) -> np.ndarray:
    """Materialize the n x l basis Q = diag(Q_1, ..., Q_b) @ merge_basis."""
    l = result.sketch_size
    n = sum(count for _, count in result.block_ranges)
    memguard.note(n * l * 8)
    out = np.empty((n, l))
    for i, (start, count) in enumerate(result.block_ranges):
        rows = result.merge_basis[i * l : (i + 1) * l]
        out[start : start + count] = result.block_bases[i] @ rows
    return out


def apply_q(result: BlockedQB, v) -> np.ndarray:
    """Compute Q @ v for an l x c matrix v block-row by block-row without
    materializing Q: block i of the result is `_lift(Q_i, M_i v)` for its
    rows M_i of the merge basis, written into the one n x c output, so no
    block basis is cast to complex."""
    v = np.asarray(v)
    l = result.sketch_size
    if v.ndim != 2 or v.shape[0] != l:
        raise ValueError(f"expected an {l} x c matrix, got shape {v.shape}")
    n = sum(count for _, count in result.block_ranges)
    out_dtype = np.result_type(np.float64, v.dtype)
    memguard.note(n * v.shape[1] * out_dtype.itemsize)
    out = np.empty((n, v.shape[1]), dtype=out_dtype)
    for i, (start, count) in enumerate(result.block_ranges):
        rows = result.merge_basis[i * l : (i + 1) * l]
        _lift(result.block_bases[i], rows @ v, out=out[start : start + count])
    return out
